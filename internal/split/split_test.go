package split

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stindex/internal/datagen"
	"stindex/internal/geom"
	"stindex/internal/trajectory"
)

// randObject builds a random-walk object of n instants.
func randObject(rng *rand.Rand, id int64, n int) *trajectory.Object {
	instants := make([]geom.Rect, n)
	x, y := rng.Float64(), rng.Float64()
	for i := range instants {
		x += (rng.Float64() - 0.5) * 0.1
		y += (rng.Float64() - 0.5) * 0.1
		w, h := rng.Float64()*0.05, rng.Float64()*0.05
		instants[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
	}
	o, err := trajectory.NewObject(id, 0, instants)
	if err != nil {
		panic(err)
	}
	return o
}

func TestDPSplitMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(8)
		k := rng.Intn(4)
		o := randObject(rng, int64(trial), n)
		dp := DPSplit(o, k)
		bf := BruteForceSplit(o, k)
		if err := dp.Validate(); err != nil {
			t.Fatalf("trial %d: DP result invalid: %v", trial, err)
		}
		if diff := math.Abs(dp.Volume - bf.Volume); diff > 1e-9*math.Max(1, bf.Volume) {
			t.Fatalf("trial %d (n=%d k=%d): DP volume %g != brute force %g",
				trial, n, k, dp.Volume, bf.Volume)
		}
	}
}

func TestDPCurveMatchesDPSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(20)
		o := randObject(rng, int64(trial), n)
		maxK := 6
		curve := DPCurve(o, maxK)
		if len(curve) != maxK+1 {
			t.Fatalf("curve length %d, want %d", len(curve), maxK+1)
		}
		for k := 0; k <= maxK; k++ {
			r := DPSplit(o, k)
			if diff := math.Abs(curve[k] - r.Volume); diff > 1e-9*math.Max(1, r.Volume) {
				t.Fatalf("trial %d: curve[%d]=%g but DPSplit volume %g", trial, k, curve[k], r.Volume)
			}
		}
		for k := 1; k <= maxK; k++ {
			if curve[k] > curve[k-1]+1e-12 {
				t.Fatalf("trial %d: DP curve not non-increasing at %d: %g > %g", trial, k, curve[k], curve[k-1])
			}
		}
	}
}

func TestMergeSplitNeverBeatsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(30)
		k := rng.Intn(n)
		o := randObject(rng, int64(trial), n)
		ms := MergeSplit(o, k)
		dp := DPSplit(o, k)
		if err := ms.Validate(); err != nil {
			t.Fatalf("trial %d: MergeSplit result invalid: %v", trial, err)
		}
		if ms.Volume < dp.Volume-1e-9*math.Max(1, dp.Volume) {
			t.Fatalf("trial %d (n=%d k=%d): MergeSplit %g beats optimal %g — impossible",
				trial, n, k, ms.Volume, dp.Volume)
		}
		if ms.Splits() != dp.Splits() && ms.Splits() != ClampSplits(k, n) {
			t.Fatalf("trial %d: MergeSplit used %d splits, budget %d", trial, ms.Splits(), k)
		}
	}
}

func TestMergeSplitMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(25)
		k := rng.Intn(n)
		o := randObject(rng, int64(trial), n)
		fast := MergeSplit(o, k)
		naive := MergeSplitNaive(o, k)
		if diff := math.Abs(fast.Volume - naive.Volume); diff > 1e-9*math.Max(1, naive.Volume) {
			t.Fatalf("trial %d (n=%d k=%d): heap merge %g, naive merge %g",
				trial, n, k, fast.Volume, naive.Volume)
		}
	}
}

// TestMergeDivergesFromNaiveOnlyAtTies runs the lazy heap where ties are
// common: datagen.Random objects move in linear pieces, so neighbouring
// merges often cost bit-equal increases. MergePlan's merge order is
// replayed beside the rescan greedy, which takes the leftmost cheapest
// pair; the two may part ways, and where they first do the heap's pair
// must cost exactly what the leftmost cheapest costs — it chose among
// equals, never a dearer merge. (After that the states differ and are
// not comparable.) This is also why the heap's pop order among equal
// increases is pinned: it decides cuts on ordinary data.
func TestMergeDivergesFromNaiveOnlyAtTies(t *testing.T) {
	objs, err := datagen.Random(datagen.RandomConfig{N: 1500, Horizon: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	type seg struct {
		lo, hi int
		rect   geom.Rect
		vol    float64
	}
	diverged := 0
	for _, o := range objs {
		n := o.Len()
		segs := make([]seg, n)
		for i := range segs {
			r := o.InstantRect(i)
			segs[i] = seg{lo: i, hi: i + 1, rect: r, vol: VolumeMeasure(r, 1)}
		}
		for j, cut := range MergePlan(o, nil).order {
			naive, heap := -1, -1
			var naiveInc, heapInc float64
			for i := 0; i+1 < len(segs); i++ {
				u := segs[i].rect.Union(segs[i+1].rect)
				inc := VolumeMeasure(u, int64(segs[i+1].hi-segs[i].lo)) - segs[i].vol - segs[i+1].vol
				if naive == -1 || inc < naiveInc {
					naive, naiveInc = i, inc
				}
				if segs[i+1].lo == int(cut) {
					heap, heapInc = i, inc
				}
			}
			if heap == -1 {
				t.Fatalf("object %d merge %d: the plan removes cut %d, which is not a boundary of the replayed state", o.ID, j, cut)
			}
			if heap != naive {
				if math.Float64bits(heapInc) != math.Float64bits(naiveInc) {
					t.Fatalf("object %d merge %d: the heap merges at cut %d for %v, the cheapest pair (cut %d) costs %v",
						o.ID, j, cut, heapInc, segs[naive+1].lo, naiveInc)
				}
				diverged++
				break
			}
			u := segs[heap].rect.Union(segs[heap+1].rect)
			segs[heap] = seg{lo: segs[heap].lo, hi: segs[heap+1].hi, rect: u, vol: VolumeMeasure(u, int64(segs[heap+1].hi-segs[heap].lo))}
			segs = append(segs[:heap+1], segs[heap+2:]...)
		}
	}
	if diverged == 0 {
		t.Fatal("the heap never met a tie it broke differently from the leftmost rule: this data no longer exercises ties")
	}
	t.Logf("%d of %d objects: heap and leftmost-tie greedy part ways, each time at an exact tie", diverged, len(objs))
}

func TestMergeCurveMatchesMergeSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(20)
		o := randObject(rng, int64(trial), n)
		curve := MergeCurve(o, n-1)
		for k := 0; k < n; k++ {
			r := MergeSplit(o, k)
			if diff := math.Abs(curve[k] - r.Volume); diff > 1e-9*math.Max(1, r.Volume) {
				t.Fatalf("trial %d: MergeCurve[%d]=%g but MergeSplit volume %g (n=%d)",
					trial, k, curve[k], r.Volume, n)
			}
		}
	}
}

func TestSplittingNeverIncreasesVolume(t *testing.T) {
	// Property: for any object and any budget, the split representation's
	// volume is at most the unsplit MBR volume (splits only remove empty
	// space), and results always validate.
	rng := rand.New(rand.NewSource(6))
	prop := func(seed int64, nRaw, kRaw uint8) bool {
		n := 1 + int(nRaw)%60
		k := int(kRaw) % 70
		o := randObject(rand.New(rand.NewSource(seed)), 0, n)
		whole := None(o)
		for _, r := range []Result{DPSplit(o, k), MergeSplit(o, k), Piecewise(o)} {
			if r.Validate() != nil {
				return false
			}
			if r.Volume > whole.Volume+1e-9*math.Max(1, whole.Volume) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestClampSplits(t *testing.T) {
	cases := []struct{ k, n, want int }{
		{0, 5, 0}, {4, 5, 4}, {5, 5, 4}, {100, 5, 4}, {-3, 5, 0}, {0, 1, 0}, {10, 1, 0},
	}
	for _, c := range cases {
		if got := ClampSplits(c.k, c.n); got != c.want {
			t.Errorf("ClampSplits(%d,%d) = %d, want %d", c.k, c.n, got, c.want)
		}
	}
}

func TestSingleInstantObject(t *testing.T) {
	o, err := trajectory.NewObject(1, 10, []geom.Rect{{MinX: 0, MinY: 0, MaxX: 0.1, MaxY: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Result{None(o), DPSplit(o, 3), MergeSplit(o, 3), Piecewise(o)} {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if r.Splits() != 0 {
			t.Fatalf("single-instant object got %d splits", r.Splits())
		}
		if math.Abs(r.Volume-0.01) > 1e-12 {
			t.Fatalf("volume %g, want 0.01", r.Volume)
		}
	}
}

func TestStationaryObjectGainsNothing(t *testing.T) {
	// A stationary object has zero empty space: any number of splits keeps
	// the total volume equal to the unsplit volume.
	r := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.3, MaxY: 0.4}
	instants := make([]geom.Rect, 20)
	for i := range instants {
		instants[i] = r
	}
	o, err := trajectory.NewObject(2, 0, instants)
	if err != nil {
		t.Fatal(err)
	}
	whole := None(o).Volume
	for _, k := range []int{1, 5, 19} {
		if v := DPSplit(o, k).Volume; math.Abs(v-whole) > 1e-12 {
			t.Fatalf("stationary object: %d splits changed volume %g -> %g", k, whole, v)
		}
	}
}

func TestLinearMotionMonotonicity(t *testing.T) {
	// Claim 1: for a linear trajectory the marginal gain of each extra
	// split is non-increasing.
	segs := []trajectory.Segment{{
		Start: 0, End: 64,
		X:     trajectory.NewPolynomial(0.1, 0.01),
		Y:     trajectory.NewPolynomial(0.1, 0.01),
		HalfW: trajectory.NewPolynomial(0.02),
		HalfH: trajectory.NewPolynomial(0.02),
	}}
	o, err := trajectory.FromSegments(3, segs)
	if err != nil {
		t.Fatal(err)
	}
	curve := DPCurve(o, 10)
	for k := 2; k <= 10; k++ {
		gainPrev := curve[k-2] - curve[k-1]
		gain := curve[k-1] - curve[k]
		if gain > gainPrev+1e-9 {
			t.Fatalf("linear motion violates Claim 1 at k=%d: gain %g > previous %g", k, gain, gainPrev)
		}
	}
}

func TestPiecewiseSplitsAtBreakpoints(t *testing.T) {
	segs := []trajectory.Segment{
		{Start: 0, End: 10, X: trajectory.NewPolynomial(0.1, 0.02), Y: trajectory.NewPolynomial(0.5)},
		{Start: 10, End: 25, X: trajectory.NewPolynomial(0.3, -0.01), Y: trajectory.NewPolynomial(0.5, 0.01)},
		{Start: 25, End: 30, X: trajectory.NewPolynomial(0.2), Y: trajectory.NewPolynomial(0.6)},
	}
	o, err := trajectory.FromSegments(4, segs)
	if err != nil {
		t.Fatal(err)
	}
	r := Piecewise(o)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(r.Cuts) != 2 || r.Cuts[0] != 10 || r.Cuts[1] != 25 {
		t.Fatalf("Piecewise cuts = %v, want [10 25]", r.Cuts)
	}
}

func TestNonMonotoneObjectExists(t *testing.T) {
	// Figure 4's point: with general motion one split can gain much less
	// than two. Build the canonical zig-zag: out, back, out.
	instants := []geom.Rect{}
	for i := 0; i < 10; i++ { // move right
		x := float64(i) * 0.1
		instants = append(instants, geom.Rect{MinX: x, MinY: 0, MaxX: x + 0.01, MaxY: 0.01})
	}
	for i := 0; i < 10; i++ { // move back left
		x := 0.9 - float64(i)*0.1
		instants = append(instants, geom.Rect{MinX: x, MinY: 0, MaxX: x + 0.01, MaxY: 0.01})
	}
	for i := 0; i < 10; i++ { // move right again
		x := float64(i) * 0.1
		instants = append(instants, geom.Rect{MinX: x, MinY: 0, MaxX: x + 0.01, MaxY: 0.01})
	}
	o, err := trajectory.NewObject(5, 0, instants)
	if err != nil {
		t.Fatal(err)
	}
	curve := DPCurve(o, 3)
	gain1 := curve[0] - curve[1]
	gain2 := curve[1] - curve[2]
	if gain2 <= gain1 {
		t.Fatalf("expected a non-monotone gain profile, got gain1=%g gain2=%g", gain1, gain2)
	}
}
