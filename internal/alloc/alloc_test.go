package alloc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stindex/internal/geom"
	"stindex/internal/split"
	"stindex/internal/trajectory"
)

func randObjects(rng *rand.Rand, n, maxLen int) []*trajectory.Object {
	objs := make([]*trajectory.Object, n)
	for i := range objs {
		ln := 1 + rng.Intn(maxLen)
		instants := make([]geom.Rect, ln)
		x, y := rng.Float64(), rng.Float64()
		for j := range instants {
			x += (rng.Float64() - 0.5) * 0.2
			y += (rng.Float64() - 0.5) * 0.2
			w, h := rng.Float64()*0.05, rng.Float64()*0.05
			instants[j] = geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
		}
		o, err := trajectory.NewObject(int64(i), 0, instants)
		if err != nil {
			panic(err)
		}
		objs[i] = o
	}
	return objs
}

// bruteForceDistribute enumerates every split vector up to the budget.
func bruteForceDistribute(c *Curves, budget int) float64 {
	n := c.NumObjects()
	best := math.Inf(1)
	splits := make([]int, n)
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == n {
			total := 0.0
			for j, s := range splits {
				total += c.Volume(j, s)
			}
			if total < best {
				best = total
			}
			return
		}
		for s := 0; s <= left && s <= c.MaxSplits(i); s++ {
			splits[i] = s
			rec(i+1, left-s)
		}
		splits[i] = 0
	}
	rec(0, budget)
	return best
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		objs := randObjects(rng, 2+rng.Intn(4), 6)
		budget := rng.Intn(8)
		c := PlanCurves(objs, split.DPPlan, nil, 0)
		opt := Optimal(c, budget)
		if err := opt.Validate(c); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if opt.Used() > budget {
			t.Fatalf("trial %d: used %d splits of %d", trial, opt.Used(), budget)
		}
		want := bruteForceDistribute(c, budget)
		if diff := math.Abs(opt.Volume - want); diff > 1e-9*math.Max(1, want) {
			t.Fatalf("trial %d (budget %d): optimal %g, brute force %g", trial, budget, opt.Volume, want)
		}
	}
}

func TestGreedyAndLAGreedyNeverBeatOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		objs := randObjects(rng, 3+rng.Intn(10), 12)
		budget := rng.Intn(20)
		c := PlanCurves(objs, split.DPPlan, nil, 0)
		opt := Optimal(c, budget)
		g := Greedy(c, budget)
		la := LAGreedy(c, budget)
		for name, a := range map[string]Assignment{"greedy": g, "lagreedy": la} {
			if err := a.Validate(c); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if a.Volume < opt.Volume-1e-9*math.Max(1, opt.Volume) {
				t.Fatalf("trial %d: %s volume %g beats optimal %g — impossible",
					trial, name, a.Volume, opt.Volume)
			}
		}
		if la.Volume > g.Volume+1e-9*math.Max(1, g.Volume) {
			t.Fatalf("trial %d: LAGreedy %g worse than Greedy %g — the refinement only swaps when it helps",
				trial, la.Volume, g.Volume)
		}
	}
}

func TestLAGreedyRescuesNonMonotoneObject(t *testing.T) {
	// A tent-shaped out-and-back trajectory (figure 4's pathology): one
	// split barely helps because the apex keeps one piece full-width, but
	// two splits isolate the narrow legs. Its first-split gain is tuned to
	// be smaller than the movers' so plain Greedy starves it; LAGreedy must
	// find the two-split reassignment.
	tent := make([]geom.Rect, 30)
	for i := 0; i < 15; i++ {
		x := float64(i) * 0.06
		tent[i] = geom.Rect{MinX: x, MinY: 0, MaxX: x + 0.01, MaxY: 0.002}
	}
	for i := 15; i < 30; i++ {
		x := float64(29-i) * 0.06
		tent[i] = geom.Rect{MinX: x, MinY: 0, MaxX: x + 0.01, MaxY: 0.002}
	}
	tentObj, err := trajectory.NewObject(0, 0, tent)
	if err != nil {
		t.Fatal(err)
	}
	objs := []*trajectory.Object{tentObj}
	// Small linear movers whose single-split gains beat the tent's first
	// split but whose combined gains lose to the tent's double split.
	for id := int64(1); id <= 4; id++ {
		lin := make([]geom.Rect, 20)
		for i := range lin {
			x := float64(i) * 0.004
			lin[i] = geom.Rect{MinX: x, MinY: 0.5, MaxX: x + 0.01, MaxY: 0.51}
		}
		o, err := trajectory.NewObject(id, 0, lin)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	c := PlanCurves(objs, split.DPPlan, nil, 0)
	budget := 4
	g := Greedy(c, budget)
	la := LAGreedy(c, budget)
	opt := Optimal(c, budget)
	if g.Splits[0] >= 2 {
		t.Skip("greedy already found the zig-zag; workload not adversarial enough")
	}
	if la.Volume >= g.Volume {
		t.Fatalf("LAGreedy (%g) failed to improve on Greedy (%g) for the zig-zag workload", la.Volume, g.Volume)
	}
	if la.Splits[0] < 2 {
		t.Fatalf("LAGreedy gave the zig-zag %d splits, want >= 2", la.Splits[0])
	}
	if diff := la.Volume - opt.Volume; diff > 0.3*(g.Volume-opt.Volume) {
		t.Fatalf("LAGreedy %g should land near optimal %g (greedy %g)", la.Volume, opt.Volume, g.Volume)
	}
}

func TestAssignmentsExhaustBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	objs := randObjects(rng, 10, 10)
	c := PlanCurves(objs, split.MergePlan, nil, 0)
	total := c.TotalBudget()
	for _, budget := range []int{0, 1, total / 2, total, total + 50} {
		for name, a := range map[string]Assignment{
			"optimal":  Optimal(c, budget),
			"greedy":   Greedy(c, budget),
			"lagreedy": LAGreedy(c, budget),
		} {
			want := budget
			if want > total {
				want = total
			}
			if a.Used() > want {
				t.Fatalf("%s used %d splits with budget %d (cap %d)", name, a.Used(), budget, total)
			}
			// Full-budget runs must consume everything useful.
			if budget >= total && a.Used() != total {
				t.Fatalf("%s left splits unused: %d of %d", name, a.Used(), total)
			}
			if err := a.Validate(c); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestMonotoneVolumeInBudget(t *testing.T) {
	// Property: for every algorithm, a larger budget never yields a larger
	// total volume.
	rng := rand.New(rand.NewSource(4))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		objs := randObjects(r, 4+r.Intn(6), 8)
		c := PlanCurves(objs, split.DPPlan, nil, 0)
		prevO, prevG, prevLA := math.Inf(1), math.Inf(1), math.Inf(1)
		for budget := 0; budget <= 10; budget += 2 {
			o := Optimal(c, budget).Volume
			g := Greedy(c, budget).Volume
			la := LAGreedy(c, budget).Volume
			if o > prevO+1e-9 || g > prevG+1e-9 || la > prevLA+1e-9 {
				return false
			}
			prevO, prevG, prevLA = o, g, la
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestLAGreedyDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs := randObjects(rng, 12, 15)
	c := PlanCurves(objs, split.DPPlan, nil, 0)
	budget := 12
	base := Greedy(c, budget)
	for _, depth := range []int{1, 2, 3, 4} {
		a := LAGreedyDepth(c, budget, depth)
		if err := a.Validate(c); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if a.Used() != base.Used() {
			t.Fatalf("depth %d: used %d splits, greedy used %d", depth, a.Used(), base.Used())
		}
		if a.Volume > base.Volume+1e-9 {
			t.Fatalf("depth %d: volume %g worse than greedy %g", depth, a.Volume, base.Volume)
		}
	}
}

func TestCurvesAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	objs := randObjects(rng, 5, 7)
	c := PlanCurves(objs, split.DPPlan, nil, 0)
	if c.NumObjects() != 5 {
		t.Fatalf("NumObjects = %d", c.NumObjects())
	}
	for i := 0; i < 5; i++ {
		if c.MaxSplits(i) != objs[i].Len()-1 {
			t.Fatalf("MaxSplits(%d) = %d, want %d", i, c.MaxSplits(i), objs[i].Len()-1)
		}
		// Clamping beyond the max and below zero.
		if c.Volume(i, c.MaxSplits(i)+5) != c.Volume(i, c.MaxSplits(i)) {
			t.Fatalf("Volume should clamp above max")
		}
		if c.Volume(i, -1) != c.Volume(i, 0) {
			t.Fatalf("Volume should clamp below zero")
		}
		if g := c.Gain(i, c.MaxSplits(i)); g != 0 {
			t.Fatalf("Gain beyond the curve = %g, want 0", g)
		}
	}
}
