package split

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stindex/internal/geom"
	"stindex/internal/trajectory"
)

// refCand is the reference's own merge candidate, with the validity test
// mergeRun used before its one-stamp candidate: both sides' versions as
// pushed, each compared for equality when the candidate pops.
type refCand struct {
	increase   float64
	seg        int32
	verA, verB int32
}

// refHeap is the container/heap candidate queue mergeRun used before its
// typed heap: the reference the typed heap must match pop for pop.
type refHeap []refCand

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].increase < h[j].increase }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refCand)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// candQueue is what the reference merge loop needs of a candidate queue,
// so the same loop can run over container/heap and over the typed heap.
type candQueue interface {
	init(cands []refCand)
	push(c refCand)
	pop() refCand
	len() int
}

type refQueue struct{ h refHeap }

func (q *refQueue) init(cands []refCand) { q.h = cands; heap.Init(&q.h) }
func (q *refQueue) push(c refCand)       { heap.Push(&q.h, c) }
func (q *refQueue) pop() refCand         { return heap.Pop(&q.h).(refCand) }
func (q *refQueue) len() int             { return q.h.Len() }

// typedQueue runs the production heap under the reference loop. The heap
// orders by increase alone, so each pushed mergeCand carries in its stamp
// the index of the refCand it stands for, and a pop hands back that very
// candidate.
type typedQueue struct {
	s   mergeScratch
	all []refCand
}

func (q *typedQueue) add(c refCand) mergeCand {
	q.all = append(q.all, c)
	return mergeCand{increase: c.increase, seg: c.seg, stamp: int32(len(q.all) - 1)}
}

func (q *typedQueue) init(cands []refCand) {
	for _, c := range cands {
		q.s.h = append(q.s.h, q.add(c))
	}
	q.s.heapInit()
}
func (q *typedQueue) push(c refCand) { q.s.heapPush(q.add(c)) }
func (q *typedQueue) pop() refCand   { return q.all[q.s.heapPop().stamp] }
func (q *typedQueue) len() int       { return len(q.s.h) }

// refCandidate builds the reference's candidate for merging segs[i] with
// its successor.
func refCandidate(segs []mergeSeg, i int32, m Measure) refCand {
	a := &segs[i]
	b := &segs[a.next]
	union := a.rect.Union(b.rect)
	inc := m(union, int64(b.hi-a.lo)) - a.vol - b.vol
	return refCand{increase: inc, seg: i, verA: a.version, verB: b.version}
}

// refMergeRun is mergeRun as it was before the typed heap, over the given
// queue and without the scratch pool: a segment's version counts its own
// changes, and a candidate is valid while both sides' versions equal the
// ones it was pushed with. It returns the cuts, the cut each merge
// removed, and every candidate in the order the queue released it, stale
// ones included.
func refMergeRun(o *trajectory.Object, targetSplits int, m Measure, observe func(splits int, vol float64), q candQueue) (cuts []int, order []int32, pops []refCand) {
	n := o.Len()
	targetSplits = ClampSplits(targetSplits, n)
	segs := make([]mergeSeg, n)
	total := 0.0
	for i := int32(0); i < int32(n); i++ {
		r := o.InstantRect(int(i))
		segs[i] = mergeSeg{lo: i, hi: i + 1, rect: r, vol: m(r, 1), prev: i - 1, next: i + 1}
		total += segs[i].vol
	}
	segs[n-1].next = -1
	if observe != nil {
		observe(n-1, total)
	}
	var cands []refCand
	for i := int32(0); i+1 < int32(n); i++ {
		cands = append(cands, refCandidate(segs, i, m))
	}
	q.init(cands)
	live := n
	floor := targetSplits + 1
	if observe != nil {
		floor = 1
	}
	for live > floor && q.len() > 0 {
		c := q.pop()
		pops = append(pops, c)
		a := &segs[c.seg]
		if a.dead || a.next == -1 {
			continue
		}
		b := &segs[a.next]
		if c.verA != a.version || c.verB != b.version {
			continue
		}
		order = append(order, b.lo)
		union := a.rect.Union(b.rect)
		newVol := m(union, int64(b.hi-a.lo))
		total += newVol - a.vol - b.vol
		a.rect = union
		a.hi = b.hi
		a.vol = newVol
		a.version++
		b.dead = true
		a.next = b.next
		if b.next != -1 {
			segs[b.next].prev = c.seg
			q.push(refCandidate(segs, c.seg, m))
		}
		if a.prev != -1 {
			q.push(refCandidate(segs, a.prev, m))
		}
		live--
		if observe != nil {
			observe(live-1, total)
		}
		if observe == nil && live == floor {
			break
		}
	}
	for i := int32(0); i != -1 && int(i) < n; {
		s := segs[i]
		if s.lo > 0 {
			cuts = append(cuts, int(s.lo))
		}
		i = s.next
	}
	return cuts, order, pops
}

// popKey is what two pops are compared by: the increase's bits (so a NaN
// equals itself) and the segment.
type popKey struct {
	increase uint64
	seg      int32
}

func popKeys(pops []refCand) []popKey {
	keys := make([]popKey, len(pops))
	for i, c := range pops {
		keys[i] = popKey{math.Float64bits(c.increase), c.seg}
	}
	return keys
}

// stationaryObject never moves: every merge increase is exactly 0, so the
// whole merge order is decided by how the heap breaks ties.
func stationaryObject(n int) *trajectory.Object {
	instants := make([]geom.Rect, n)
	for i := range instants {
		instants[i] = geom.Rect{MinX: 0.25, MinY: 0.5, MaxX: 0.3125, MaxY: 0.625}
	}
	o, err := trajectory.NewObject(0, 0, instants)
	if err != nil {
		panic(err)
	}
	return o
}

// steppedObject stands still except for a few jumps: long runs of zero
// increases with a handful of distinct positive ones between them.
func steppedObject(rng *rand.Rand, n int) *trajectory.Object {
	instants := make([]geom.Rect, n)
	x := 0.0
	for i := range instants {
		if rng.Intn(8) == 0 {
			x += 0.125
		}
		instants[i] = geom.Rect{MinX: x, MinY: 0, MaxX: x + 0.0625, MaxY: 0.0625}
	}
	o, err := trajectory.NewObject(0, 0, instants)
	if err != nil {
		panic(err)
	}
	return o
}

func heapTestObjects() map[string]*trajectory.Object {
	rng := rand.New(rand.NewSource(14))
	objs := map[string]*trajectory.Object{
		"single":         stationaryObject(1),
		"pair":           stationaryObject(2),
		"stationary-7":   stationaryObject(7),
		"stationary-64":  stationaryObject(64),
		"stationary-257": stationaryObject(257),
		"stepped-100":    steppedObject(rng, 100),
		"stepped-333":    steppedObject(rng, 333),
	}
	for _, n := range []int{2, 3, 17, 100, 500} {
		objs["random-"+string(rune('a'+len(objs)))] = randObject(rng, 0, n)
	}
	return objs
}

// TestTypedHeapPopOrderMatchesContainerHeap runs the same full merge over
// the container/heap reference and over the typed heap and compares every
// released candidate, stale ones included.
func TestTypedHeapPopOrderMatchesContainerHeap(t *testing.T) {
	for name, o := range heapTestObjects() {
		_, _, wantPops := refMergeRun(o, 0, VolumeMeasure, func(int, float64) {}, new(refQueue))
		_, _, gotPops := refMergeRun(o, 0, VolumeMeasure, func(int, float64) {}, new(typedQueue))
		got, want := popKeys(gotPops), popKeys(wantPops)
		if !slices.Equal(got, want) {
			k := 0
			for k < len(got) && k < len(want) && got[k] == want[k] {
				k++
			}
			t.Fatalf("%s: %d pops against container/heap's %d, first difference at pop %d", name, len(got), len(want), k)
		}
	}
}

// TestMergeRunMatchesContainerHeapReference compares the production
// mergeRun with the reference end to end: the cuts at every budget, the
// plan's merge order and the whole observed volume curve, bit for bit.
func TestMergeRunMatchesContainerHeapReference(t *testing.T) {
	for name, o := range heapTestObjects() {
		for k := 0; k < o.Len(); k++ {
			got := mergeRun(o, k, nil, nil)
			want, _, _ := refMergeRun(o, k, VolumeMeasure, nil, new(refQueue))
			if !slices.Equal(got, want) {
				t.Fatalf("%s k=%d: cuts %v, reference %v", name, k, got, want)
			}
		}
		var got, want []uint64
		mergeRun(o, 0, nil, func(_ int, vol float64) { got = append(got, math.Float64bits(vol)) })
		_, wantOrder, _ := refMergeRun(o, 0, VolumeMeasure, func(_ int, vol float64) { want = append(want, math.Float64bits(vol)) }, new(refQueue))
		if !slices.Equal(got, want) {
			t.Fatalf("%s: observed volumes differ from the reference", name)
		}
		if gotOrder := MergePlan(o, nil).order; !slices.Equal(gotOrder, wantOrder) {
			t.Fatalf("%s: merge order %v, reference %v", name, gotOrder, wantOrder)
		}
	}
}

// heapOpKeys are the keys of the op-sequence tests: a few values, so
// exact ties are the common case, and the IEEE edges — NaN, which every
// "<" calls unordered, both infinities and both zeros.
var heapOpKeys = []float64{0, 1, 1, 2, 3, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}

// TestMergeHeapOpsMatchContainerHeap drives the merge heap and
// container/heap through the same seeded random sequences of Init, Push
// and Pop and compares every pop: the element, by its unique seg, and the
// bits of its key.
func TestMergeHeapOpsMatchContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ref refHeap
		var got mergeScratch
		next := int32(0)
		newCand := func() refCand {
			next++
			return refCand{increase: heapOpKeys[rng.Intn(len(heapOpKeys))], seg: next}
		}
		for i := rng.Intn(40); i > 0; i-- {
			c := newCand()
			ref = append(ref, c)
			got.h = append(got.h, mergeCand{increase: c.increase, seg: c.seg})
		}
		heap.Init(&ref)
		got.heapInit()
		for op := 0; op < 400; op++ {
			if ref.Len() == 0 || rng.Intn(5) < 2 {
				c := newCand()
				heap.Push(&ref, c)
				got.heapPush(mergeCand{increase: c.increase, seg: c.seg})
				continue
			}
			want := heap.Pop(&ref).(refCand)
			g := got.heapPop()
			if g.seg != want.seg || math.Float64bits(g.increase) != math.Float64bits(want.increase) {
				t.Fatalf("seed %d op %d: popped seg %d (%v), container/heap seg %d (%v)",
					seed, op, g.seg, g.increase, want.seg, want.increase)
			}
		}
		if len(got.h) != ref.Len() {
			t.Fatalf("seed %d: %d candidates left, container/heap %d", seed, len(got.h), ref.Len())
		}
	}
}

// TestMergeEmptyObject: an object with no instants (only constructible by
// hand) has the all-zero curve and no cuts instead of indexing curve[-1].
func TestMergeEmptyObject(t *testing.T) {
	empty := &trajectory.Object{}
	if got := MergeCurve(empty, 3); !slices.Equal(got, make([]float64, 4)) {
		t.Fatalf("MergeCurve on an empty object = %v, want zeros", got)
	}
	if cuts := mergeRun(empty, 2, nil, nil); len(cuts) != 0 {
		t.Fatalf("mergeRun on an empty object cut at %v", cuts)
	}
}

// raceDetector is set by race_on_test.go when the test binary is built
// with -race.
var raceDetector bool

// TestMergeAllocBudget: with the scratch pool warm, a merge allocates only
// what it returns — MergePlan its curve and merge order, a result read off
// the plan its cuts and boxes, and so does MergeSplit's run of its own.
// (AllocsPerRun reports the floor of the mean, so a pool emptied once by
// a collection does not show.)
func TestMergeAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	o := randObject(rand.New(rand.NewSource(5)), 0, 120)
	MergeSplit(o, 40) // warm the pool
	if got := testing.AllocsPerRun(200, func() { MergeSplit(o, 40) }); got != 2 {
		t.Errorf("MergeSplit: %v allocs/op, want 2 (cuts, boxes)", got)
	}
	if got := testing.AllocsPerRun(200, func() { MergePlan(o, nil) }); got != 2 {
		t.Errorf("MergePlan: %v allocs/op, want 2 (curve, order)", got)
	}
	plan := MergePlan(o, nil)
	if got := testing.AllocsPerRun(200, func() { plan.Result(o, 40) }); got != 2 {
		t.Errorf("Plan.Result: %v allocs/op, want 2 (cuts, boxes)", got)
	}
}
