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

// refHeap is the container/heap candidate queue mergeRun used before its
// typed heap: the reference the typed heap must match pop for pop.
type refHeap []mergeCand

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].increase < h[j].increase }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(mergeCand)) }
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
	init(cands []mergeCand)
	push(c mergeCand)
	pop() mergeCand
	len() int
}

type refQueue struct{ h refHeap }

func (q *refQueue) init(cands []mergeCand) { q.h = cands; heap.Init(&q.h) }
func (q *refQueue) push(c mergeCand)       { heap.Push(&q.h, c) }
func (q *refQueue) pop() mergeCand         { return heap.Pop(&q.h).(mergeCand) }
func (q *refQueue) len() int               { return q.h.Len() }

type typedQueue struct{ s mergeScratch }

func (q *typedQueue) init(cands []mergeCand) { q.s.h = cands; q.s.heapInit() }
func (q *typedQueue) push(c mergeCand)       { q.s.heapPush(c) }
func (q *typedQueue) pop() mergeCand         { return q.s.heapPop() }
func (q *typedQueue) len() int               { return len(q.s.h) }

// refMergeRun is mergeRun as it was before the typed heap, over the given
// queue and without the scratch pool. It returns the cuts and every
// candidate in the order the queue released it, stale ones included.
func refMergeRun(o *trajectory.Object, targetSplits int, m Measure, observe func(splits int, vol float64), q candQueue) (cuts []int, pops []mergeCand) {
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
	var cands []mergeCand
	for i := int32(0); i+1 < int32(n); i++ {
		cands = append(cands, candidate(segs, i, m))
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
			q.push(candidate(segs, c.seg, m))
		}
		if a.prev != -1 {
			q.push(candidate(segs, a.prev, m))
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
	return cuts, pops
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
		_, want := refMergeRun(o, 0, VolumeMeasure, func(int, float64) {}, new(refQueue))
		_, got := refMergeRun(o, 0, VolumeMeasure, func(int, float64) {}, new(typedQueue))
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
// mergeRun with the reference end to end: the cuts at every budget and
// the whole observed volume curve, bit for bit.
func TestMergeRunMatchesContainerHeapReference(t *testing.T) {
	for name, o := range heapTestObjects() {
		for k := 0; k < o.Len(); k++ {
			got := mergeRun(o, k, VolumeMeasure, nil)
			want, _ := refMergeRun(o, k, VolumeMeasure, nil, new(refQueue))
			if !slices.Equal(got, want) {
				t.Fatalf("%s k=%d: cuts %v, reference %v", name, k, got, want)
			}
		}
		var got, want []uint64
		mergeRun(o, 0, VolumeMeasure, func(_ int, vol float64) { got = append(got, math.Float64bits(vol)) })
		refMergeRun(o, 0, VolumeMeasure, func(_ int, vol float64) { want = append(want, math.Float64bits(vol)) }, new(refQueue))
		if !slices.Equal(got, want) {
			t.Fatalf("%s: observed volumes differ from the reference", name)
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
	if cuts := mergeRun(empty, 2, VolumeMeasure, nil); len(cuts) != 0 {
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
