package alloc

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refGainHeap is the container/heap queue the allocators used before
// their typed heap, least or greatest gain first: the reference the typed
// heap must match pop for pop.
type refGainHeap struct {
	h        []gainEntry
	maxFirst bool
}

func (r *refGainHeap) Len() int { return len(r.h) }
func (r *refGainHeap) Less(i, j int) bool {
	if r.maxFirst {
		return r.h[i].gain > r.h[j].gain
	}
	return r.h[i].gain < r.h[j].gain
}
func (r *refGainHeap) Swap(i, j int)      { r.h[i], r.h[j] = r.h[j], r.h[i] }
func (r *refGainHeap) Push(x interface{}) { r.h = append(r.h, x.(gainEntry)) }
func (r *refGainHeap) Pop() interface{} {
	n := len(r.h)
	x := r.h[n-1]
	r.h = r.h[:n-1]
	return x
}

// TestGainHeapOpsMatchContainerHeap drives both typed heaps (max and min)
// and container/heap through the same seeded random sequences of Init,
// Push and Pop over keys from a small set — exact ties are the common
// case — plus NaN, both infinities and both zeros, and compares every pop:
// the entry, by its unique obj, and the bits of its gain.
func TestGainHeapOpsMatchContainerHeap(t *testing.T) {
	keys := []float64{0, 1, 1, 2, 3, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for _, maxFirst := range []bool{true, false} {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ref := &refGainHeap{maxFirst: maxFirst}
			got := newGainHeap(maxFirst, 0)
			next := 0
			newEntry := func() gainEntry {
				next++
				return gainEntry{obj: next, splits: rng.Intn(4), gain: keys[rng.Intn(len(keys))]}
			}
			for i := rng.Intn(40); i > 0; i-- {
				e := newEntry()
				ref.h = append(ref.h, e)
				got.h = append(got.h, e)
			}
			heap.Init(ref)
			got.Init()
			for op := 0; op < 400; op++ {
				if ref.Len() == 0 || rng.Intn(5) < 2 {
					e := newEntry()
					heap.Push(ref, e)
					got.Push(e)
					continue
				}
				want := heap.Pop(ref).(gainEntry)
				g := got.Pop()
				if g.obj != want.obj || math.Float64bits(g.gain) != math.Float64bits(want.gain) {
					t.Fatalf("maxFirst=%v seed %d op %d: popped obj %d (%v), container/heap obj %d (%v)",
						maxFirst, seed, op, g.obj, g.gain, want.obj, want.gain)
				}
			}
			if got.Len() != ref.Len() {
				t.Fatalf("maxFirst=%v seed %d: %d entries left, container/heap %d", maxFirst, seed, got.Len(), ref.Len())
			}
		}
	}
}
