package split

import (
	"sync"

	"stindex/internal/trajectory"
)

// The splitters run once per object, and the parallel pipeline runs many
// objects at once; pooling the DP tables and the merge arena keeps each
// worker reusing one allocation instead of malloc-ing per object, which
// would otherwise erase most of the multi-core speedup. Scratch state is
// fully (re)initialised on acquire, so pooling never changes results.

// dpScratch holds the tables of one dynamic-program run: vol and parent
// are row views into the flat volBuf/parBuf backing arrays.
type dpScratch struct {
	vol    [][]float64
	parent [][]int32
	volBuf []float64
	parBuf []int32
	span   []float64
}

var dpScratchPool = sync.Pool{New: func() interface{} { return new(dpScratch) }}

// acquireDPScratch returns a scratch sized for budget k and object length
// n, with every cell the DP sweep does not write (column 0 and the
// parent row 0) zeroed, matching a freshly allocated table.
func acquireDPScratch(k, n int) *dpScratch {
	s := dpScratchPool.Get().(*dpScratch)
	rows, cols := k+1, n+1
	if cap(s.volBuf) < rows*cols {
		s.volBuf = make([]float64, rows*cols)
	}
	s.volBuf = s.volBuf[:rows*cols]
	if cap(s.parBuf) < rows*cols {
		s.parBuf = make([]int32, rows*cols)
	}
	s.parBuf = s.parBuf[:rows*cols]
	if cap(s.vol) < rows {
		s.vol = make([][]float64, rows)
	}
	s.vol = s.vol[:rows]
	if cap(s.parent) < rows {
		s.parent = make([][]int32, rows)
	}
	s.parent = s.parent[:rows]
	for l := 0; l < rows; l++ {
		s.vol[l] = s.volBuf[l*cols : (l+1)*cols]
		s.parent[l] = s.parBuf[l*cols : (l+1)*cols]
		s.vol[l][0] = 0
		s.parent[l][0] = 0
	}
	for i := range s.parent[0] {
		s.parent[0][i] = 0
	}
	if cap(s.span) < n {
		s.span = make([]float64, n)
	}
	s.span = s.span[:n]
	return s
}

func releaseDPScratch(s *dpScratch) { dpScratchPool.Put(s) }

// dpFill runs the paper's dynamic program into a pooled scratch:
// vol[l][i] is the minimal total measure covering instants [0,i) using l
// splits, and parent[l][i] is the start index of the last box in that
// optimum. A nil measure selects the volume objective via the dedicated
// trajectory.SpanVolumes sweep. The budget k must already be clamped to
// [0, n-1]. The caller must releaseDPScratch the result and not retain
// views into it afterwards.
func dpFill(o *trajectory.Object, k int, m Measure) *dpScratch {
	n := o.Len()
	s := acquireDPScratch(k, n)
	vol, parent, span := s.vol, s.parent, s.span
	for i := 1; i <= n; i++ {
		if m == nil {
			trajectory.SpanVolumes(o, i, span)
		} else {
			spanMeasures(o, i, m, span)
		}
		vol[0][i] = span[0]
		for l := 1; l <= k; l++ {
			if l >= i {
				// More splits than cut slots: identical to using i-1 splits.
				vol[l][i] = vol[i-1][i]
				parent[l][i] = parent[i-1][i]
				continue
			}
			best := vol[l-1][l] + span[l]
			bestJ := int32(l)
			for j := l + 1; j < i; j++ {
				if c := vol[l-1][j] + span[j]; c < best {
					best = c
					bestJ = int32(j)
				}
			}
			vol[l][i] = best
			parent[l][i] = bestJ
		}
	}
	return s
}

// mergeScratch is the reusable arena of one mergeRun: the segment list
// and the candidate heap.
type mergeScratch struct {
	segs []mergeSeg
	h    []mergeCand // min-heap on increase
}

// The candidate heap performs exactly container/heap's sift sequence
// (Init, Push, Pop over a Less of "increase <"), so candidates of equal
// increase pop in the order they always have and every cut is unchanged;
// it only drops the interface boxing of each pushed and popped element,
// and a sift carries its element in a local and moves the hole — one
// store per level where a swap makes two — which compares the same pairs
// and leaves the same layout. heapDown picks the smaller child without a
// branch (the same strict "<", so the left child still wins a tie), and a
// narrower element (a 16-byte mergeCand, a 64-byte mergeSeg) moves less
// memory per sift; neither changes a comparison.
// The pop order among equal increases is part of what a record file is
// (DESIGN.md, "Split plans"): do not replace the queue by one that breaks
// ties differently.

func (s *mergeScratch) heapInit() {
	n := len(s.h)
	for i := n/2 - 1; i >= 0; i-- {
		s.heapDown(i, n, s.h[i])
	}
}

func (s *mergeScratch) heapPush(c mergeCand) {
	s.h = append(s.h, c)
	h := s.h
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(c.increase < h[i].increase) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = c
}

func (s *mergeScratch) heapPop() mergeCand {
	h := s.h
	n := len(h) - 1
	c := h[0]
	if n > 0 {
		s.heapDown(0, n, h[n])
	}
	s.h = h[:n]
	return c
}

// heapDown sifts x down from the hole at i within h[:n]. The child pick
// is container/heap's "right if right < left" as arithmetic: on the
// tie-heavy keys of generated data a branch there mispredicts at every
// level.
func (s *mergeScratch) heapDown(i, n int, x mergeCand) {
	h := s.h[:n]
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n {
			j += b2i(h[j+1].increase < h[j].increase)
		}
		if !(h[j].increase < x.increase) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}

// b2i is 1 for true and 0 for false; the compiler emits a SETcc for it.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

var mergeScratchPool = sync.Pool{New: func() interface{} { return new(mergeScratch) }}

// acquireMergeScratch returns an arena for an object of length n. The
// segment slice is length n but uninitialised beyond capacity reuse —
// mergeRun overwrites every element — and the heap is empty.
func acquireMergeScratch(n int) *mergeScratch {
	s := mergeScratchPool.Get().(*mergeScratch)
	if cap(s.segs) < n {
		s.segs = make([]mergeSeg, n)
	}
	s.segs = s.segs[:n]
	if cap(s.h) < n {
		s.h = make([]mergeCand, 0, n)
	}
	s.h = s.h[:0]
	return s
}

func releaseMergeScratch(s *mergeScratch) { mergeScratchPool.Put(s) }
