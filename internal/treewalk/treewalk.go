// Package treewalk is the one query traversal behind the three
// page-backed trees (pprtree, hrtree, rstar). They answer the same
// queries with the same R-tree descent and differ only in how a node's
// entries are tested against time, so the descent lives here once — the
// depth-first walk, the best-first walk, the pooled scratch both run on,
// the reference-cycle guard and the child-reference check — and each tree
// supplies its roots and a per-node step in which its own entry predicate
// is a direct call. The walks are entered once per page, never per entry,
// and know nothing about which tree is calling.
//
// Both walks visit pages in exactly the order the natural recursion
// would, so the LRU hit/miss sequence — and with it every I/O count the
// paper's figures rest on — does not depend on the traversal being
// iterative, pooled or shared.
package treewalk

import (
	"fmt"
	"math"

	"stindex/internal/pagefile"
)

// Scratch is the traversal state pooled on one tree (or one query view
// of it): taken at the start of a walk and restored afterwards, so
// steady-state queries allocate nothing. A search started from inside a
// callback finds the pool empty and allocates its own. The zero value is
// ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	stack   []uint64
	queue   []Frame
	visited map[pagefile.PageID]bool
	seen    map[uint64]bool
}

// Expand is a tree's per-node step of the depth-first walk: read page
// id, emit the leaf entries that match, or append the child references of
// the directory entries that match to stack — in reverse entry order, so
// the LIFO pops visit them in entry order. more=false ends the walk (the
// caller's callback asked to stop).
type Expand func(id pagefile.PageID, stack []uint64) (_ []uint64, more bool, err error)

// Roots borrows the pooled, empty stack for the caller to push the walk's
// root pages on — last-visited first, like Expand — before handing it to
// DFS, which returns it to the pool.
func (s *Scratch) Roots() []uint64 {
	stack := s.stack
	s.stack = nil
	return stack[:0]
}

// DFS walks depth-first from the roots on stack (see Roots). pages is the
// store's page count, the bound of the cycle guard. With shared set the
// roots' subtrees may overlap (version copies make the structure a DAG:
// one page reachable through several roots or parents) and each page is
// expanded once — its contents are immutable history, so one visit
// suffices. Without it the structure under the roots is a strict tree.
func (s *Scratch) DFS(stack []uint64, pages int, shared bool, expand Expand) error {
	var visited map[pagefile.PageID]bool
	if shared {
		visited = takeSet(&s.visited)
	}
	defer func() {
		s.stack = stack[:0]
		if shared {
			s.visited = visited
		}
	}()
	visits := 0
	for more := true; more && len(stack) > 0; {
		id, err := pageOf(stack[len(stack)-1])
		if err != nil {
			return err
		}
		stack = stack[:len(stack)-1]
		if shared {
			if visited[id] {
				continue
			}
			visited[id] = true
		}
		if visits++; visits > pages {
			return cycleError(pages)
		}
		if stack, more, err = expand(id, stack); err != nil {
			return err
		}
	}
	return nil
}

// Seen borrows the pooled, cleared leaf-reference set: interval searches
// use it to report a record once although version copies of it live in
// several nodes. Pair with PutSeen.
func (s *Scratch) Seen() map[uint64]bool { return takeSet(&s.seen) }

// PutSeen returns the set borrowed with Seen.
func (s *Scratch) PutSeen(m map[uint64]bool) { s.seen = m }

func takeSet[K comparable](pool *map[K]bool) map[K]bool {
	m := *pool
	*pool = nil
	if m == nil {
		return make(map[K]bool)
	}
	clear(m)
	return m
}

// Frame is one element of the best-first queue: an unexpanded node (Ref
// is its page) or a leaf entry awaiting emission (Ref is the record
// reference), keyed by the squared min-distance of its rectangle to the
// query point.
type Frame struct {
	Dist  float64
	Ref   uint64
	Entry bool
}

// Enqueue is a tree's per-node step of the best-first walk: read page id
// and append one Frame to queue for every entry alive at the query time —
// Entry set when the page is a leaf. The walk orders what was appended.
type Enqueue func(id pagefile.PageID, queue []Frame) ([]Frame, error)

// BestFirst is branch-and-bound nearest-neighbour search over the strict
// tree under root: it emits leaf entries in ascending Dist order until
// emit returns false. A node's key is its MBR's min-distance, which never
// exceeds that of anything inside the MBR, so pops occur in globally
// non-decreasing distance order and the caller may cut off as soon as
// the emitted distance exceeds its current k-th best.
func (s *Scratch) BestFirst(root pagefile.PageID, pages int, enqueue Enqueue, emit func(dist float64, ref uint64) bool) error {
	h := s.queue
	s.queue = nil
	defer func() { s.queue = h[:0] }()

	h = append(h[:0], Frame{Ref: uint64(root)})
	visits := 0
	for len(h) > 0 {
		var f Frame
		h, f = knnPop(h)
		if f.Entry {
			if !emit(f.Dist, f.Ref) {
				return nil
			}
			continue
		}
		id, err := pageOf(f.Ref)
		if err != nil {
			return err
		}
		if visits++; visits > pages {
			return cycleError(pages)
		}
		n := len(h)
		if h, err = enqueue(id, h); err != nil {
			return err
		}
		for ; n < len(h); n++ {
			knnPush(h, n)
		}
	}
	return nil
}

// knnPush completes the push of h[i], the frame just appended behind the
// binary min-heap h[:i] (ordered by Dist): it sifts the frame up.
func knnPush(h []Frame, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].Dist <= h[i].Dist {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// knnPop removes and returns the minimum-Dist frame.
func knnPop(h []Frame) ([]Frame, Frame) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && h[l].Dist < h[s].Dist {
			s = l
		}
		if r < n && h[r].Dist < h[s].Dist {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return h, top
}

// pageOf narrows a directory entry's child reference to a page id.
// Entries store 64-bit references; a child reference with high bits set
// can only come from a corrupt container and must fail the query instead
// of aliasing onto a valid page.
func pageOf(ref uint64) (pagefile.PageID, error) {
	if ref > math.MaxUint32 {
		return 0, fmt.Errorf("treewalk: child reference %#x is not a page id: corrupt structure", ref)
	}
	return pagefile.PageID(ref), nil
}

// cycleError reports a walk that expanded more pages than the store
// holds. Every walk expands a page at most once (a strict tree, or a DAG
// walked with a visited set), so exceeding the page count proves a
// reference cycle — fail instead of looping forever.
func cycleError(pages int) error {
	return fmt.Errorf("treewalk: traversal visited more pages than exist (%d): reference cycle in corrupt structure", pages)
}
