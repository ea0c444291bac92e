package alloc

// gainEntry is a heap entry: assigning the next split to object obj
// (which currently has splits splits) gains gain in volume. Entries are
// lazily invalidated: on pop, an entry whose recorded splits no longer
// match the live assignment is discarded.
type gainEntry struct {
	obj    int
	splits int
	gain   float64
}

// gainHeap is a priority queue of entries by gain: greatest first when
// maxFirst is set, least first otherwise. It performs exactly
// container/heap's sift sequence (Init, Push, Pop over a Less of "gain >" or "gain <"), so
// entries of equal gain pop in the order container/heap pops them and no
// assignment moves; a sift carries its element in a local and moves the
// hole, which compares the same pairs and leaves the same layout, and no
// entry is boxed in an interface.
type gainHeap struct {
	h        []gainEntry
	maxFirst bool
}

func newGainHeap(maxFirst bool, capacity int) gainHeap {
	return gainHeap{h: make([]gainEntry, 0, capacity), maxFirst: maxFirst}
}

// less is container/heap's Less: whether gain a goes before gain b.
func (q *gainHeap) less(a, b float64) bool {
	if q.maxFirst {
		return a > b
	}
	return a < b
}

func (q *gainHeap) Len() int { return len(q.h) }

// Init orders the entries appended to q.h since the last Init, Push or Pop.
func (q *gainHeap) Init() {
	n := len(q.h)
	for i := n/2 - 1; i >= 0; i-- {
		q.down(i, n, q.h[i])
	}
}

func (q *gainHeap) Push(e gainEntry) {
	q.h = append(q.h, e)
	h := q.h
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !q.less(e.gain, h[i].gain) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = e
}

func (q *gainHeap) Pop() gainEntry {
	h := q.h
	n := len(h) - 1
	e := h[0]
	if n > 0 {
		q.down(0, n, h[n])
	}
	q.h = h[:n]
	return e
}

// down sifts x down from the hole at i within h[:n].
func (q *gainHeap) down(i, n int, x gainEntry) {
	h := q.h[:n]
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.less(h[j2].gain, h[j].gain) {
			j = j2
		}
		if !q.less(h[j].gain, x.gain) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}

// Greedy distributes the budget one split at a time, always to the object
// whose next split yields the largest volume reduction (paper §III-B.2,
// figure 9). O((N+K) log N) given precomputed curves. Splits that can gain
// nothing (all curves exhausted) are left unassigned.
func Greedy(c *Curves, budget int) Assignment {
	splits := make([]int, c.NumObjects())
	greedyInto(c, budget, splits)
	return Assignment{Splits: splits, Volume: volumeOf(c, splits)}
}

// greedyInto runs the greedy allocation starting from (and mutating) the
// given split vector. Used by Greedy and as phase one of LAGreedy.
func greedyInto(c *Curves, budget int, splits []int) {
	h := newGainHeap(true, c.NumObjects())
	for i := range splits {
		if splits[i] < c.MaxSplits(i) {
			h.h = append(h.h, gainEntry{obj: i, splits: splits[i], gain: c.Gain(i, splits[i])})
		}
	}
	h.Init()
	for assigned := 0; assigned < budget && h.Len() > 0; {
		e := h.Pop()
		if e.splits != splits[e.obj] {
			continue // stale
		}
		splits[e.obj]++
		assigned++
		if s := splits[e.obj]; s < c.MaxSplits(e.obj) {
			h.Push(gainEntry{obj: e.obj, splits: s, gain: c.Gain(e.obj, s)})
		}
	}
}
