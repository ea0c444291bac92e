package alloc

import "slices"

// LAGreedy is the look-ahead-2 greedy algorithm of §III-B.3 (figure 10).
func LAGreedy(c *Curves, budget int) Assignment {
	return LAGreedyDepth(c, budget, 2)
}

// LAGreedyDepth generalises LAGreedy to an arbitrary look-ahead depth d:
// after the plain greedy pass it repeatedly finds the d objects whose last
// splits gained the least and a distinct object that would gain more from d
// extra splits than those d last splits gained combined, and reassigns the
// splits. Depth 2 is the paper's algorithm; depth 1 degenerates to a no-op
// refinement of Greedy. The refinement loop strictly decreases total volume
// at every swap, so it terminates.
func LAGreedyDepth(c *Curves, budget, depth int) Assignment {
	if depth < 1 {
		depth = 1
	}
	splits := make([]int, c.NumObjects())
	greedyInto(c, budget, splits)

	last := newGainHeap(false, c.NumObjects()) // PQ_la1: min by last-split gain
	ahead := newGainHeap(true, c.NumObjects()) // PQ_la2: max by depth-extra gain
	for i, s := range splits {
		if s > 0 {
			last.h = append(last.h, gainEntry{obj: i, splits: s, gain: c.Gain(i, s-1)})
		}
		if s+depth <= c.MaxSplits(i) {
			ahead.h = append(ahead.h, gainEntry{obj: i, splits: s, gain: c.Volume(i, s) - c.Volume(i, s+depth)})
		}
	}
	last.Init()
	ahead.Init()

	donors := make([]gainEntry, 0, depth)
	var skipped []gainEntry
	for {
		// Pop the depth objects with the cheapest last splits.
		donors = donors[:0]
		for len(donors) < depth && last.Len() > 0 {
			e := last.Pop()
			if e.splits != splits[e.obj] || e.splits == 0 {
				continue // stale
			}
			donors = append(donors, e)
		}
		if len(donors) < depth {
			pushBack(&last, donors)
			break
		}
		donorGain := 0.0
		for _, d := range donors {
			donorGain += d.gain
		}

		// Pop the best distinct look-ahead candidate.
		var recv gainEntry
		found := false
		skipped = skipped[:0]
		for ahead.Len() > 0 {
			e := ahead.Pop()
			if e.splits != splits[e.obj] || e.splits+depth > c.MaxSplits(e.obj) {
				continue // stale
			}
			if slices.ContainsFunc(donors, func(d gainEntry) bool { return d.obj == e.obj }) {
				skipped = append(skipped, e)
				continue
			}
			recv = e
			found = true
			break
		}
		pushBack(&ahead, skipped)
		if !found || recv.gain <= donorGain {
			pushBack(&last, donors)
			if found {
				ahead.Push(recv)
			}
			break
		}

		// Reassign: every donor loses its last split, the receiver gains depth.
		for _, d := range donors {
			splits[d.obj]--
			refresh(c, &last, &ahead, d.obj, splits[d.obj], depth)
		}
		splits[recv.obj] += depth
		refresh(c, &last, &ahead, recv.obj, splits[recv.obj], depth)
	}

	return Assignment{Splits: splits, Volume: volumeOf(c, splits)}
}

// refresh pushes up-to-date heap entries for an object whose split count
// just changed to s. Stale entries are discarded lazily on pop.
func refresh(c *Curves, last, ahead *gainHeap, obj, s, depth int) {
	if s > 0 {
		last.Push(gainEntry{obj: obj, splits: s, gain: c.Gain(obj, s-1)})
	}
	if s+depth <= c.MaxSplits(obj) {
		ahead.Push(gainEntry{obj: obj, splits: s, gain: c.Volume(obj, s) - c.Volume(obj, s+depth)})
	}
}

// pushBack returns popped entries to their heap, in order.
func pushBack(h *gainHeap, entries []gainEntry) {
	for _, e := range entries {
		h.Push(e)
	}
}
