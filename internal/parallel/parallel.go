// Package parallel provides the small worker-pool primitives shared by
// the pipeline's hot stages (curve construction, record materialization,
// STR bulk loading). The contract everywhere is the same: work item i
// writes only to slot i of a pre-sized output, so any worker count —
// including 1 — produces bit-identical results; parallelism changes wall
// clock, never output.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a Parallelism knob against a work-item count: p <= 0
// selects GOMAXPROCS (the "use the machine" default), and the result is
// clamped to n so a tiny input never spawns idle goroutines. Pass n < 0
// when the item count is unknown.
func Workers(p, n int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if n >= 0 && p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// ForEach invokes fn(i) for every i in [0, n) across the given number of
// workers (resolved via Workers). Items are handed out through an atomic
// counter, so uneven per-item costs — long-lived objects next to
// single-instant ones — balance dynamically. fn must be safe for
// concurrent invocation and must write only to data owned by item i.
// With one worker (or one item) everything runs on the calling
// goroutine, making the serial path literally the same code.
func ForEach(n, workers int, fn func(i int)) {
	ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach for callers that keep per-worker state (a
// buffer pool, a decode cache, a scratch arena): fn additionally receives
// the worker index w in [0, resolved workers), and every invocation with
// the same w runs on the same goroutine. The item-claiming discipline is
// unchanged — an atomic counter hands out items dynamically, and item i
// must write only to data owned by item i, so results are bit-identical
// for every worker count.
func ForEachWorker(n, workers int, fn func(w, i int)) {
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
