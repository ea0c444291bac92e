package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"
)

// series is one timing metric across the rounds of a run. The run
// reports the median of rounds; the rounds and their quartiles are kept
// beside it so a reader can see how tight the median is.
type series struct {
	Rounds []float64 `json:"rounds"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

func newSeries(rounds []float64) series {
	s := series{Rounds: rounds}
	sorted := append([]float64(nil), rounds...)
	sort.Float64s(sorted)
	s.Q1, s.Median, s.Q3 = quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sorted, 0.75)
	return s
}

// quantile interpolates linearly between the order statistics of an
// ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// medianUS is the exact median of latency samples, in microseconds.
func medianUS(samples []int64) float64 {
	return quantileUS(samples, 0.5)
}

// quantileUS sorts a copy of nanosecond samples and returns the exact
// q-quantile (nearest rank) in microseconds.
func quantileUS(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / 1e3
}

// withGCOff runs fn with the generator's collector disabled and collects
// before and after it, so no round pays for garbage of an earlier one.
// The rounds preallocate what they need; what little they allocate stays
// far below anything the heap limit would notice.
func withGCOff(fn func()) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	fn()
	debug.SetGCPercent(old)
	runtime.GC()
}

// queryRound is the outcome of one closed-loop replay of a query list.
type queryRound struct {
	wall     time.Duration
	latency  []int64 // ns per query, indexed like the list
	io       int64   // sum of the responses' "io" fields
	bytes    int64   // sum of the response body lengths
	failed   int
	firstErr error
}

// replayQueries runs the list once, closed loop, over the given
// connections: client c owns queries c, c+C, c+2C, ... and sends its next
// request only when the previous answer has been read in full. A request
// fails on a transport error, a non-200 status or a count that differs
// from the oracle's; with verify set (the untimed warm-up pass) every
// body is decoded in full and compared with the oracle's answer instead.
// A tracer (the serial traced replay: one connection) gets a root span
// per request.
func replayQueries(conns []*conn, qs []benchQuery, latency []int64, verify bool, tr *tracer) queryRound {
	res := queryRound{latency: latency[:len(qs)]}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var io, nbytes int64
			var failed int
			var firstErr error
			<-start
			for i := c; i < len(qs); i += len(conns) {
				start := tr.begin()
				t0 := time.Now()
				status, body, err := conns[c].do(qs[i].req)
				res.latency[i] = int64(time.Since(t0))
				tr.record("client.query", start)
				if err == nil && status != 200 {
					err = fmt.Errorf("%s: status %d: %s", qs[i].path, status, body)
				}
				if err == nil {
					err = checkBody(&qs[i], body, verify)
				}
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				n, _ := intField(body, `"io":`, true)
				io += n
				nbytes += int64(len(body))
			}
			mu.Lock()
			res.io += io
			res.bytes += nbytes
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	res.wall = time.Since(t0)
	return res
}

// checkBody compares one /query body with the oracle's answer: by its
// count field alone on the timed path, entry by entry with full set.
func checkBody(q *benchQuery, body []byte, full bool) error {
	want := q.expect.count(q.q.Kind)
	if !full {
		if n, ok := intField(body, `"count":`, false); !ok || int(n) != want {
			return fmt.Errorf("%s: count %d, oracle says %d", q.path, n, want)
		}
		return nil
	}
	got, err := parseAnswer(body)
	if err != nil {
		return fmt.Errorf("%s: %w", q.path, err)
	}
	if !q.expect.matches(q.q.Kind, got) {
		return fmt.Errorf("%s: answer differs from the oracle's (%d entries, oracle has %d)", q.path, got.count(q.q.Kind), want)
	}
	return nil
}
