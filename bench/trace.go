package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (-1 for the root).
type span struct {
	Name   string
	Req    int64
	Parent int
	Start  int64 // ns since the tracer started
	End    int64
	Self   int64 // End-Start minus the part its children cover
}

// tracer collects spans in memory; they are written out when the run
// ends. It is recorded from the benchmark's own wrappers only, around
// calls into each layer's public functions. The traced replay is serial
// by construction — one client, one service worker, shard fan-out 1 — so
// at any moment at most one request is in flight and req names it; that
// is what lets a store read three layers below the HTTP handler be
// attributed to its request without threading anything through the
// program. A nil tracer records nothing.
type tracer struct {
	t0  time.Time
	on  atomic.Bool
	req atomic.Int64
	seq atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable switches recording on or off (off during warm-up passes).
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// begin opens a new request and returns the start of its root span.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	t.req.Store(t.seq.Add(1))
	return t.now()
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// record closes a span of the request in flight that started at start.
func (t *tracer) record(name string, start int64) {
	if t == nil || !t.on.Load() {
		return
	}
	end := int64(time.Since(t.t0))
	req := t.req.Load()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: -1, Start: start, End: end})
	t.mu.Unlock()
}

// since records a span that started at start and returns its length in
// seconds.
func (t *tracer) since(name string, start int64) float64 {
	t.record(name, start)
	return float64(t.now()-start) / 1e9
}

// finish links every span to its parent — the innermost span of the same
// request whose interval contains it — and computes self times: a span's
// duration minus the part of it its children cover (children of a
// fanned-out parent may overlap, so the union is taken, not the sum).
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Req != y.Req {
			return x.Req < y.Req
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	children := make(map[int][]int)
	var stack []int
	for _, i := range order {
		s := &spans[i]
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.Req == s.Req && top.Start <= s.Start && s.End <= top.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		s.Parent = -1
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1]
			children[s.Parent] = append(children[s.Parent], i)
		}
		stack = append(stack, i)
	}
	for i := range spans {
		covered, edge := int64(0), spans[i].Start
		for _, c := range children[i] { // already in start order
			lo, hi := spans[c].Start, spans[c].End
			if lo < edge {
				lo = edge
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		spans[i].Self = spans[i].End - spans[i].Start - covered
	}
	return spans
}

// layerStats aggregates finished spans by name.
type layerStats struct {
	count int
	total int64 // sum of durations
	self  int64 // sum of self times
	durs  []int64
}

func aggregate(spans []span) map[string]*layerStats {
	out := make(map[string]*layerStats)
	for _, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		ls.count++
		ls.total += s.End - s.Start
		ls.self += s.Self
		ls.durs = append(ls.durs, s.End-s.Start)
	}
	return out
}

// selfUS is the layer's summed self time per request, in microseconds.
func selfUS(stats map[string]*layerStats, name string, requests int) float64 {
	ls := stats[name]
	if ls == nil || requests == 0 {
		return 0
	}
	return float64(ls.self) / 1e3 / float64(requests)
}

// traceFile is what bench/out/trace-<workload>.json holds: a name table
// and one row per span, [name index, request, parent row or -1, start ns,
// end ns, self ns], in recording order.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Names    []string   `json:"names"`
	Columns  []string   `json:"columns"`
	Spans    [][6]int64 `json:"spans"`
}

func newTraceFile(workload string, seed int64, spans []span) traceFile {
	tf := traceFile{
		Workload: workload, Seed: seed,
		Columns: []string{"name", "request", "parent", "start_ns", "end_ns", "self_ns"},
		Spans:   make([][6]int64, len(spans)),
	}
	index := make(map[string]int64)
	for i, s := range spans {
		n, ok := index[s.Name]
		if !ok {
			n = int64(len(tf.Names))
			index[s.Name] = n
			tf.Names = append(tf.Names, s.Name)
		}
		tf.Spans[i] = [6]int64{n, s.Req, int64(s.Parent), s.Start, s.End, s.Self}
	}
	return tf
}

// rootSelfGap is the worst relative difference, over all requests,
// between a root span's duration and the sum of the self times of the
// spans under it. It is 0 when every span nests inside its request's
// root, which the acceptance test bounds at a tenth.
func rootSelfGap(spans []span) float64 {
	rootOf := func(i int) int {
		for spans[i].Parent >= 0 {
			i = spans[i].Parent
		}
		return i
	}
	sum := make(map[int]int64)
	for i := range spans {
		sum[rootOf(i)] += spans[i].Self
	}
	worst := 0.0
	for root, self := range sum {
		dur := spans[root].End - spans[root].Start
		if dur <= 0 {
			continue
		}
		gap := float64(dur-self) / float64(dur)
		if gap < 0 {
			gap = -gap
		}
		if gap > worst {
			worst = gap
		}
	}
	return worst
}
