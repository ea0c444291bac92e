package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	stx "stindex"

	"stindex/internal/geom"
	"stindex/internal/ingest"
	"stindex/internal/pagefile"
	"stindex/internal/service"
)

// The seams of the traced replay. Each wrapper sits around one layer's
// public surface and records a span per call; none of them changes what
// the call does. Nothing outside bench/ is edited for tracing.

// timedIndex records a span around every query of an stx.Index — the
// seam between the service layer above and the tree (or the shard
// router, or the live view) below.
type timedIndex struct {
	stx.Index
	tr   *tracer
	name string
}

func (x *timedIndex) Snapshot(r stx.Rect, t int64) ([]int64, error) {
	defer x.tr.record(x.name, x.tr.now())
	return x.Index.Snapshot(r, t)
}

func (x *timedIndex) Range(r stx.Rect, iv stx.Interval) ([]int64, error) {
	defer x.tr.record(x.name, x.tr.now())
	return x.Index.Range(r, iv)
}

func (x *timedIndex) Nearest(px, py float64, t int64, k int) ([]stx.Neighbor, error) {
	defer x.tr.record(x.name, x.tr.now())
	return x.Index.Nearest(px, py, t, k)
}

func (x *timedIndex) Trajectory(r stx.Rect, iv stx.Interval) ([]stx.TrajectoryHit, error) {
	defer x.tr.record(x.name, x.tr.now())
	return x.Index.Trajectory(r, iv)
}

// QueryView keeps the registry handing each session its own view (with a
// private buffer pool), as it would for the undecorated index.
func (x *timedIndex) QueryView() stx.Index {
	if qv, ok := x.Index.(stx.QueryViewer); ok {
		return &timedIndex{Index: qv.QueryView(), tr: x.tr, name: x.name}
	}
	return x
}

func (x *timedIndex) Close() error { return stx.CloseIndex(x.Index) }

// timedStore records a span around every Store.ReadPage that reaches the
// container — below the buffer pool and the shared cache, so it times
// the positioned read (or the mapping) plus the page codec's decode.
type timedStore struct {
	pagefile.Store
	tr    *tracer
	reads *atomic.Int64
}

func (s *timedStore) ReadPage(id pagefile.PageID, dst []byte) error {
	start := s.tr.now()
	err := s.Store.ReadPage(id, dst)
	s.tr.record("pagefile.store_read", start)
	s.reads.Add(1)
	return err
}

// ReadOnly forwards the container's read-only flavour through the wrapper.
func (s *timedStore) ReadOnly() bool {
	ro, ok := s.Store.(interface{ ReadOnly() bool })
	return ok && ro.ReadOnly()
}

// timedHandler records a span around an http.Handler: the service layer
// as one request sees it (parse, admission, session, index, encode).
func timedHandler(tr *tracer, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := tr.now()
		next.ServeHTTP(w, r)
		tr.record(name, start)
	})
}

// timedFS is an ingest.FS over the real file system whose journal files
// record a span per Write and per Sync.
type timedFS struct{ tr *tracer }

func (fs timedFS) OpenAppend(path string) (ingest.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &timedFile{f: f, tr: fs.tr}, nil
}

func (timedFS) Remove(path string) error { return os.Remove(path) }

func (timedFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

type timedFile struct {
	f  *os.File
	tr *tracer
}

func (f *timedFile) Write(p []byte) (int, error) {
	defer f.tr.record("ingest.wal_write", f.tr.now())
	return f.f.Write(p)
}

func (f *timedFile) Sync() error {
	defer f.tr.record("ingest.wal_sync", f.tr.now())
	return f.f.Sync()
}

func (f *timedFile) Close() error { return f.f.Close() }

// submitHandler is POST /ingest for the traced replay: it decodes a
// concatenated-JSON batch the way internal/ingest's handler does, then
// calls Ingester.Submit inside a span — the one seam that handler does
// not offer from outside.
func submitHandler(tr *tracer, in *ingest.Ingester) http.Handler {
	type wireObs struct {
		ID    int64   `json:"id"`
		T     int64   `json:"t"`
		MinX  float64 `json:"minx"`
		MinY  float64 `json:"miny"`
		MaxX  float64 `json:"maxx"`
		MaxY  float64 `json:"maxy"`
		Final bool    `json:"final"`
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var recs []ingest.Record
		dec := json.NewDecoder(r.Body)
		for {
			var o wireObs
			if err := dec.Decode(&o); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			rec := ingest.Record{Kind: ingest.RecObserve, ObjectID: o.ID, T: o.T,
				Rect: geom.Rect{MinX: o.MinX, MinY: o.MinY, MaxX: o.MaxX, MaxY: o.MaxY}}
			if o.Final {
				rec = ingest.Record{Kind: ingest.RecFinish, ObjectID: o.ID, T: o.T}
			}
			recs = append(recs, rec)
		}
		start := tr.now()
		seq, err := in.Submit(recs)
		tr.record("ingest.submit", start)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"accepted":%d,"seq":%d}`+"\n", len(recs), seq)
	})
}

// liveProxy stands in the service's registry for the ingest pipeline's
// published view, which the pipeline installs and hot-swaps itself and
// which therefore cannot be decorated directly. The pipeline publishes
// into a private registry; every call here leases the current view from
// it and records a span around the query — named by whether the live
// index alone answers it or the frozen container takes part.
type liveProxy struct {
	reg *service.Registry
	tr  *tracer
}

func (p *liveProxy) with(start int64, fn func(stx.Index) error) error {
	lease, err := p.reg.Acquire(liveSnapshot)
	if err != nil {
		return err
	}
	defer lease.Release()
	view := lease.View()
	name := "ingest.live_only"
	if lv, ok := view.(*ingest.Live); ok && start < lv.Boundary() {
		name = "ingest.live_frozen"
	}
	t0 := p.tr.now()
	err = fn(view)
	p.tr.record(name, t0)
	return err
}

func (p *liveProxy) Snapshot(r stx.Rect, t int64) (ids []int64, err error) {
	err = p.with(t, func(v stx.Index) (e error) { ids, e = v.Snapshot(r, t); return })
	return
}

func (p *liveProxy) Range(r stx.Rect, iv stx.Interval) (ids []int64, err error) {
	err = p.with(iv.Start, func(v stx.Index) (e error) { ids, e = v.Range(r, iv); return })
	return
}

func (p *liveProxy) Nearest(x, y float64, t int64, k int) (nb []stx.Neighbor, err error) {
	err = p.with(t, func(v stx.Index) (e error) { nb, e = v.Nearest(x, y, t, k); return })
	return
}

func (p *liveProxy) Trajectory(r stx.Rect, iv stx.Interval) (hits []stx.TrajectoryHit, err error) {
	err = p.with(iv.Start, func(v stx.Index) (e error) { hits, e = v.Trajectory(r, iv); return })
	return
}

// view leases the current live view for a statistics call.
func (p *liveProxy) view(fn func(stx.Index)) {
	if lease, err := p.reg.Acquire(liveSnapshot); err == nil {
		fn(lease.View())
		lease.Release()
	}
}

func (p *liveProxy) ResetBuffer() { p.view(func(v stx.Index) { v.ResetBuffer() }) }
func (p *liveProxy) IOStats() (st stx.IOStats) {
	p.view(func(v stx.Index) { st = v.IOStats() })
	return
}
func (p *liveProxy) Pages() (n int)       { p.view(func(v stx.Index) { n = v.Pages() }); return }
func (p *liveProxy) Bytes() (n int64)     { p.view(func(v stx.Index) { n = v.Bytes() }); return }
func (p *liveProxy) Records() (n int)     { p.view(func(v stx.Index) { n = v.Records() }); return }
func (p *liveProxy) Kind() string         { return "live" }
func (p *liveProxy) QueryView() stx.Index { return p }

// inproc is an in-process HTTP server on a loopback port: the traced
// replay keeps the real transport so client round trip minus handler
// span is a real number.
type inproc struct {
	srv  *http.Server
	addr string
	done chan error
}

func serveInproc(h http.Handler) (*inproc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &inproc{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { p.done <- p.srv.Serve(ln) }()
	return p, nil
}

func (p *inproc) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = p.srv.Shutdown(ctx)
	<-p.done
}
