package service

import (
	"context"

	stx "stindex"
)

// Session is one worker's private query state: for every snapshot it has
// served it caches a read-only view — a private LRU buffer pool over the
// snapshot's shared frozen store, beside the registry's shared decode
// cache or, with no cache budget, a private decoded-node cache — keyed by
// the snapshot's generation, so a hot-swap transparently invalidates the
// old view. Unlike the paper's cold-cache measurement discipline, a
// serving session keeps its buffer warm across queries; the per-snapshot
// buffer hit rate in /metrics comes from exactly these pools.
//
// A Session is NOT safe for concurrent use — it is the "one goroutine,
// one view" end of the pagefile concurrency contract. The Service owns
// one Session per worker; embedders doing their own scheduling can run
// one Session per goroutine directly against a shared Registry.
type Session struct {
	reg   *Registry
	views map[string]sessionView
}

type sessionView struct {
	gen  uint64
	view stx.Index
	// prev is the view's cumulative I/O counter at the end of the last
	// query; the difference across a query is that query's traffic.
	prev stx.IOStats
}

// NewSession creates a session over the registry.
func NewSession(reg *Registry) *Session {
	return &Session{reg: reg, views: make(map[string]sessionView)}
}

// Result is one served query's outcome.
type Result struct {
	// Kind echoes the query kind that produced this result; it selects
	// which of the payload slices below is meaningful.
	Kind stx.QueryKind
	// IDs are the matching object ids (de-duplicated, discovery order).
	// Populated for every kind: kNN and trajectory answers carry their
	// ids here too, in answer order.
	IDs []int64
	// Neighbors is the ranked kNN answer (Kind == stx.KindKNN only).
	Neighbors []stx.Neighbor
	// Trajectories is the per-object piece-count answer
	// (Kind == stx.KindTrajectory only).
	Trajectories []stx.TrajectoryHit
	// IO is the number of disk accesses this query cost through the
	// session's warm buffer pool. On a live name the live tail's pool is
	// shared with the ingest writer and other sessions, but IO counts
	// only this query's own misses in it.
	IO int64
	// Snapshot and Gen identify which snapshot (and which generation of
	// it, across hot-swaps) answered.
	Snapshot string
	Gen      uint64
}

// Query leases the named snapshot, runs q on this session's view of it,
// and releases the lease. The context is checked before execution; the
// tree walk itself is not interruptible (queries are short).
func (s *Session) Query(ctx context.Context, snapshot string, q stx.Query) (Result, error) {
	lease, err := s.reg.Acquire(snapshot)
	if err != nil {
		return Result{}, err
	}
	defer lease.Release()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	snap := lease.Snapshot()
	sv, ok := s.views[snap.name]
	if !ok || sv.gen != snap.gen {
		// First visit, or the snapshot was hot-swapped: build a fresh
		// view over the new generation. The old view (if any) held no
		// resources beyond its buffers; dropping the reference is enough.
		sv = sessionView{gen: snap.gen, view: lease.View()}
		sv.prev = sv.view.IOStats()
	}
	qr, err := stx.RunQueryResult(sv.view, q)
	after := sv.view.IOStats()
	delta := after.Sub(sv.prev)
	sv.prev = after
	s.views[snap.name] = sv
	snap.recordQuery(delta)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Kind:         q.Kind,
		IDs:          qr.IDs,
		Neighbors:    qr.Neighbors,
		Trajectories: qr.Trajectories,
		IO:           delta.IO(),
		Snapshot:     snap.name,
		Gen:          snap.gen,
	}, nil
}
