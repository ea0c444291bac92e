// Package service is the concurrent query-serving layer over built or
// opened spatiotemporal indexes: a refcounted snapshot registry with
// atomic hot-swap, a pool of per-worker query sessions (private buffer
// pools and decode caches over shared frozen page stores), and a bounded
// admission queue with deadlines and built-in metrics. cmd/stserve exposes it over HTTP/JSON; embedders use
// New / Registry / Session directly.
//
// The design leans on two guarantees from the layers below: a frozen
// pagefile.Store is safe for any number of concurrent readers each
// owning a private Buffer (the PR 2 QueryView machinery), and CloseIndex
// is idempotent — so the registry can retire a snapshot while queries
// drain and close it exactly when the last lease releases.
package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	stx "stindex"
)

// Exported admission errors.
var (
	// ErrQueueFull is returned in reject mode when the admission queue
	// has no room (HTTP maps it to 503).
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrClosed is returned once Close has begun; queued requests still
	// drain.
	ErrClosed = errors.New("service: closed")
)

// Config sizes the service. The zero value serves with GOMAXPROCS
// workers, a 64-slot queue, no default deadline, blocking admission.
type Config struct {
	// Workers is the session-pool size: that many queries execute truly
	// concurrently, each on its own view. 0 = GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue (requests accepted but not
	// yet executing). 0 = 64.
	QueueDepth int
	// DefaultTimeout bounds every request that arrives without its own
	// deadline. 0 = no default deadline.
	DefaultTimeout time.Duration
	// RejectWhenFull makes admission non-blocking: a full queue fails
	// fast with ErrQueueFull instead of waiting for room until the
	// context expires. This is the load-shedding policy a front end
	// usually wants; the default (blocking) gives natural backpressure
	// to in-process callers.
	RejectWhenFull bool
	// CacheMB is the registry's budget for decoded nodes shared across
	// sessions, in mebibytes (see RegistryConfig.CacheBytes). 0 disables
	// the shared cache.
	CacheMB int
	// OpenBackend is the container read flavour for snapshots loaded
	// through the registry: the lazy window (the zero value) or mmap.
	OpenBackend stx.Backend
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// Service is the concurrent query engine: requests enter a bounded
// queue, workers (each owning a Session) execute them against registry
// snapshots, metrics account every outcome. Create with New, serve with
// Query, shut down with Close (graceful: queued requests drain).
type Service struct {
	cfg     Config
	reg     *Registry
	reqCh   chan *request
	metrics serviceMetrics

	mu     sync.RWMutex // guards closed and the send into reqCh
	closed bool
	wg     sync.WaitGroup

	// ingestStats, when set, contributes the live-ingestion pipeline's
	// counters to Metrics (holds a func() *IngestStats).
	ingestStats atomic.Value
}

type request struct {
	ctx      context.Context
	snapshot string
	q        stx.Query
	enqueued time.Time
	done     chan response // buffered(1): workers never block on it
}

type response struct {
	res Result
	err error
}

// New creates a service with its own empty registry and starts the
// worker pool.
func New(cfg Config) *Service {
	s := &Service{
		cfg:     cfg.withDefaults(),
		metrics: serviceMetrics{start: time.Now()},
	}
	s.reg = NewRegistryConfig(RegistryConfig{
		CacheBytes:  int64(s.cfg.CacheMB) << 20,
		OpenBackend: s.cfg.OpenBackend,
	})
	s.reqCh = make(chan *request, s.cfg.QueueDepth)
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Registry returns the service's snapshot registry; load, hot-swap and
// drop snapshots through it at any time, including while serving.
func (s *Service) Registry() *Registry { return s.reg }

// Query submits one query against the named snapshot and waits for its
// answer. Admission: if the queue is full, Query blocks for room (or
// fails fast with ErrQueueFull when Config.RejectWhenFull is set).
// Config.DefaultTimeout applies when ctx carries no deadline; a context
// that expires while the request is queued or executing makes Query
// return the context's error (the execution result, if any, is
// discarded).
func (s *Service) Query(ctx context.Context, snapshot string, q stx.Query) (Result, error) {
	if s.cfg.DefaultTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
			defer cancel()
		}
	}
	r := &request{
		ctx:      ctx,
		snapshot: snapshot,
		q:        q,
		enqueued: time.Now(),
		done:     make(chan response, 1),
	}

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Result{}, ErrClosed
	}
	if s.cfg.RejectWhenFull {
		select {
		case s.reqCh <- r:
			s.mu.RUnlock()
		default:
			s.mu.RUnlock()
			s.metrics.rejected.Add(1)
			return Result{}, ErrQueueFull
		}
	} else {
		select {
		case s.reqCh <- r:
			s.mu.RUnlock()
		case <-ctx.Done():
			s.mu.RUnlock()
			s.metrics.timedOut.Add(1)
			return Result{}, ctx.Err()
		}
	}

	select {
	case resp := <-r.done:
		if resp.err != nil && (errors.Is(resp.err, context.Canceled) || errors.Is(resp.err, context.DeadlineExceeded)) {
			s.metrics.timedOut.Add(1)
		}
		return resp.res, resp.err
	case <-ctx.Done():
		// The request is still queued or executing; the worker's answer
		// (sent into the buffered channel) is discarded.
		s.metrics.timedOut.Add(1)
		return Result{}, ctx.Err()
	}
}

// QueueDepth returns the number of requests currently queued (admitted,
// not yet picked up by a worker).
func (s *Service) QueueDepth() int { return len(s.reqCh) }

// Metrics returns a point-in-time snapshot of the serving counters,
// including per-snapshot registry statistics.
func (s *Service) Metrics() Metrics {
	m := s.metrics.snapshot()
	m.Workers = s.cfg.Workers
	m.QueueDepth = len(s.reqCh)
	m.QueueCapacity = s.cfg.QueueDepth
	m.Cache = s.reg.Cache().Stats()
	m.Snapshots = s.reg.List()
	if fn, ok := s.ingestStats.Load().(func() *IngestStats); ok && fn != nil {
		m.Ingest = fn()
	}
	return m
}

// SetIngestStats registers the live-ingestion pipeline's stats source;
// Metrics calls it on every snapshot. Pass the Ingester's Stats adapter
// once at startup.
func (s *Service) SetIngestStats(fn func() *IngestStats) {
	s.ingestStats.Store(fn)
}

// Close drains the service gracefully: new queries fail with ErrClosed
// immediately, already-queued requests are still executed, and the
// registry's snapshots are dropped (closing their containers once every
// lease releases). Safe to call more than once.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	close(s.reqCh)
	s.mu.Unlock()
	s.wg.Wait()
	return s.reg.Close()
}

// worker is one session-pool goroutine: it owns a Session (private
// views), pulls requests and answers each under its own lease.
func (s *Service) worker() {
	defer s.wg.Done()
	sess := NewSession(s.reg)
	for r := range s.reqCh {
		res, err := sess.Query(r.ctx, r.snapshot, r.q)
		s.answer(r, res, err)
	}
}

// answer completes one request: sends the response (never blocking — the
// done channel is buffered and the client may be gone) and accounts it.
func (s *Service) answer(r *request, res Result, err error) {
	switch {
	case err == nil:
		s.metrics.completed.Add(1)
		s.metrics.latency.Record(time.Since(r.enqueued))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Counted as timed-out by the waiting client side.
	default:
		s.metrics.failed.Add(1)
	}
	r.done <- response{res: res, err: err}
}
