package experiments

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"time"

	stx "stindex"

	"stindex/internal/datagen"
	"stindex/internal/service"
)

// ServeRow records the serving throughput of one configuration: a saved
// container opened in one read flavour, queried through the concurrent
// service at one worker count, queue depth and shared-cache budget.
type ServeRow struct {
	Size int
	// Backend is the container read flavour the registry opened the
	// snapshot with: mem (eager), disk (lazy pread window), mmap.
	Backend string
	// CacheMB is the registry's shared decoded-node budget (0 = disabled).
	CacheMB int
	Workers int
	Queue   int
	Clients int
	Queries int
	// QPS is completed queries per wall-clock second of the run.
	QPS float64
	// P50US/P99US are latency percentile upper bounds in microseconds
	// (enqueue to answer, power-of-two buckets).
	P50US int64
	P99US int64
	// HitRate is the fraction of page requests served without a store
	// read, 1 - store reads / buffer lookups; with no shared cache there
	// is no store-read counter and it is the buffer pool's own rate (every
	// pool miss reads the store then, so the two agree).
	HitRate float64
	// SharedHitRate is the fraction of buffer-pool misses answered by a
	// node another session's view published.
	SharedHitRate float64
}

// Serve measures the concurrent query service in two sweeps over one
// saved container: the service shape (worker count and queue depth on
// the lazy disk flavour, no shared cache) and the serving hot
// path (mem/disk/mmap open flavours crossed with shared-cache budgets at
// a fixed service shape). Unlike the paper's cold-buffer discipline, the
// serving path keeps session buffers warm. With a budget a page is read
// and decoded once per view at most, or not at all when another view
// published its node (the shared-hit column); without one every miss of
// a session's pool reads the store, and only a decode miss expands the
// page into its image.
func Serve(cfg Config) ([]ServeRow, error) {
	cfg = cfg.withDefaults()
	n := cfg.Sizes[len(cfg.Sizes)-1]
	cfg.printf("Serving — stserve engine throughput, %d objects (150%% splits), warm buffers\n", n)
	cfg.printf("%8s %8s %8s %8s | %10s %8s %8s %9s %10s\n",
		"backend", "cache", "workers", "queue", "qps", "p50µs", "p99µs", "hit-rate", "shared-hit")

	dir, err := os.MkdirTemp("", "stindex-serve")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	objs, err := cfg.randomDataset(n)
	if err != nil {
		return nil, err
	}
	records := lagreedyRecords(objs, n*3/2, cfg.Parallelism)
	qs, err := cfg.queries(datagen.SnapshotMixed)
	if err != nil {
		return nil, err
	}
	queries := toQueries(qs)

	built, err := stx.BuildPPR(records, stx.PPROptions{Backend: stx.BackendMemory})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "serve.sti")
	if err := stx.SaveIndex(path, built); err != nil {
		return nil, err
	}

	const clients = 8
	var rows []ServeRow
	emit := func(backend stx.Backend, cacheMB, workers, queue int) error {
		row, err := serveOnce(path, backend, cacheMB, n, workers, queue, clients, queries)
		if err != nil {
			return err
		}
		rows = append(rows, row)
		cfg.printf("%8s %7dM %8d %8d | %10.0f %8d %8d %9.3f %10.3f\n",
			row.Backend, row.CacheMB, row.Workers, row.Queue,
			row.QPS, row.P50US, row.P99US, row.HitRate, row.SharedHitRate)
		return nil
	}

	// Sweep 1 — service shape on the lazy disk flavour, no shared cache.
	for _, conf := range []struct{ workers, queue int }{
		{1, 64},
		{2, 64},
		{4, 64},
		{8, 64},
		{4, 16},
		{4, 256},
	} {
		if err := emit(stx.BackendDisk, 0, conf.workers, conf.queue); err != nil {
			return nil, err
		}
	}
	// Sweep 2 — the serving hot path: open flavour x shared-cache budget
	// at a fixed service shape.
	for _, backend := range []stx.Backend{stx.BackendMemory, stx.BackendDisk, stx.BackendMmap} {
		for _, cacheMB := range []int{0, 8, 64} {
			if err := emit(backend, cacheMB, 4, 64); err != nil {
				return nil, err
			}
		}
	}
	cfg.printf("\n")
	return rows, nil
}

// serveOnce runs the full query set from a fixed client fleet against a
// freshly opened container and reports the service's own metrics.
func serveOnce(path string, backend stx.Backend, cacheMB, size, workers, queue, clients int, queries []stx.Query) (ServeRow, error) {
	svc := service.New(service.Config{
		Workers:     workers,
		QueueDepth:  queue,
		CacheMB:     cacheMB,
		OpenBackend: backend,
	})
	if _, err := svc.Registry().Load("bench", path); err != nil {
		svc.Close()
		return ServeRow{}, err
	}

	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Stagger starting offsets so clients do not move in lockstep.
			off := c * len(queries) / clients
			for i := range queries {
				q := queries[(off+i)%len(queries)]
				if _, err := svc.Query(context.Background(), "bench", q); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		svc.Close()
		return ServeRow{}, err
	}

	m := svc.Metrics()
	row := ServeRow{
		Size: size, Backend: string(backend), CacheMB: cacheMB,
		Workers: workers, Queue: queue,
		Clients: clients, Queries: int(m.Completed),
		QPS:   float64(m.Completed) / elapsed.Seconds(),
		P50US: m.P50US, P99US: m.P99US,
	}
	if len(m.Snapshots) == 1 {
		info := m.Snapshots[0]
		row.HitRate = info.HitRate
		if info.Reads > 0 {
			row.SharedHitRate = float64(info.SharedHits) / float64(info.Reads)
		}
	}
	if err := svc.Close(); err != nil {
		return ServeRow{}, err
	}
	return row, nil
}
