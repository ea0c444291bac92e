// Command stserve serves spatiotemporal queries over HTTP/JSON from
// saved index containers: a snapshot registry with atomic hot-swap, a
// session pool of per-worker query views, a bounded admission queue and
// built-in metrics.
//
// Usage:
//
//	stserve -load default=index.sti
//	stserve -listen :8080 -load fleet=fleet.sti -load rail=rail.sti -workers 8
//	stserve -load default=index.sti -queue 128 -reject -timeout 500ms
//	stserve -load default=index.sti -backend mmap -cache-mb 256
//
// Endpoints (see internal/service.NewHandler):
//
//	GET  /query?rect=minx,miny,maxx,maxy&t=5         snapshot query
//	GET  /query?rect=...&from=0&to=100               range query
//	POST /query            {"snapshot","rect":[...],"t"} or {"rect","from","to"}
//	GET  /snapshots        list registered snapshots
//	POST /snapshots/load   {"name","path"}  load or hot-swap a container
//	POST /snapshots/drop   {"name"}
//	GET  /metrics          QPS, latency percentiles, hit rates, queue depth
//	GET  /healthz
//	GET  /debug/pprof/     runtime profiles (net/http/pprof)
//
// With -ingest NAME the server additionally runs the live ingestion
// pipeline (see internal/ingest): a WAL-backed ingest endpoint whose
// accepted observations are queryable under NAME immediately, a
// background freezer that periodically publishes the live index as a
// compressed container with zero downtime, and crash recovery that
// replays the journal on startup:
//
//	POST /ingest           one observation, a JSON array, or a
//	                       concatenated-JSON feed (atomic batch)
//	POST /ingest/finish    {"t":T} ends all live objects; {"id":I,"t":T} one
//	POST /ingest/freeze    force a snapshot + journal truncation
//
// Containers are saved with compressed pages, which stay compressed at
// rest and decode once per page at the cache boundary. Identity
// containers written by older builds still load: the codec is recorded
// in the container header and autodetected at open, so a registry can
// serve both side by side.
//
// SIGINT/SIGTERM drain gracefully: in-flight and queued queries finish,
// the ingestion pipeline freezes one last time, then the containers
// close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	stx "stindex"

	"stindex/internal/ingest"
	"stindex/internal/service"
)

// loadFlags collects repeatable -load name=path pairs in order.
type loadFlags []struct{ name, path string }

func (l *loadFlags) String() string { return fmt.Sprintf("%d snapshots", len(*l)) }

func (l *loadFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*l = append(*l, struct{ name, path string }{name, path})
	return nil
}

func main() {
	var loads loadFlags
	var (
		listen  = flag.String("listen", ":8080", "HTTP listen address")
		workers = flag.Int("workers", 0, "session-pool size: concurrently executing queries (0 = all cores)")
		queue   = flag.Int("queue", 0, "admission queue depth (0 = 64)")
		timeout = flag.Duration("timeout", 0, "default per-query deadline for requests without one (0 = none)")
		reject  = flag.Bool("reject", false, "fail fast with 503 when the queue is full instead of blocking")
		drain   = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight requests")
		cacheMB = flag.Int("cache-mb", 0, "budget in MiB for decoded nodes shared across sessions and snapshots (0 = no shared cache)")
		backend = flag.String("backend", "disk", "container read flavour: disk (lazy pread) or mmap")

		ingestName     = flag.String("ingest", "", "serve a live ingestion pipeline under this snapshot name")
		ingestDir      = flag.String("ingest-dir", "", "journal directory for -ingest (WAL segments, freezes, CURRENT)")
		ingestLambda   = flag.Float64("ingest-lambda", 0.01, "online split penalty for a fresh ingested stream (a recovered journal keeps its own)")
		ingestQueue    = flag.Int("ingest-queue", 0, "ingest admission queue depth in batches (0 = 64); a full queue answers 503")
		freezeEvery    = flag.Int("freeze-every", 0, "freeze after this many accepted records (0 = only by interval or on demand)")
		freezeInterval = flag.Duration("freeze-interval", 0, "freeze on this wall-clock period (0 = off)")
		walSegmentKB   = flag.Int("wal-segment-kb", 0, "WAL segment rotation size in KiB (0 = 4096)")
	)
	flag.Var(&loads, "load", "snapshot to serve, as name=container-path (repeatable)")
	flag.Parse()
	if len(loads) == 0 && *ingestName == "" {
		fatal(errors.New("provide at least one -load name=path or -ingest name"))
	}
	if *ingestName != "" && *ingestDir == "" {
		fatal(errors.New("-ingest requires -ingest-dir"))
	}

	if err := stx.Backend(*backend).Check(); err != nil {
		fatal(fmt.Errorf("-backend: %w", err))
	}

	svc := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		RejectWhenFull: *reject,
		CacheMB:        *cacheMB,
		OpenBackend:    stx.Backend(*backend),
	})
	for _, l := range loads {
		snap, err := svc.Registry().Load(l.name, l.path)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "stserve: loaded %q from %s (gen %d)\n", snap.Name(), l.path, snap.Gen())
	}

	var in *ingest.Ingester
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(svc))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if *ingestName != "" {
		var err error
		in, err = ingest.Open(ingest.Config{
			Dir:            *ingestDir,
			Name:           *ingestName,
			Registry:       svc.Registry(),
			Lambda:         *ingestLambda,
			QueueDepth:     *ingestQueue,
			SegmentBytes:   int64(*walSegmentKB) << 10,
			FreezeEvery:    *freezeEvery,
			FreezeInterval: *freezeInterval,
		})
		if err != nil {
			fatal(err)
		}
		st := in.Stats()
		fmt.Fprintf(os.Stderr, "stserve: ingesting %q from %s (seq %d, %d replayed, %d torn bytes dropped)\n",
			*ingestName, *ingestDir, st.Seq, st.Replayed, st.TornBytesRecovered)
		svc.SetIngestStats(func() *service.IngestStats {
			st := in.Stats()
			return &st
		})
		ih := ingest.NewHandler(in)
		mux.Handle("/ingest", ih)
		mux.Handle("/ingest/", ih)
	}

	srv := service.NewServer(*listen, mux)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "stserve: listening on %s\n", *listen)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "stserve: %s — draining\n", sig)
	case err := <-errCh:
		fatal(err)
	}

	// Stop accepting connections and wait for in-flight HTTP requests,
	// then drain the query queue and close the containers.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "stserve: shutdown: %v\n", err)
	}
	// The pipeline closes before the service: queued batches commit, a
	// final freeze lands, and only then do the snapshots drain and close.
	if in != nil {
		if err := in.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "stserve: ingest close: %v\n", err)
		}
	}
	if err := svc.Close(); err != nil {
		fatal(err)
	}
	m := svc.Metrics()
	fmt.Fprintf(os.Stderr, "stserve: served %d queries (%.1f qps, p99 %dµs), bye\n",
		m.Completed, m.QPS, m.P99US)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stserve:", err)
	os.Exit(1)
}
