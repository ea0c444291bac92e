// Command checkmetrics validates an stserve /metrics scrape piped on
// stdin: at least N completed queries (the positional argument), zero
// failures, non-zero QPS and latency percentiles, live per-snapshot
// statistics and, with a cache budget, a shared cache within it. With
// -ingest-accepted it additionally requires a live ingestion block and
// proves the pipeline's durability invariants on it (accepted ==
// wal_records_written, fsyncs behind every ack, freezes consistent,
// nothing latched, no more resident pages than pages); with
// -ingest-released it requires some live pages to be held by the frozen
// container rather than in memory. Used by scripts/smoke_stserve.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"

	"stindex/internal/service"
)

func main() {
	ingestAccepted := flag.Int64("ingest-accepted", -1, "require an ingest block with at least this many accepted records (-1 = no ingest checks)")
	ingestReplayed := flag.Int64("ingest-replayed", -1, "require at least this many records replayed from the journal at startup (-1 = don't check)")
	ingestFreezes := flag.Int64("ingest-freezes", -1, "require at least this many published freezes (-1 = don't check)")
	ingestReleased := flag.Bool("ingest-released", false, "require resident_pages < pages: a freeze or a restart left live pages in the container")
	flag.Parse()
	if flag.NArg() != 1 {
		die("usage: checkmetrics [flags] <min-completed> < metrics.json")
	}
	min, err := strconv.ParseInt(flag.Arg(0), 10, 64)
	if err != nil {
		die("bad min-completed %q: %v", flag.Arg(0), err)
	}
	var m service.Metrics
	if err := json.NewDecoder(os.Stdin).Decode(&m); err != nil {
		die("decoding metrics: %v", err)
	}
	if m.Completed < min {
		die("completed = %d, want >= %d", m.Completed, min)
	}
	if m.Failed != 0 || m.Rejected != 0 {
		die("failed = %d rejected = %d, want 0", m.Failed, m.Rejected)
	}
	if m.QPS <= 0 {
		die("qps = %v, want > 0", m.QPS)
	}
	if m.P50US <= 0 || m.P95US <= 0 || m.P99US <= 0 {
		die("degenerate percentiles: p50=%d p95=%d p99=%d", m.P50US, m.P95US, m.P99US)
	}
	if len(m.Snapshots) == 0 {
		die("no snapshots in metrics")
	}
	if c := m.Cache; c.Budget > 0 && c.Bytes > c.Budget {
		die("shared cache holds %d bytes over its %d-byte budget", c.Bytes, c.Budget)
	}
	shardedSnaps := 0
	for _, s := range m.Snapshots {
		if s.Queries > 0 && s.Reads+s.Hits == 0 {
			die("snapshot %q served %d queries with no buffer traffic", s.Name, s.Queries)
		}
		// Sharded snapshots: every query is either dispatched to or
		// pruned at every shard, so per shard dispatched + pruned must
		// equal the scatter-gather query count exactly (the scrape
		// happens at rest in the smoke test, so no in-flight slack).
		if len(s.Shards) > 0 {
			shardedSnaps++
			if s.Queries > 0 && s.ShardedQueries == 0 {
				die("sharded snapshot %q served %d queries but counted none at the fan-out", s.Name, s.Queries)
			}
			for _, sh := range s.Shards {
				if sh.Queries+sh.Pruned != s.ShardedQueries {
					die("snapshot %q shard %d: dispatched %d + pruned %d != %d sharded queries",
						s.Name, sh.Shard, sh.Queries, sh.Pruned, s.ShardedQueries)
				}
			}
		}
	}
	ingestLine := ""
	if *ingestAccepted >= 0 {
		if m.Ingest == nil {
			die("no ingest block in metrics")
		}
		checkIngest(m.Ingest, *ingestAccepted, *ingestReplayed, *ingestFreezes, *ingestReleased)
		ingestLine = fmt.Sprintf(" ingest-accepted=%d ingest-replayed=%d freezes=%d resident-pages=%d/%d",
			m.Ingest.Accepted, m.Ingest.Replayed, m.Ingest.Freezes, m.Ingest.ResidentPages, m.Ingest.Pages)
	}
	fmt.Printf("metrics ok: completed=%d qps=%.0f p50=%dµs p99=%dµs sharded-snapshots=%d%s\n",
		m.Completed, m.QPS, m.P50US, m.P99US, shardedSnaps, ingestLine)
}

// checkIngest proves the ingestion pipeline's externally visible
// durability invariants on a quiescent scrape.
func checkIngest(in *service.IngestStats, minAccepted, minReplayed, minFreezes int64, released bool) {
	if in.Latched != "" {
		die("ingest pipeline latched: %s", in.Latched)
	}
	if in.Accepted < minAccepted {
		die("ingest accepted = %d, want >= %d", in.Accepted, minAccepted)
	}
	// The durability contract made countable: a record is Accepted only
	// after its journal frame is covered by a successful fsync, so at
	// rest the two counters must agree exactly.
	if in.Accepted != in.WALRecords {
		die("accepted = %d but wal_records_written = %d — an ack without a durable frame", in.Accepted, in.WALRecords)
	}
	if in.Accepted > 0 && in.Fsyncs == 0 {
		die("%d records accepted with zero fsyncs", in.Accepted)
	}
	if in.Rejected != 0 || in.Invalid != 0 {
		die("ingest rejected = %d invalid = %d, want 0 in the smoke feed", in.Rejected, in.Invalid)
	}
	if minReplayed >= 0 && in.Replayed < minReplayed {
		die("ingest replayed = %d, want >= %d", in.Replayed, minReplayed)
	}
	if minFreezes >= 0 && in.Freezes < minFreezes {
		die("ingest freezes = %d, want >= %d", in.Freezes, minFreezes)
	}
	if in.FreezeErrors != 0 {
		die("ingest freeze errors = %d", in.FreezeErrors)
	}
	if in.Freezes > 0 && in.LastFreezeSeq == 0 {
		die("%d freezes published but last_freeze_seq = 0", in.Freezes)
	}
	// Seq is the total durable history; it can never lag what this
	// process replayed plus accepted.
	if in.Seq < uint64(in.Replayed)+uint64(in.Accepted) {
		die("seq = %d < replayed %d + accepted %d", in.Seq, in.Replayed, in.Accepted)
	}
	// A page image is held in memory or read from the frozen container,
	// never both and never neither.
	if in.ResidentPages < 0 || in.ResidentPages > in.Pages {
		die("resident_pages = %d of pages = %d", in.ResidentPages, in.Pages)
	}
	if released && in.ResidentPages >= in.Pages {
		die("resident_pages = %d of pages = %d: no live page was left in the frozen container", in.ResidentPages, in.Pages)
	}
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "checkmetrics: "+format+"\n", args...)
	os.Exit(1)
}
