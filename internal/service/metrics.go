package service

import (
	"math/bits"
	"sync/atomic"
	"time"

	"stindex/internal/pagefile"
)

// histBuckets is the number of power-of-two latency buckets: bucket i
// counts latencies in [2^(i-1), 2^i) microseconds (bucket 0 is < 1µs),
// so 40 buckets cover sub-microsecond to ~6 days.
const histBuckets = 40

// Histogram is a lock-free latency histogram, the one behind every
// latency figure on /metrics (query latency here, the WAL's group-commit
// fsync in internal/ingest). Record and quantile estimation are safe for
// concurrent use; quantiles are bucket upper bounds, i.e. exact to within
// a factor of two — plenty for p50/p95/p99 monitoring, with client-side
// timing used where exactness matters. The zero value is ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumNS   atomic.Int64
}

func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := bits.Len64(uint64(us)) // 1µs -> 1, 2-3µs -> 2, ...
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// Quantile returns an upper bound on the q-quantile latency (q in
// [0,1]); 0 when nothing was recorded.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			// Upper bound of bucket i: 2^i microseconds (bucket 0: 1µs).
			if i == 0 {
				return time.Microsecond
			}
			return time.Duration(1<<uint(i)) * time.Microsecond
		}
	}
	return time.Duration(1<<uint(histBuckets-1)) * time.Microsecond
}

// Mean returns the average observation; 0 when nothing was recorded.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNS.Load() / n)
}

// serviceMetrics aggregates the serving counters.
type serviceMetrics struct {
	start     time.Time
	completed atomic.Int64 // queries answered (successfully)
	failed    atomic.Int64 // queries whose execution returned an error
	rejected  atomic.Int64 // admissions refused because the queue was full
	timedOut  atomic.Int64 // requests whose context expired before completion
	latency   Histogram    // enqueue-to-answer, completed queries only
}

// Metrics is a point-in-time snapshot of the service's counters,
// JSON-ready for the /metrics endpoint.
type Metrics struct {
	Uptime   string `json:"uptime"`
	UptimeNS int64  `json:"uptime_ns"`

	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Rejected  int64 `json:"rejected"`
	TimedOut  int64 `json:"timed_out"`

	// QPS is completed queries per second of uptime (cumulative).
	QPS float64 `json:"qps"`

	// Latency percentiles are upper bounds from a power-of-two-bucket
	// histogram of enqueue-to-answer times.
	AvgLatencyUS int64 `json:"avg_latency_us"`
	P50US        int64 `json:"p50_us"`
	P95US        int64 `json:"p95_us"`
	P99US        int64 `json:"p99_us"`

	Workers       int `json:"workers"`
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`

	// Cache is the registry-wide shared decoded-node cache's state; all zeros
	// when the cache is disabled.
	Cache pagefile.SharedCacheStats `json:"cache"`

	Snapshots []SnapshotInfo `json:"snapshots"`

	// Ingest is the live-ingestion pipeline's counters, present only when
	// the server runs with an ingest endpoint.
	Ingest *IngestStats `json:"ingest,omitempty"`
}

// IngestStats is the live-ingestion pipeline's point-in-time counters,
// assembled by internal/ingest and surfaced through /metrics. The
// durability invariant is visible in the numbers: Accepted counts only
// records whose journal frames were fsynced, so accepted ==
// wal_records_written holds at every quiescent point, and after a
// restart replayed records reappear in Seq but not in Accepted (both are
// per-process counters).
type IngestStats struct {
	Name string `json:"name"`
	// Seq is the total durable record count (snapshot-covered + replayed
	// + accepted this process).
	Seq  uint64 `json:"seq"`
	MaxT int64  `json:"max_t"`
	// LiveObjects and Records describe the live index. Pages counts its
	// live pages and ResidentPages those whose image it holds in memory:
	// a freeze hands the pages it leaves unchanged to its container.
	LiveObjects   int `json:"live_objects"`
	Records       int `json:"records"`
	Pages         int `json:"pages"`
	ResidentPages int `json:"resident_pages"`
	// Accepted counts records acknowledged durable by this process;
	// Rejected counts batches refused for backpressure, Invalid batches
	// refused by validation (neither touches the journal).
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Invalid  int64 `json:"invalid"`
	// Replayed counts records reconstructed from the journal at startup.
	Replayed int64 `json:"replayed"`
	// WALRecords counts frames covered by a successful fsync this
	// process (== Accepted at quiescence); WALBytes counts frame bytes
	// appended.
	WALRecords  int64 `json:"wal_records_written"`
	WALBytes    int64 `json:"wal_bytes"`
	WALSegments int   `json:"wal_segments"`
	Fsyncs      int64 `json:"fsyncs"`
	FsyncAvgUS  int64 `json:"fsync_avg_us"`
	FsyncP50US  int64 `json:"fsync_p50_us"`
	FsyncP99US  int64 `json:"fsync_p99_us"`
	// Freezes counts published snapshots; LastFreezeSeq is the record
	// count the newest one covers.
	Freezes           int64  `json:"freezes"`
	FreezeErrors      int64  `json:"freeze_errors"`
	LastFreezeSeq     uint64 `json:"last_freeze_seq"`
	TruncatedSegments int64  `json:"wal_segments_truncated"`
	// TornBytesRecovered counts bytes truncated from a torn journal tail
	// at the last recovery.
	TornBytesRecovered int64 `json:"torn_bytes_recovered"`
	QueueDepth         int   `json:"ingest_queue_depth"`
	// Latched is the fail-stop error when the pipeline has latched one
	// (journal failure or validator/indexer divergence); empty otherwise.
	Latched string `json:"latched,omitempty"`
}

func (m *serviceMetrics) snapshot() Metrics {
	up := time.Since(m.start)
	completed := m.completed.Load()
	qps := 0.0
	if up > 0 {
		qps = float64(completed) / up.Seconds()
	}
	return Metrics{
		Uptime:       up.Round(time.Millisecond).String(),
		UptimeNS:     int64(up),
		Completed:    completed,
		Failed:       m.failed.Load(),
		Rejected:     m.rejected.Load(),
		TimedOut:     m.timedOut.Load(),
		QPS:          qps,
		AvgLatencyUS: m.latency.Mean().Microseconds(),
		P50US:        m.latency.Quantile(0.50).Microseconds(),
		P95US:        m.latency.Quantile(0.95).Microseconds(),
		P99US:        m.latency.Quantile(0.99).Microseconds(),
	}
}
