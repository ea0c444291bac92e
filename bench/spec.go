package main

// Workload names. Later performance claims name one of these and one
// metric from BENCHMARK.json, so they are final.
const (
	wBuildOffline = "build-offline"
	wServeHot     = "serve-hot"
	wServeCold    = "serve-cold"
	wIngestMixed  = "ingest-mixed"
)

var workloadNames = []string{wBuildOffline, wServeHot, wServeCold, wIngestMixed}

// nominalRoundSeconds is what one round of fixed work was sized to take
// on the 2-core reference box in a quiet spell; -seconds only picks how
// many such rounds a run measures, never how much work a round holds.
const nominalRoundSeconds = 1.0

// minRounds keeps the median of rounds meaningful whatever -seconds says.
const minRounds = 9

// roundsPerRep turns -seconds into the number of timed rounds each of the
// run's repetitions measures: at least minRounds over the whole run.
func roundsPerRep(seconds, reps int) int {
	total := int(float64(seconds) / nominalRoundSeconds)
	if total < minRounds {
		total = minRounds
	}
	return (total + reps - 1) / reps
}

// scale fixes every operation count of a run. The counts are constants:
// nothing is calibrated at run time, so two runs of one seed execute the
// same operation list.
type scale struct {
	// Reps is how often a run repeats the whole of set-up → timed rounds →
	// checks → teardown. Per-repetition values (setup_s, rss_mb) are
	// reported as the median of the repetitions, and the rounds of all
	// repetitions are pooled, so they sample the whole length of the run
	// rather than one stretch of it.
	Reps int

	OfflineObjects int
	OfflineQueries int // cold-buffer queries per round

	HotObjects int
	HotQueries int // queries per round, split over the clients

	ColdObjects int
	ColdShards  int
	ColdQueries int

	IngestBatch      int // records per POST /ingest
	IngestSteps      int // barrier steps per round; the last one crosses -freeze-every
	IngestStepQuery  int // queries per step beside the batch
	TraceIngestRound int // rounds the traced ingest replay runs (one freeze each)
}

// fullScale was sized on the 2-core reference box so that a round of
// every workload takes about nominalRoundSeconds in a quiet spell and a
// whole run stays well inside the driver's time cap in a busy one (see
// README.md, "How the counts were sized").
var fullScale = scale{
	Reps: 3,

	OfflineObjects: 12000,
	OfflineQueries: 2000,

	HotObjects: 12000,
	HotQueries: 8000,

	ColdObjects: 30000,
	ColdShards:  8,
	ColdQueries: 1000,

	IngestBatch:      256,
	IngestSteps:      120,
	IngestStepQuery:  16,
	TraceIngestRound: 3,
}

// tinyScale runs every workload end to end in a couple of seconds; the
// tests and -tiny use it. Its numbers mean nothing.
var tinyScale = scale{
	Reps: 1,

	OfflineObjects: 2000,
	OfflineQueries: 40,

	HotObjects: 500,
	HotQueries: 200,

	ColdObjects: 800,
	ColdShards:  4,
	ColdQueries: 120,

	IngestBatch:      64,
	IngestSteps:      6,
	IngestStepQuery:  4,
	TraceIngestRound: 2,
}

// splitBudgetPercent is the paper's 150% split budget.
const splitBudgetPercent = 150

// End-to-end metric names, in the order BENCHMARK.json lists them.
const (
	mSetupS         = "setup_s"
	mQPS            = "qps"
	mQueryP50US     = "query_p50_us"
	mRecordsPerS    = "records_per_s"
	mCPUS           = "cpu_s"
	mRSSMB          = "rss_mb"
	mIOPerQuery     = "io_per_query"
	mBytesPerRecord = "bytes_per_record"
)

var endToEndUnits = map[string]string{
	mSetupS:         "s",
	mQPS:            "1/s",
	mQueryP50US:     "us",
	mRecordsPerS:    "1/s",
	mCPUS:           "s",
	mRSSMB:          "MiB",
	mIOPerQuery:     "count",
	mBytesPerRecord: "B",
}

// perLayerUnits lists every per-layer metric a traced run reports. A
// metric that does not apply to a workload (ingest.* on serve-hot, say)
// is reported as 0 there: the contract wants every name on every run.
var perLayerUnits = map[string]string{
	"alloc.curves_s":                  "s",
	"alloc.assign_s":                  "s",
	"alloc.materialize_s":             "s",
	"split.volume_gain":               "ratio",
	"split.records_out":               "count",
	"pprtree.build_s":                 "s",
	"pprtree.pages":                   "count",
	"rstar.pack_s":                    "s",
	"pprtree.search_self_us":          "us",
	"rstar.search_self_us":            "us",
	"stindex.save_s":                  "s",
	"stindex.open_us":                 "us",
	"pagefile.encode_mb_per_s":        "MiB/s",
	"pagefile.compress_ratio":         "ratio",
	"pagefile.pool_hit_rate":          "ratio",
	"pagefile.shared_hit_rate":        "ratio",
	"pagefile.store_reads_per_query":  "count",
	"pagefile.decodes_per_query":      "count",
	"pagefile.store_read_us":          "us",
	"sharding.dispatched_per_query":   "count",
	"sharding.pruned_frac":            "ratio",
	"sharding.merge_self_us":          "us",
	"service.self_us_per_query":       "us",
	"service.transport_us":            "us",
	"service.resp_bytes_per_query":    "B",
	"service.http_p99_us":             "us",
	"service.http_max_us":             "us",
	"ingest.ack_p50_us":               "us",
	"ingest.ack_p99_us":               "us",
	"ingest.submit_self_us_per_batch": "us",
	"ingest.fsyncs_per_krecord":       "count",
	"ingest.wal_bytes_per_record":     "B",
	"ingest.fsync_p50_us":             "us",
	"ingest.freezes":                  "count",
	"ingest.freeze_s":                 "s",
	"ingest.query_p50_in_freeze_us":   "us",
	"ingest.live_query_self_us":       "us",
	"trace_overhead_frac":             "ratio",
}
