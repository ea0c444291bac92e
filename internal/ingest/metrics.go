package ingest

import (
	"sync/atomic"

	"stindex/internal/service"
)

// ingestCounters are the pipeline's own counters; journal counters live
// on the WAL.
type ingestCounters struct {
	accepted     atomic.Int64 // records acknowledged durable
	rejected     atomic.Int64 // backpressure rejections (batches)
	invalid      atomic.Int64 // validation rejections (batches)
	replayed     atomic.Int64 // records replayed from the journal at startup
	freezes      atomic.Int64
	freezeErrors atomic.Int64
	lastFreeze   atomic.Uint64 // seq covered by the newest durable snapshot
	tornBytes    atomic.Int64
	fsync        service.Histogram // the group-commit fsync, the pipeline's one unavoidable stall
}
