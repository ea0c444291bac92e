package ingest

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	stx "stindex"

	"stindex/internal/service"
	"stindex/internal/stio"
)

// ErrBacklog is returned by Submit when the admission queue is full —
// backpressure, mapped to HTTP 503.
var ErrBacklog = errors.New("ingest: admission queue full")

// ErrIngestClosed is returned by Submit after Close has begun.
var ErrIngestClosed = errors.New("ingest: closed")

// Config configures an Ingester.
type Config struct {
	// Dir is the journal directory: WAL segments, freeze containers and
	// the CURRENT pointer all live here.
	Dir string
	// Name is the serving name freezes publish under; with a nil
	// Registry nothing is published (the offline ststream -wal path).
	Name     string
	Registry *service.Registry
	// Lambda and Tree configure a fresh stream; a recovered stream keeps
	// its journaled lambda (a conflicting value is an open error).
	Lambda float64
	Tree   stx.PPROptions
	// Codec is the freeze container codec: "" or compressed, the one
	// codec written. Kept for callers that name it.
	Codec stx.Codec
	// QueueDepth bounds the admission queue in batches (default 64); a
	// full queue fails fast with ErrBacklog.
	QueueDepth int
	// SegmentBytes rotates WAL segments (default 4 MiB).
	SegmentBytes int64
	// FreezeEvery freezes after that many accepted records (0 = only on
	// demand / by interval); FreezeInterval adds a wall-clock trigger.
	FreezeEvery    int
	FreezeInterval time.Duration
	// FS is the file-operation seam of the journal and the freezes, for
	// fault injection (nil = os).
	FS FS
}

// groupCommit caps how many queued batches share one fsync.
const groupCommit = 32

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

type submission struct {
	recs []Record
	done chan submitResult
}

type submitResult struct {
	seq uint64 // seq of the last record in the batch
	err error
}

// Ingester is the live ingestion pipeline: a bounded admission queue in
// front of a single writer goroutine that validates, journals, applies
// beside the fsync (group commit) and acknowledges; plus a freezer goroutine
// that periodically publishes the index as a frozen container and
// truncates the covered journal.
type Ingester struct {
	cfg    Config
	handle *Handle
	wal    *WAL
	c      ingestCounters

	submitCh chan *submission
	kickCh   chan struct{}

	mu      sync.Mutex
	closed  bool
	latched error

	freezeMu   sync.Mutex // one freeze at a time
	frozenPath string     // newest durable snapshot ("" = none)
	frozenSeq  uint64
	frozenMaxT int64

	stopFreezer chan struct{}
	writerDone  chan struct{}
	freezerDone chan struct{}
}

// Open recovers dir's journal, publishes the combined live view under
// cfg.Name (when a registry is configured) and starts the pipeline.
func Open(cfg Config) (*Ingester, error) {
	cfg = cfg.withDefaults()
	// Every freeze saves with the codec, so a bad one must fail here,
	// before Recover touches the directory.
	if err := cfg.Codec.Check(); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	rec, err := Recover(cfg.Dir, RecoverOptions{
		Lambda: cfg.Lambda,
		Tree:   cfg.Tree,
		WAL:    WALConfig{SegmentBytes: cfg.SegmentBytes, FS: cfg.FS},
	})
	if err != nil {
		return nil, err
	}
	in := &Ingester{
		cfg:         cfg,
		handle:      newHandle(stx.StreamOptions{Lambda: cfg.Lambda, PPR: cfg.Tree}),
		wal:         rec.WAL,
		submitCh:    make(chan *submission, cfg.QueueDepth),
		kickCh:      make(chan struct{}, 1),
		stopFreezer: make(chan struct{}),
		writerDone:  make(chan struct{}),
		freezerDone: make(chan struct{}),
	}
	in.handle.adopt(rec)
	in.c.replayed.Store(int64(rec.Replayed))
	in.c.tornBytes.Store(rec.TornBytes)
	in.frozenPath = rec.SnapshotPath
	in.frozenSeq = rec.SnapshotSeq
	in.frozenMaxT = rec.SnapshotMaxT
	if rec.SnapshotSeq > 0 {
		in.c.lastFreeze.Store(rec.SnapshotSeq)
	}
	if err := in.publish(rec.SnapshotPath, boundaryOf(rec)); err != nil {
		rec.WAL.Close()
		if rec.Base != nil {
			rec.Base.Close()
		}
		return nil, err
	}
	go in.writer()
	go in.freezer()
	return in, nil
}

// boundaryOf picks the initial publish boundary: the snapshot's own
// clock, NOT the post-replay MaxT. Records replayed past the freeze
// exist only in the live index — the frozen container answers nothing
// later than its freeze instant, so a boundary beyond it would route
// the replayed interval to a container that cannot see it.
func boundaryOf(rec *Recovered) int64 {
	if rec.SnapshotPath == "" {
		return 0
	}
	return rec.SnapshotMaxT
}

// publish installs a fresh combined view under the serving name. The
// frozen container is opened lazily through the registry so its decoded
// nodes are shared through the registry's cache, generation-keyed like
// any Load-ed snapshot.
func (in *Ingester) publish(frozenPath string, boundary int64) error {
	if in.cfg.Registry == nil || in.cfg.Name == "" {
		return nil
	}
	_, err := in.cfg.Registry.PublishOpener(in.cfg.Name, func(opts stx.OpenOptions) (stx.Index, error) {
		var frozen stx.Index
		if frozenPath != "" {
			var err error
			frozen, err = stx.OpenIndexOptions(frozenPath, opts)
			if err != nil {
				return nil, err
			}
		}
		return NewLive(in.handle, frozen, boundary), nil
	})
	return err
}

// Submit queues one batch for ingestion and waits for its durable
// acknowledgement. It returns the sequence number of the batch's last
// record. A full queue fails fast with ErrBacklog; a semantically
// invalid batch fails with an error wrapping ErrInvalid and journals
// nothing.
func (in *Ingester) Submit(recs []Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, fmt.Errorf("%w: empty batch", ErrInvalid)
	}
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return 0, ErrIngestClosed
	}
	if in.latched != nil {
		err := in.latched
		in.mu.Unlock()
		return 0, err
	}
	sub := &submission{recs: recs, done: make(chan submitResult, 1)}
	select {
	case in.submitCh <- sub:
		in.mu.Unlock()
	default:
		in.mu.Unlock()
		in.c.rejected.Add(1)
		return 0, ErrBacklog
	}
	res := <-sub.done
	return res.seq, res.err
}

// SubmitObservations converts a decoded feed batch (observe / final
// events) into journal records and submits it.
func (in *Ingester) SubmitObservations(obs []stio.Observation) (uint64, error) {
	recs := make([]Record, len(obs))
	for i, o := range obs {
		recs[i] = recordOf(o)
	}
	return in.Submit(recs)
}

// recordOf is the journal record of one feed event.
func recordOf(o stio.Observation) Record {
	if o.Final {
		return Record{Kind: RecFinish, ObjectID: o.ObjectID, T: o.T}
	}
	return Record{Kind: RecObserve, ObjectID: o.ObjectID, T: o.T, Rect: o.Rect}
}

// writer is the single mutator: it drains the queue in groups, validates
// each batch against the handle plus the group's own admitted records,
// journals every admitted batch, applies the group while one fsync makes
// it durable, then acknowledges. The applied group stays under the
// handle lock until the fsync has returned, so nothing sees a record
// before it is durable: acknowledged ⊆ visible ⊆ durable at every
// instant.
func (in *Ingester) writer() {
	defer close(in.writerDone)
	group := make([]*submission, 0, groupCommit)
	for sub := range in.submitCh {
		group = append(group[:0], sub)
	drain:
		for len(group) < groupCommit {
			select {
			case more, ok := <-in.submitCh:
				if !ok {
					break drain
				}
				group = append(group, more)
			default:
				break drain
			}
		}
		in.commit(group)
	}
}

// commit runs one group through validate → journal → max(apply, fsync)
// → acknowledge.
func (in *Ingester) commit(group []*submission) {
	if err := in.latchedErr(); err != nil {
		for _, sub := range group {
			sub.done <- submitResult{err: err}
		}
		return
	}

	// Validate under the handle lock; admitted batches stack on the
	// overlay so intra-group dependencies (observe then finish of the
	// same object) validate exactly as they will apply.
	in.handle.mu.Lock()
	vs := in.handle.beginValidate()
	admitted := make([]*submission, 0, len(group))
	for _, sub := range group {
		if err := vs.validate(sub.recs); err != nil {
			in.c.invalid.Add(1)
			sub.done <- submitResult{err: err}
			continue
		}
		admitted = append(admitted, sub)
	}
	in.handle.mu.Unlock()
	if len(admitted) == 0 {
		return
	}

	// Journal and group-commit. On the first accepted record of a fresh
	// stream the epoch is its event time.
	if _, _, known := in.handle.epoch(); !known {
		in.wal.SetEpoch(admitted[0].recs[0].T, in.cfg.Lambda)
	}
	lastSeqs := make([]uint64, len(admitted))
	for i, sub := range admitted {
		first, err := in.wal.Append(sub.recs)
		if err != nil {
			// Nothing in this group was synced, so nothing was promised:
			// fail every batch (including the appended-but-unsynced ones)
			// and latch the pipeline.
			in.failGroup(admitted, err)
			return
		}
		lastSeqs[i] = first + uint64(len(sub.recs)) - 1
	}
	// The fsync runs beside the apply; durable waits for it once.
	synced := make(chan error, 1)
	go func() {
		start := time.Now()
		err := in.wal.Sync()
		if err == nil {
			in.c.fsync.Record(time.Since(start))
		}
		synced <- err
	}()
	durable := sync.OnceValue(func() error { return <-synced })

	// Apply the whole group in one write-back bracket while the fsync
	// runs. The bracket's last step waits for the fsync, and it is
	// flushed before the handle lock is released: queries, freezes and
	// metrics never see it open, nor any record of it before it is
	// durable. Validation guarantees the apply succeeds; a failed fsync
	// or any other failure poisons the live tree (its queries fail-stop
	// from here), acks no batch of the group and latches the pipeline —
	// the journal stays authoritative and a restart recovers from it.
	batches := make([][]Record, len(admitted))
	for i, sub := range admitted {
		batches[i] = sub.recs
	}
	in.handle.mu.Lock()
	err := in.handle.apply(batches, durable)
	in.handle.mu.Unlock()
	if serr := durable(); serr != nil {
		err = serr
	} else if err != nil {
		err = fmt.Errorf("ingest: validated record failed to apply (journal/index divergence): %w", err)
	}
	if err != nil {
		in.failGroup(admitted, err)
		return
	}
	for i, sub := range admitted {
		// Counted before the ack is sent: a client that has its ack must
		// find its records in the next Stats.
		in.c.accepted.Add(int64(len(sub.recs)))
		sub.done <- submitResult{seq: lastSeqs[i]}
	}

	// Freeze trigger by record count.
	if in.cfg.FreezeEvery > 0 {
		seq, _, _, _ := in.handle.state()
		if seq-in.c.lastFreeze.Load() >= uint64(in.cfg.FreezeEvery) {
			select {
			case in.kickCh <- struct{}{}:
			default:
			}
		}
	}
}

func (in *Ingester) failGroup(subs []*submission, err error) {
	in.latch(err)
	for _, sub := range subs {
		sub.done <- submitResult{err: err}
	}
}

func (in *Ingester) latch(err error) {
	in.mu.Lock()
	if in.latched == nil {
		in.latched = err
	}
	in.mu.Unlock()
}

func (in *Ingester) latchedErr() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.latched
}

// freezer runs freezes triggered by record count (kickCh), wall clock,
// or Freeze.
func (in *Ingester) freezer() {
	defer close(in.freezerDone)
	var tick <-chan time.Time
	if in.cfg.FreezeInterval > 0 {
		t := time.NewTicker(in.cfg.FreezeInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-in.stopFreezer:
			return
		case <-in.kickCh:
		case <-tick:
		}
		if _, err := in.freeze(); err != nil {
			in.c.freezeErrors.Add(1)
		}
	}
}

// Freeze synchronously snapshots the live index into a durable container,
// publishes the refreshed combined view and truncates the covered
// journal. It reports whether a new freeze happened (false when nothing
// new was accepted since the last one).
func (in *Ingester) Freeze() (bool, error) {
	froze, err := in.freeze()
	if err != nil {
		in.c.freezeErrors.Add(1)
	}
	return froze, err
}

// freezeEncodeHook, when set, runs in every freeze between releasing the
// handle lock and writing the container: tests hold it to show the encode
// blocks neither applies nor live queries.
var freezeEncodeHook func()

// freeze is the freeze/publish/truncate protocol:
//
//  1. under the handle lock, return if nothing was applied since the
//     last freeze; else take the container meta, seq S, the clock, the
//     epoch and a snapshot that takes the live file's page table, and
//     unlock
//  2. write freeze-<S>.sti from the snapshot through the FS seam,
//     crash-atomically (temp file through a buffer, fsync, rename,
//     fsync dir)
//  3. flip CURRENT to it the same way — from here recovery uses the new
//     snapshot and replays only records past S
//  4. under the handle lock, put the new container in the snapshot's
//     place: the live pages unwritten since step 1 are read from it,
//     and the snapshot's images are dropped (Handle.release)
//  5. publish a fresh Live view (hot-swap; zero downtime — the old
//     view's leases drain before its container closes)
//  6. delete journal segments fully covered by S, then older freezes
//     (open file handles keep serving deleted files; unix semantics)
//
// Applies and live queries wait only for steps 1 and 4: the container is
// encoded from the snapshot while they run, and step 4 only swaps the
// file's base. A crash between any two steps recovers cleanly: before
// 3 the old CURRENT plus the intact journal reproduce everything; after
// 3 the new snapshot plus the journal tail do. Recover deletes a temp
// file a crash leaves. If step 2, 3 or 4 fails, the snapshot's Close,
// under the handle lock, hands its images back to the live file. A
// failed step 4 costs memory, not state: the freeze stands and reports
// the error once the rest is done.
func (in *Ingester) freeze() (bool, error) {
	in.freezeMu.Lock()
	defer in.freezeMu.Unlock()

	snap, cur, err := in.handle.snapshot(in.frozenSeq)
	if snap == nil {
		return false, err
	}
	if freezeEncodeHook != nil {
		freezeEncodeHook()
	}
	fs := in.wal.cfg.FS
	cur.Container = fmt.Sprintf("freeze-%016x.sti", cur.Seq)
	err = writeAtomic(fs, in.cfg.Dir, cur.Container, func(w io.Writer) error {
		_, err := snap.WriteTo(w)
		return err
	})
	if err == nil {
		err = writeCurrent(fs, in.cfg.Dir, cur)
	}
	if err != nil {
		in.handle.locked(func() { snap.Close() })
		return false, err
	}
	in.frozenPath = filepath.Join(in.cfg.Dir, cur.Container)
	in.frozenSeq = cur.Seq
	in.frozenMaxT = cur.MaxT
	in.c.lastFreeze.Store(cur.Seq)
	in.c.freezes.Add(1)
	releaseErr := in.handle.release(snap, in.frozenPath)

	if err := in.publish(in.frozenPath, cur.MaxT); err != nil {
		return true, fmt.Errorf("ingest: freeze durable but publish failed: %w", err)
	}
	if _, err := in.wal.TruncateCovered(cur.Seq); err != nil {
		return true, fmt.Errorf("ingest: freeze durable but journal truncation failed: %w", err)
	}
	in.removeStaleFreezes(fs, cur.Seq)
	if releaseErr != nil {
		return true, fmt.Errorf("ingest: freeze durable but the live pages stay in memory: %w", releaseErr)
	}
	return true, nil
}

// removeStaleFreezes deletes the freeze containers older than the
// current one: its predecessor, and any a crash left.
func (in *Ingester) removeStaleFreezes(fs FS, current uint64) {
	names, err := filepath.Glob(filepath.Join(in.cfg.Dir, "freeze-*.sti"))
	if err != nil {
		return
	}
	sort.Strings(names)
	cur := filepath.Join(in.cfg.Dir, fmt.Sprintf("freeze-%016x.sti", current))
	for _, n := range names {
		if n < cur {
			fs.Remove(n)
		}
	}
}

// Stats assembles the pipeline's metrics snapshot.
func (in *Ingester) Stats() service.IngestStats {
	seq, maxT, liveObjects, records := in.handle.state()
	pages, resident := in.handle.residentPages()
	walRecords, walBytes, fsyncs, truncated := in.wal.Stats()
	st := service.IngestStats{
		Name:               in.cfg.Name,
		Seq:                seq,
		MaxT:               maxT,
		LiveObjects:        liveObjects,
		Records:            records,
		Pages:              pages,
		ResidentPages:      resident,
		Accepted:           in.c.accepted.Load(),
		Rejected:           in.c.rejected.Load(),
		Invalid:            in.c.invalid.Load(),
		Replayed:           in.c.replayed.Load(),
		WALRecords:         walRecords,
		WALBytes:           walBytes,
		WALSegments:        in.wal.Segments(),
		Fsyncs:             fsyncs,
		FsyncAvgUS:         in.c.fsync.Mean().Microseconds(),
		FsyncP50US:         in.c.fsync.Quantile(0.50).Microseconds(),
		FsyncP99US:         in.c.fsync.Quantile(0.99).Microseconds(),
		Freezes:            in.c.freezes.Load(),
		FreezeErrors:       in.c.freezeErrors.Load(),
		LastFreezeSeq:      in.c.lastFreeze.Load(),
		TruncatedSegments:  truncated,
		TornBytesRecovered: in.c.tornBytes.Load(),
		QueueDepth:         len(in.submitCh),
	}
	if err := in.latchedErr(); err != nil {
		st.Latched = err.Error()
	} else if err := in.wal.Err(); err != nil {
		st.Latched = err.Error()
	}
	return st
}

// Index exposes the live stream index for single-threaded embedders (the
// offline CLI); nil before the first accepted record. Do not mutate it
// directly while the pipeline runs.
func (in *Ingester) Index() *stx.StreamIndex {
	in.handle.mu.Lock()
	defer in.handle.mu.Unlock()
	return in.handle.ix
}

// Seq returns the number of accepted (durable, applied) records.
func (in *Ingester) Seq() uint64 {
	seq, _, _, _ := in.handle.state()
	return seq
}

// Close drains the pipeline: new submissions fail, queued ones commit, a
// final freeze makes restart cheap, and the journal closes with a last
// fsync. The registry entry (if any) keeps serving the final state.
func (in *Ingester) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		<-in.writerDone
		<-in.freezerDone
		return nil
	}
	in.closed = true
	close(in.submitCh)
	in.mu.Unlock()
	<-in.writerDone
	close(in.stopFreezer)
	<-in.freezerDone
	var first error
	if _, err := in.freeze(); err != nil && first == nil {
		first = err
	}
	if err := in.wal.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
