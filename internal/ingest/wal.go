package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// STWL segment layout (little endian):
//
//	header  magic [4]byte "STWL", version u32 1,
//	        firstSeq u64 (global 1-based seq of the segment's first record),
//	        startTime i64 (stream epoch), lambda f64
//	frames  see record.go
//
// Segments are named wal-<firstSeq %016x>.stwl so a lexical sort of the
// directory is the replay order. Rotation starts a fresh segment once the
// active one exceeds the configured byte budget; a freeze deletes every
// segment whose records are all covered by the durable snapshot.
const (
	walMagic   = "STWL"
	walVersion = 1
	walHeader  = 32
	walPattern = "wal-*.stwl"
)

// errTorn marks a frame-level parse failure: recovery treats it as a torn
// tail (and truncates) when it happens in the final segment, and as
// corruption (fail-stop) anywhere else.
var errTorn = errors.New("ingest: torn or corrupt frame")

// ErrWALFailed latches after any journal write, fsync or rotation error:
// the pipeline stops accepting records rather than risk acknowledging
// writes that may not be durable. Queries keep serving; restart recovers
// from what reached the disk.
var ErrWALFailed = errors.New("ingest: journal failed")

func segName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.stwl", firstSeq) }

func encodeSegHeader(firstSeq uint64, startTime int64, lambda float64) []byte {
	b := make([]byte, walHeader)
	copy(b, walMagic)
	binary.LittleEndian.PutUint32(b[4:], walVersion)
	binary.LittleEndian.PutUint64(b[8:], firstSeq)
	binary.LittleEndian.PutUint64(b[16:], uint64(startTime))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(lambda))
	return b
}

func decodeSegHeader(b []byte) (firstSeq uint64, startTime int64, lambda float64, err error) {
	if len(b) < walHeader {
		return 0, 0, 0, fmt.Errorf("%w: %d-byte partial segment header", errTorn, len(b))
	}
	if string(b[:4]) != walMagic {
		return 0, 0, 0, fmt.Errorf("ingest: bad segment magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != walVersion {
		return 0, 0, 0, fmt.Errorf("ingest: unsupported segment version %d", v)
	}
	firstSeq = binary.LittleEndian.Uint64(b[8:])
	startTime = int64(binary.LittleEndian.Uint64(b[16:]))
	lambda = math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
	if firstSeq == 0 || math.IsNaN(lambda) || lambda < 0 {
		return 0, 0, 0, fmt.Errorf("ingest: implausible segment header (firstSeq %d, lambda %g)", firstSeq, lambda)
	}
	return firstSeq, startTime, lambda, nil
}

// segInfo is one closed (rotated-out) segment.
type segInfo struct {
	path  string
	first uint64 // seq of its first record
	count uint64 // records it holds
}

// WALConfig sizes a journal.
type WALConfig struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB). Small segments make freeze-time truncation
	// reclaim space sooner.
	SegmentBytes int64
	// FS is the file-operation seam (nil = the real filesystem).
	FS FS
}

func (c WALConfig) withDefaults() WALConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.FS == nil {
		c.FS = osFS{}
	}
	return c
}

// WAL is the append side of the journal. A single goroutine appends and
// syncs; TruncateCovered may be called concurrently by the freezer. Any
// file-operation error latches the WAL failed (ErrWALFailed): no further
// appends are accepted, so the acknowledged prefix stays exactly the
// durable prefix.
type WAL struct {
	dir string
	cfg WALConfig

	mu          sync.Mutex
	epochSet    bool
	startTime   int64
	lambda      float64
	active      File
	activePath  string
	activeSize  int64
	activeFirst uint64
	activeCount uint64
	nextSeq     uint64
	closed      []segInfo // rotated-out segments, oldest first
	err         error     // latched failure
	buf         []byte

	// Counters are atomics so the metrics endpoint can read them without
	// taking the writer's lock.
	records   atomic.Int64 // frames appended (pre-sync)
	synced    atomic.Int64 // frames covered by a successful Sync
	bytes     atomic.Int64
	fsyncs    atomic.Int64
	rotations atomic.Int64
	truncated atomic.Int64 // segments deleted by TruncateCovered
}

// newWAL builds an append-ready journal over dir. Recovery constructs it
// positioned after the last durable record; a fresh directory starts at
// seq 1 with the epoch set lazily by the first append.
func newWAL(dir string, cfg WALConfig) *WAL {
	return &WAL{dir: dir, cfg: cfg.withDefaults(), nextSeq: 1}
}

// SetEpoch fixes the stream epoch recorded in segment headers. It must be
// called before the first append of a fresh journal; recovery restores it
// from the existing segments.
func (w *WAL) SetEpoch(startTime int64, lambda float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.epochSet {
		w.startTime, w.lambda, w.epochSet = startTime, lambda, true
	}
}

// Err returns the latched failure, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// fail latches err as the journal's failure, wrapping both ErrWALFailed
// and err so callers can match either.
func (w *WAL) fail(err error) error {
	if w.err == nil {
		w.err = fmt.Errorf("%w: %w", ErrWALFailed, err)
	}
	return w.err
}

// Append journals recs (one frame each, one write call for the batch) and
// returns the first record's sequence number. The frames are not yet
// durable: call Sync before acknowledging or applying them.
func (w *WAL) Append(recs []Record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if !w.epochSet {
		return 0, w.fail(errors.New("append before SetEpoch"))
	}
	if w.active == nil || w.activeSize >= w.cfg.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	w.buf = w.buf[:0]
	for _, r := range recs {
		var err error
		if w.buf, err = appendFrame(w.buf, r); err != nil {
			return 0, w.fail(err)
		}
	}
	n, err := w.active.Write(w.buf)
	if err != nil {
		return 0, w.fail(err)
	}
	if n != len(w.buf) {
		return 0, w.fail(fmt.Errorf("short segment write: %d of %d bytes", n, len(w.buf)))
	}
	first := w.nextSeq
	w.nextSeq += uint64(len(recs))
	w.activeCount += uint64(len(recs))
	w.activeSize += int64(len(w.buf))
	w.records.Add(int64(len(recs)))
	w.bytes.Add(int64(len(w.buf)))
	return first, nil
}

// Sync makes every appended frame durable (group commit: one fsync covers
// all batches appended since the last call).
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.active == nil {
		return nil
	}
	if err := w.active.Sync(); err != nil {
		return w.fail(err)
	}
	w.fsyncs.Add(1)
	w.synced.Store(w.records.Load())
	return nil
}

// rotateLocked closes the active segment and starts the next one. The new
// segment's header is written and the directory fsynced, so recovery can
// always trust the name ↔ firstSeq mapping of every complete header.
func (w *WAL) rotateLocked() error {
	if w.active != nil {
		if err := w.active.Sync(); err != nil {
			return w.fail(err)
		}
		if err := w.active.Close(); err != nil {
			return w.fail(err)
		}
		w.fsyncs.Add(1)
		w.closed = append(w.closed, segInfo{path: w.activePath, first: w.activeFirst, count: w.activeCount})
		w.active = nil
		w.rotations.Add(1)
	}
	path := filepath.Join(w.dir, segName(w.nextSeq))
	f, err := w.cfg.FS.OpenAppend(path)
	if err != nil {
		return w.fail(err)
	}
	hdr := encodeSegHeader(w.nextSeq, w.startTime, w.lambda)
	if n, err := f.Write(hdr); err != nil || n != len(hdr) {
		f.Close()
		if err == nil {
			err = fmt.Errorf("short header write: %d bytes", n)
		}
		return w.fail(err)
	}
	if err := w.cfg.FS.SyncDir(w.dir); err != nil {
		f.Close()
		return w.fail(err)
	}
	w.active, w.activePath = f, path
	w.activeFirst, w.activeCount = w.nextSeq, 0
	w.activeSize = walHeader
	return nil
}

// adoptActive is used by recovery to hand the WAL an already-open tail
// segment (truncated past any torn frames) plus the closed segments that
// precede it.
func (w *WAL) adoptActive(closed []segInfo, f File, path string, first, count uint64, size int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = append(w.closed, closed...)
	w.active, w.activePath = f, path
	w.activeFirst, w.activeCount = first, count
	w.activeSize = size
	w.nextSeq = first + count
}

// TruncateCovered deletes every closed segment whose records all have
// seq <= covered (they are fully represented by a durable snapshot). The
// active segment is never deleted. Safe to call concurrently with
// appends.
func (w *WAL) TruncateCovered(covered uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	removed := 0
	for len(w.closed) > 0 {
		seg := w.closed[0]
		if seg.first+seg.count-1 > covered {
			break
		}
		if err := w.cfg.FS.Remove(seg.path); err != nil {
			return removed, w.fail(err)
		}
		w.closed = w.closed[1:]
		removed++
	}
	if removed > 0 {
		if err := w.cfg.FS.SyncDir(w.dir); err != nil {
			return removed, w.fail(err)
		}
		w.truncated.Add(int64(removed))
	}
	return removed, nil
}

// Segments returns how many journal segments exist (closed + active).
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.closed)
	if w.active != nil {
		n++
	}
	return n
}

// Stats returns the journal's cumulative counters.
func (w *WAL) Stats() (records, bytes, fsyncs, truncated int64) {
	return w.synced.Load(), w.bytes.Load(), w.fsyncs.Load(), w.truncated.Load()
}

// Close syncs and closes the active segment. The WAL accepts no appends
// afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.active == nil {
		return w.err
	}
	f := w.active
	w.active = nil
	if w.err != nil {
		f.Close()
		return w.err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return w.fail(err)
	}
	w.fsyncs.Add(1)
	w.synced.Store(w.records.Load())
	if err := f.Close(); err != nil {
		return w.fail(err)
	}
	return nil
}
