package check

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	stx "stindex"

	"stindex/internal/geom"
	"stindex/internal/ingest"
)

// errWALFault marks an injected journal fault.
var errWALFault = errors.New("check: injected wal fault")

// walFaults is an ingest.FS (and ingest.Renamer) that injects one fault
// at a configured operation number and then, like a killed process, fails
// every subsequent operation — the journal's and the freeze's alike. With Short set, the triggering write lands half
// its bytes first — a genuinely torn frame on the disk image.
type walFaults struct {
	mu     sync.Mutex
	ops    int
	FailOp int // 1-based operation that triggers; 0 = never
	Short  bool
	dead   bool
	fired  int
}

var _ ingest.Renamer = (*walFaults)(nil)

func (f *walFaults) step() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	if f.dead || (f.FailOp > 0 && f.ops >= f.FailOp) {
		f.dead = true
		f.fired++
		return fmt.Errorf("%w: op %d", errWALFault, f.ops)
	}
	return nil
}

// shortBudget reports whether this op is the trigger and should land a
// partial write before failing.
func (f *walFaults) shortBudget() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.Short && f.FailOp > 0 && f.ops+1 == f.FailOp
}

func (f *walFaults) Fired() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

func (f *walFaults) OpenAppend(path string) (ingest.File, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	file, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, file: file}, nil
}

func (f *walFaults) Remove(path string) error {
	if err := f.step(); err != nil {
		return err
	}
	return os.Remove(path)
}

func (f *walFaults) Rename(oldpath, newpath string) error {
	if err := f.step(); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

func (f *walFaults) SyncDir(dir string) error {
	if err := f.step(); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

type faultFile struct {
	f    *walFaults
	file *os.File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if ff.f.shortBudget() {
		// Land half the bytes, then report the fault: the frame is torn
		// on disk exactly as a mid-write crash leaves it.
		n, _ := ff.file.Write(p[:len(p)/2])
		ff.f.step()
		return n, fmt.Errorf("%w: short write", errWALFault)
	}
	if err := ff.f.step(); err != nil {
		return 0, err
	}
	return ff.file.Write(p)
}

func (ff *faultFile) Sync() error {
	if err := ff.f.step(); err != nil {
		return err
	}
	return ff.file.Sync()
}

func (ff *faultFile) Close() error {
	// Close never injects: a dying process loses its descriptors anyway,
	// and the harness needs the real close so the disk image is stable.
	return ff.file.Close()
}

// IngestCrashReport summarises one crash-matrix run.
type IngestCrashReport struct {
	Schedules int // fault points driven
	Crashes   int // runs where the fault actually fired
	Replayed  int // total records recovered across all crash images
}

// ingestCrashFeed is the deterministic workload: per-instant batches of
// drifting objects with finishes, reappearances and a trailing
// finish-all — every record kind the journal knows.
func ingestCrashFeed(instants int) [][]ingest.Record {
	rectAt := func(id, t int64) geom.Rect {
		x := 0.05 + 0.1*float64(id-1) + 0.003*float64(t-10)
		y := 0.2 + 0.015*float64((id*5+t)%11)
		return geom.Rect{MinX: x, MinY: y, MaxX: x + 0.04, MaxY: y + 0.04}
	}
	var batches [][]ingest.Record
	for t := int64(10); t < int64(10+instants); t++ {
		var b []ingest.Record
		for id := int64(1); id <= 5; id++ {
			if id == 2 {
				if t == 20 {
					b = append(b, ingest.Record{Kind: ingest.RecFinish, ObjectID: id, T: t})
					continue
				}
				if t > 20 && t < 28 {
					continue
				}
			}
			b = append(b, ingest.Record{Kind: ingest.RecObserve, ObjectID: id, T: t, Rect: rectAt(id, t)})
		}
		batches = append(batches, b)
	}
	batches = append(batches, []ingest.Record{{Kind: ingest.RecFinishAll, T: int64(10 + instants)}})
	return batches
}

func ingestCrashOptions() (float64, stx.PPROptions) {
	return 0.004, stx.PPROptions{MaxEntries: 8, BufferPages: 32}
}

// replayPrefix applies the first n records of the feed to a fresh stream
// index — the never-crashed oracle for the recovered state.
func replayPrefix(recs []ingest.Record, n uint64) (*stx.StreamIndex, error) {
	if n == 0 {
		return nil, nil
	}
	lambda, tree := ingestCrashOptions()
	six, err := stx.NewStreamIndex(stx.StreamOptions{Lambda: lambda, PPR: tree}, recs[0].T)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		r := recs[i]
		switch r.Kind {
		case ingest.RecObserve:
			err = six.Observe(r.ObjectID, r.T, stx.Rect{MinX: r.Rect.MinX, MinY: r.Rect.MinY, MaxX: r.Rect.MaxX, MaxY: r.Rect.MaxY})
		case ingest.RecFinish:
			err = six.Finish(r.ObjectID, r.T)
		case ingest.RecFinishAll:
			err = six.FinishAll(r.T)
		}
		if err != nil {
			return nil, fmt.Errorf("oracle replay record %d: %w", i, err)
		}
	}
	return six, nil
}

// copyJournalDir snapshots the journal directory — the "disk image at
// the instant of death" recovery is run against, taken before any
// shutdown path can touch the original.
func copyJournalDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// RunIngestCrashMatrix proves the journal's durability contract under
// injected write/fsync faults and kill-points. For each fault point it
// ingests the deterministic feed (freezing once mid-stream) until the
// pipeline latches, snapshots the journal directory at that instant,
// recovers from the copy, and requires:
//
//   - recovery succeeds (a crashed journal is never unrecoverable),
//   - every acknowledged record is in the recovered state,
//   - the recovered state is answer- and piece-identical to a
//     never-crashed replay of exactly the recovered prefix.
//
// The fault points sweep the whole pipeline: first writes, the segment
// header, group-commit fsyncs, rotation, the freeze's container and
// CURRENT writes (they go through the same FS), freeze-time truncation. Short
// variants land half a frame before dying, so torn-tail truncation is
// exercised on real mid-write images.
func RunIngestCrashMatrix(scratch string, faultPoints []int, short bool) (IngestCrashReport, error) {
	var rep IngestCrashReport
	batches := ingestCrashFeed(40)
	flat := make([]ingest.Record, 0, 256)
	for _, b := range batches {
		flat = append(flat, b...)
	}
	lambda, tree := ingestCrashOptions()

	for _, fp := range faultPoints {
		rep.Schedules++
		dir := filepath.Join(scratch, fmt.Sprintf("run-%d-%v", fp, short))
		faults := &walFaults{FailOp: fp, Short: short}
		in, err := ingest.Open(ingest.Config{
			Dir: dir, Lambda: lambda, Tree: tree,
			SegmentBytes: 2048, FS: faults,
		})
		if err != nil {
			// The fault fired inside Open's recovery-side WAL setup;
			// nothing was acknowledged, nothing to prove.
			if errors.Is(err, errWALFault) {
				rep.Crashes++
				continue
			}
			return rep, fmt.Errorf("open (fault point %d): %w", fp, err)
		}

		var acked uint64
		for i, b := range batches {
			if _, err := in.Submit(b); err != nil {
				break
			}
			acked += uint64(len(b))
			if i == len(batches)/2 {
				in.Freeze() // exercise snapshot + truncation mid-stream
			}
		}

		// Snapshot the disk image before any shutdown path runs, then
		// shut the pipeline down (errors expected once latched).
		crashDir := dir + "-image"
		if err := copyJournalDir(dir, crashDir); err != nil {
			return rep, err
		}
		in.Close()
		if faults.Fired() > 0 {
			rep.Crashes++
		}

		rec, err := ingest.Recover(crashDir, ingest.RecoverOptions{Tree: tree})
		if err != nil {
			return rep, fmt.Errorf("fault point %d: recovery failed: %w", fp, err)
		}
		rec.WAL.Close()
		if rec.Seq < acked {
			return rep, fmt.Errorf("fault point %d: recovered %d records but %d were acknowledged", fp, rec.Seq, acked)
		}
		if rec.Seq > uint64(len(flat)) {
			return rep, fmt.Errorf("fault point %d: recovered %d records, only %d were ever submitted", fp, rec.Seq, len(flat))
		}
		rep.Replayed += rec.Replayed

		oracle, err := replayPrefix(flat, rec.Seq)
		if err != nil {
			return rep, fmt.Errorf("fault point %d: %w", fp, err)
		}
		if (oracle == nil) != (rec.Index == nil) {
			return rep, fmt.Errorf("fault point %d: recovered index nil-ness disagrees with oracle", fp)
		}
		if oracle == nil {
			continue
		}
		if err := sameStreamState(rec.Index, oracle); err != nil {
			return rep, fmt.Errorf("fault point %d (acked %d, recovered %d): %w", fp, acked, rec.Seq, err)
		}
	}
	return rep, nil
}

// sameRecordSets compares two record multisets order-independently.
func sameRecordSets(a, b []stx.Record) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d records vs %d", len(a), len(b))
	}
	counts := make(map[stx.Record]int, len(a))
	for _, r := range a {
		counts[r]++
	}
	for _, r := range b {
		if counts[r] == 0 {
			return fmt.Errorf("record %+v missing or over-counted", r)
		}
		counts[r]--
	}
	return nil
}

// sameStreamState requires two stream indexes to be piece- and
// answer-identical: equal piece-record multisets (the state the index
// answers from) and equal answers over a probe query grid.
func sameStreamState(got, want *stx.StreamIndex) error {
	gr, err := got.PieceRecords()
	if err != nil {
		return err
	}
	wr, err := want.PieceRecords()
	if err != nil {
		return err
	}
	if err := sameRecordSets(gr, wr); err != nil {
		return fmt.Errorf("piece records diverge: %w", err)
	}
	for qi := 0; qi < 10; qi++ {
		r := stx.Rect{MinX: 0.05 * float64(qi), MinY: 0, MaxX: 0.05*float64(qi) + 0.35, MaxY: 1}
		iv := stx.Interval{Start: int64(8 + 3*qi), End: int64(14 + 4*qi)}
		g, err := got.Range(r, iv)
		if err != nil {
			return err
		}
		w, err := want.Range(r, iv)
		if err != nil {
			return err
		}
		if !SameIDs(g, w) {
			return fmt.Errorf("probe %d: got %v, want %v", qi, SortedIDs(g), SortedIDs(w))
		}
		if !StrictlyAscending(g) || !StrictlyAscending(w) {
			return fmt.Errorf("probe %d: answers %v and %v are not both strictly ascending", qi, g, w)
		}
	}
	return nil
}
