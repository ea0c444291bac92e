package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	stx "stindex"
)

// currentFile is the pointer file naming the latest durable snapshot; it
// is replaced atomically (write-temp, fsync, rename, fsync dir) so
// recovery always sees either the old or the new freeze, never a torn
// one.
const currentFile = "CURRENT"

// currentState is the CURRENT pointer's JSON payload.
type currentState struct {
	// Container is the snapshot file name (relative to the journal dir).
	Container string `json:"container"`
	// Seq is the number of records the snapshot covers: recovery replays
	// journal records with seq > Seq.
	Seq uint64 `json:"seq"`
	// MaxT is the index clock at the freeze — the boundary instant of
	// the frozen/live combined view.
	MaxT int64 `json:"max_t"`
	// StartTime and Lambda pin the stream epoch so a recovered pipeline
	// cannot silently continue with different split parameters.
	StartTime int64   `json:"start_time"`
	Lambda    float64 `json:"lambda"`
}

// RecoverOptions configures journal recovery.
type RecoverOptions struct {
	// Lambda and Tree configure a fresh stream (no prior state). A
	// recovered stream keeps its journaled lambda; a conflicting
	// non-zero Lambda here is an error, not silently ignored.
	Lambda float64
	Tree   stx.PPROptions
	// WAL sizes the append side the recovered journal continues with.
	WAL WALConfig
}

// Recovered is the outcome of Recover: a writable stream index holding
// every durable record, and a WAL positioned to append the next one.
type Recovered struct {
	// Index is nil when the directory holds no state yet (the pipeline
	// creates it on the first accepted record).
	Index *stx.StreamIndex
	// WAL continues the journal exactly where the durable prefix ends.
	WAL *WAL
	// Seq counts the records in Index (snapshot-covered + replayed).
	Seq uint64
	// SnapshotSeq of them came from the decoded freeze container.
	SnapshotSeq uint64
	// SnapshotPath is the absolute path of that container ("" if none).
	SnapshotPath string
	// Replayed is the number of journal records applied on top.
	Replayed int
	// TornBytes were truncated from the final segment's torn tail.
	TornBytes int64
	// StartTime, Lambda and MaxT restore the pipeline's admission state.
	StartTime int64
	Lambda    float64
	MaxT      int64
	// SnapshotMaxT is the frozen container's own clock. Replay advances
	// MaxT past it, but the replayed records exist only in the live
	// index — the container still answers nothing later than this, so it
	// is the frozen/live split boundary, not MaxT.
	SnapshotMaxT int64
	// EpochSet reports whether the stream epoch is known (any state at
	// all existed).
	EpochSet bool
}

// Recover rebuilds the live state from dir: delete the temp files an
// interrupted freeze left, decode the snapshot named by CURRENT (if
// any), then replay every journal record past it, truncating
// a torn tail in the final segment rather than failing. Corruption
// anywhere else — a bad frame with more journal after it, a sequence gap,
// an epoch mismatch — is fail-stop: recovery refuses to produce a state
// that might silently disagree with what was acknowledged.
func Recover(dir string, opts RecoverOptions) (*Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rec := &Recovered{Lambda: opts.Lambda}

	// 0. Temp files a crash left between create and rename: neither
	// CURRENT nor any container name points at them.
	tmps, err := filepath.Glob(filepath.Join(dir, tmpPattern))
	if err != nil {
		return nil, err
	}
	for _, path := range tmps {
		if err := os.Remove(path); err != nil {
			return nil, err
		}
	}

	// 1. Snapshot, if CURRENT names one.
	cur, err := readCurrent(dir)
	if err != nil {
		return nil, err
	}
	if cur != nil {
		path := filepath.Join(dir, cur.Container)
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("ingest: CURRENT names %s: %w", cur.Container, err)
		}
		idx, err := stx.DecodeIndex(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("ingest: decoding snapshot %s: %w", cur.Container, err)
		}
		six, ok := idx.(*stx.StreamIndex)
		if !ok {
			return nil, fmt.Errorf("ingest: snapshot %s is kind %q, want a stream index", cur.Container, idx.Kind())
		}
		if six.Lambda() != cur.Lambda {
			return nil, fmt.Errorf("ingest: snapshot lambda %g disagrees with CURRENT %g", six.Lambda(), cur.Lambda)
		}
		rec.Index = six
		rec.Seq = cur.Seq
		rec.SnapshotSeq = cur.Seq
		rec.SnapshotPath = path
		rec.StartTime = cur.StartTime
		rec.Lambda = cur.Lambda
		rec.MaxT = cur.MaxT
		rec.SnapshotMaxT = cur.MaxT
		rec.EpochSet = true
		if now := six.Now(); now != cur.MaxT {
			return nil, fmt.Errorf("ingest: snapshot clock %d disagrees with CURRENT max_t %d", now, cur.MaxT)
		}
	}
	if opts.Lambda != 0 && rec.EpochSet && opts.Lambda != rec.Lambda {
		return nil, fmt.Errorf("ingest: configured lambda %g conflicts with recovered stream's %g", opts.Lambda, rec.Lambda)
	}

	// 2. Scan the journal segments in seq order.
	names, err := filepath.Glob(filepath.Join(dir, walPattern))
	if err != nil {
		return nil, err
	}
	sort.Strings(names) // fixed-width hex first-seq: lexical == numeric
	w := newWAL(dir, opts.WAL)
	st := streamState{ix: rec.Index, opts: stx.StreamOptions{PPR: opts.Tree}, startTime: rec.StartTime, seq: rec.Seq, maxT: rec.MaxT}
	var closed []segInfo
	var tailFile File
	var tailInfo segInfo
	var tailSize int64
	for i, path := range names {
		last := i == len(names)-1
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		first, startTime, lambda, err := decodeSegHeader(data)
		if err != nil {
			if last && errors.Is(err, errTorn) {
				// A crash during rotation can leave a header-less final
				// segment; it holds no durable records, so drop it.
				rec.TornBytes += int64(len(data))
				if err := os.Remove(path); err != nil {
					return nil, err
				}
				break
			}
			return nil, fmt.Errorf("ingest: segment %s: %w", filepath.Base(path), err)
		}
		if rec.EpochSet && (startTime != rec.StartTime || lambda != rec.Lambda) {
			return nil, fmt.Errorf("ingest: segment %s epoch (%d, %g) disagrees with (%d, %g)",
				filepath.Base(path), startTime, lambda, rec.StartTime, rec.Lambda)
		}
		if !rec.EpochSet {
			if opts.Lambda != 0 && opts.Lambda != lambda {
				return nil, fmt.Errorf("ingest: configured lambda %g conflicts with journaled %g", opts.Lambda, lambda)
			}
			rec.StartTime, rec.Lambda, rec.EpochSet = startTime, lambda, true
		}
		if want := filepath.Join(dir, segName(first)); want != path {
			return nil, fmt.Errorf("ingest: segment %s claims first seq %d", filepath.Base(path), first)
		}
		prevEnd := rec.SnapshotSeq + 1
		if len(closed) > 0 {
			prevEnd = closed[len(closed)-1].first + closed[len(closed)-1].count
		}
		if i == 0 {
			if first > rec.SnapshotSeq+1 {
				return nil, fmt.Errorf("ingest: journal gap: snapshot covers %d records but the oldest segment starts at seq %d", rec.SnapshotSeq, first)
			}
		} else if first != prevEnd {
			return nil, fmt.Errorf("ingest: journal gap: segment %s starts at seq %d, want %d", filepath.Base(path), first, prevEnd)
		}

		// Frames. The segment's records past the recovered prefix are
		// applied together below, in one write-back bracket.
		body := data[walHeader:]
		off := 0
		seq := first
		count := uint64(0)
		var pending []Record
		for off < len(body) {
			r, n, err := decodeFrame(body[off:])
			if err != nil {
				if last && errors.Is(err, errTorn) {
					// Torn tail: truncate the segment to its valid
					// prefix; the lost bytes were never acknowledged.
					rec.TornBytes += int64(len(body) - off)
					if err := os.Truncate(path, int64(walHeader+off)); err != nil {
						return nil, err
					}
					break
				}
				return nil, fmt.Errorf("ingest: segment %s record %d: %w", filepath.Base(path), seq, err)
			}
			if n == 0 {
				break
			}
			if seq > rec.Seq+uint64(len(pending)) {
				pending = append(pending, r)
			}
			off += n
			seq++
			count++
		}
		if len(pending) > 0 {
			// Replay of validated records cannot legitimately fail; an
			// error means the journal and the snapshot disagree, and
			// recovery fail-stops.
			st.opts.Lambda = rec.Lambda
			if err := st.apply([][]Record{pending}); err != nil {
				return nil, fmt.Errorf("ingest: replaying segment %s from seq %d: %w", filepath.Base(path), rec.Seq+1, err)
			}
			rec.Index, rec.Seq, rec.MaxT = st.ix, st.seq, st.maxT
			rec.Replayed += len(pending)
		}

		if last {
			if first+count <= rec.SnapshotSeq {
				return nil, fmt.Errorf("ingest: journal ends at seq %d but the snapshot covers %d records — journal tail lost", first+count-1, rec.SnapshotSeq)
			}
			// Reopen the tail segment for appending (post-truncation).
			f, err := w.cfg.FS.OpenAppend(path)
			if err != nil {
				return nil, err
			}
			tailFile, tailInfo = f, segInfo{path: path, first: first, count: count}
			tailSize = int64(walHeader + off)
		} else {
			closed = append(closed, segInfo{path: path, first: first, count: count})
		}
	}

	// 3. Hand the WAL its position.
	if rec.EpochSet {
		w.SetEpoch(rec.StartTime, rec.Lambda)
	}
	if tailFile != nil {
		w.adoptActive(closed, tailFile, tailInfo.path, tailInfo.first, tailInfo.count, tailSize)
	} else {
		w.mu.Lock()
		w.closed = append(w.closed, closed...)
		if rec.Seq+1 > w.nextSeq {
			w.nextSeq = rec.Seq + 1
		}
		w.mu.Unlock()
	}
	rec.WAL = w
	return rec, nil
}

// readCurrent loads the CURRENT pointer, nil when absent.
func readCurrent(dir string) (*currentState, error) {
	data, err := os.ReadFile(filepath.Join(dir, currentFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var cur currentState
	if err := json.Unmarshal(data, &cur); err != nil {
		return nil, fmt.Errorf("ingest: parsing CURRENT: %w", err)
	}
	if cur.Container == "" || cur.Container != filepath.Base(cur.Container) {
		return nil, fmt.Errorf("ingest: CURRENT names invalid container %q", cur.Container)
	}
	return &cur, nil
}

// writeCurrent atomically replaces the CURRENT pointer through fs.
func writeCurrent(fs FS, dir string, cur currentState) error {
	data, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	return writeAtomic(fs, dir, currentFile, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
