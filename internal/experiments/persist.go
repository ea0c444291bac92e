package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	stx "stindex"

	"stindex/internal/datagen"
)

// PersistRow records the container size of one index kind at one dataset
// size, and the AvgIO check between the built index and its lazily
// reopened copy.
type PersistRow struct {
	Size    int
	Kind    string
	Records int
	// Bytes is the container image size on disk, the at-rest footprint
	// after struct encoding.
	Bytes int64
	// BuiltAvgIO and LazyAvgIO are the snapshot-mixed workload averages
	// on the built index and the lazily reopened one; the container
	// format guarantees they match exactly — logical page reads do not
	// depend on the at-rest encoding.
	BuiltAvgIO float64
	LazyAvgIO  float64
}

// Persist saves each index and reports the container size. It checks
// that the eager load (DecodeIndex) holds every record and that the
// paper's AvgIO metric replayed against the lazily reopened index
// (OpenIndex) is bit-equal to the built one's, since the page layout and
// buffer policy are identical on both sides and the codec only changes
// the at-rest encoding. It prints no timings: one save or
// open cannot be timed to better than ×2; the benchmark's stindex.save_s
// and stindex.open_us measure them.
func Persist(cfg Config) ([]PersistRow, error) {
	cfg = cfg.withDefaults()
	cfg.printf("Persistence — container size and reopened AvgIO (150%% splits)\n")
	cfg.printf("%8s %8s %8s | %8s | %8s %8s\n",
		"objects", "kind", "records", "KiB", "avg-io", "reopen")
	dir, err := os.MkdirTemp("", "stindex-persist")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	qs, err := cfg.queries(datagen.SnapshotMixed)
	if err != nil {
		return nil, err
	}
	queries := toQueries(qs)

	var rows []PersistRow
	for _, n := range cfg.Sizes {
		objs, err := cfg.randomDataset(n)
		if err != nil {
			return nil, err
		}
		records := lagreedyRecords(objs, n*3/2, cfg.Parallelism)
		builders := []struct {
			kind  string
			build func() (stx.Index, error)
		}{
			{"ppr", func() (stx.Index, error) { return stx.BuildPPR(records, stx.PPROptions{}) }},
			{"rstar", func() (stx.Index, error) { return stx.BuildRStar(records, stx.RStarOptions{ShuffleSeed: 42}) }},
		}
		for _, b := range builders {
			built, err := b.build()
			if err != nil {
				return nil, err
			}
			builtRes, err := stx.MeasureWorkloadParallel(built, queries, cfg.Parallelism)
			if err != nil {
				return nil, err
			}

			path := filepath.Join(dir, fmt.Sprintf("%s-%d.sti", b.kind, n))
			if err := stx.SaveIndex(path, built); err != nil {
				return nil, err
			}
			fi, err := os.Stat(path)
			if err != nil {
				return nil, err
			}

			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			eager, err := stx.DecodeIndex(f)
			f.Close()
			if err != nil {
				return nil, err
			}
			if eager.Records() != built.Records() {
				return nil, fmt.Errorf("persist: %s/%d: eager reload has %d records, built %d",
					b.kind, n, eager.Records(), built.Records())
			}

			lazy, err := stx.OpenIndex(path)
			if err != nil {
				return nil, err
			}
			lazyRes, err := stx.MeasureWorkloadParallel(lazy, queries, cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			if err := stx.CloseIndex(lazy); err != nil {
				return nil, err
			}
			if lazyRes.AvgIO != builtRes.AvgIO {
				return nil, fmt.Errorf("persist: %s/%d: reopened AvgIO %.4f != built %.4f",
					b.kind, n, lazyRes.AvgIO, builtRes.AvgIO)
			}

			row := PersistRow{
				Size: n, Kind: b.kind,
				Records: built.Records(), Bytes: fi.Size(),
				BuiltAvgIO: builtRes.AvgIO, LazyAvgIO: lazyRes.AvgIO,
			}
			rows = append(rows, row)
			cfg.printf("%8d %8s %8d | %8d | %8.3f %8.3f\n",
				n, b.kind, row.Records, row.Bytes/1024, row.BuiltAvgIO, row.LazyAvgIO)
		}
	}
	cfg.printf("\n")
	return rows, nil
}
