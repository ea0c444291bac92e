package check

import (
	"path/filepath"
	"testing"

	stx "stindex"
)

// TestRunDiffSmall pins the comparison side of Run: how many passes it
// makes, how many answers it compares and how many it checks over HTTP.
func TestRunDiffSmall(t *testing.T) {
	rep, err := Run(DiffConfig{
		Objects:     150,
		Horizon:     500,
		Queries:     60,
		Seed:        11,
		Parallelism: []int{1, 2},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", rep.Seed, err)
	}
	kinds, flavours, levels := len(AllKinds), 2, 2
	total := 3 * rep.Queries // window, kNN and trajectory queries
	// Per kind: the built index, the decoded one and each reopened
	// flavour (disk, mmap) at every parallelism level, then the
	// shared-cache sessions and the sharded pass, which each diff the
	// workload twice.
	if want := kinds * (levels*(2+flavours) + 2); rep.Passes != want {
		t.Errorf("Passes = %d, want %d", rep.Passes, want)
	}
	if want := kinds * (levels*(2+flavours) + 2*2) * total; rep.Compared != want {
		t.Errorf("Compared = %d, want %d", rep.Compared, want)
	}
	if want := kinds * total; rep.HTTPChecked != want {
		t.Errorf("HTTPChecked = %d, want %d", rep.HTTPChecked, want)
	}
}

// TestRunFaultMatrixSmall pins the fault side of Run: every read schedule
// runs in every fault variant, and the faults really fire.
func TestRunFaultMatrixSmall(t *testing.T) {
	rep, err := Run(DiffConfig{
		Objects: 120,
		Horizon: 400,
		Queries: 40,
		Seed:    13,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", rep.Seed, err)
	}
	// Every kind runs every schedule in every fault variant (pread, mmap,
	// pread + shared cache), plus the sharded fail-stop pass's schedules.
	if want := (len(AllKinds)*len(faultVariants) + 1) * len(DefaultReadSchedules); rep.Schedules != want {
		t.Errorf("Schedules = %d, want %d", rep.Schedules, want)
	}
	if rep.Injected == 0 {
		t.Error("fault matrix completed without a single injected fault")
	}
}

// extraReadIndex charges one page read more than its index does.
type extraReadIndex struct{ stx.Index }

func (x extraReadIndex) IOStats() stx.IOStats {
	s := x.Index.IOStats()
	s.Reads++
	return s
}

// TestSameWindowIODetectsMismatch: a container reopened through the
// mapping passes the cold-buffer I/O check against its built index, and
// an index whose every query costs one read more fails it.
func TestSameWindowIODetectsMismatch(t *testing.T) {
	wl, err := GenerateWorkload(120, 400, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range AllKinds {
		built, err := BuildKind(kind, wl)
		if err != nil {
			t.Fatal(err)
		}
		want, err := windowIO(built, wl)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), kind+".stic")
		if _, err := saveImage(built, path); err != nil {
			t.Fatal(err)
		}
		opened, err := stx.OpenIndexOptions(path, stx.OpenOptions{Backend: stx.BackendMmap})
		if err != nil {
			t.Fatal(err)
		}
		defer stx.CloseIndex(opened)
		if err := sameWindowIO(opened, wl, want); err != nil {
			t.Errorf("%s: reopened container: %v", kind, err)
		}
		if err := sameWindowIO(extraReadIndex{opened}, wl, want); err == nil {
			t.Errorf("%s: one extra read per query went unnoticed", kind)
		}
	}
}
