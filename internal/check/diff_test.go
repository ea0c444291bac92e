package check

import (
	"testing"
)

func TestRunDiffSmall(t *testing.T) {
	rep, err := RunDiff(DiffConfig{
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
	// 3 backends x 3 kinds x 2 parallelism levels + 3 container
	// round-trips + 3 shared-cache round-trips + 3 kinds x 3 open
	// backends + 3 sharded passes.
	if want := 3*3*2 + 3 + 3 + 3*3 + 3; rep.Passes != want {
		t.Errorf("Passes = %d, want %d", rep.Passes, want)
	}
	if rep.Compared == 0 || rep.Queries == 0 {
		t.Errorf("empty run: %+v", rep)
	}
}

func TestRunFaultMatrixSmall(t *testing.T) {
	rep, err := RunFaultMatrix(DiffConfig{
		Objects: 120,
		Horizon: 400,
		Queries: 40,
		Seed:    13,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", rep.Seed, err)
	}
	// Every kind runs every schedule in every open flavour (pread, mmap,
	// disk + shared cache), plus the sharded fail-stop pass's schedules.
	if want := (len(AllKinds)*len(faultVariants) + 1) * len(DefaultReadSchedules); rep.Schedules != want {
		t.Errorf("Schedules = %d, want %d", rep.Schedules, want)
	}
	if rep.Injected == 0 {
		t.Error("fault matrix completed without a single injected fault")
	}
}
