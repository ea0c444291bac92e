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
	// 3 backends x 4 kinds x 2 parallelism levels + 4 container
	// round-trips + 4 shared-cache round-trips + 4 kinds x 2 codecs x 3
	// open backends + 4 sharded passes.
	if want := 3*4*2 + 4 + 4 + 4*2*3 + 4; rep.Passes != want {
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
	// disk + shared cache) for both codecs, plus the sharded fail-stop
	// pass's schedules.
	if want := (len(AllKinds)*2*len(faultVariants) + 1) * len(DefaultReadSchedules); rep.Schedules != want {
		t.Errorf("Schedules = %d, want %d", rep.Schedules, want)
	}
	if rep.Injected == 0 {
		t.Error("fault matrix completed without a single injected fault")
	}
}
