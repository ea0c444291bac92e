package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct {
		p, n, want int
	}{
		{0, -1, max},        // default resolves to GOMAXPROCS
		{-3, -1, max},       // negative too
		{0, 2, min(2, max)}, // clamped to item count
		{4, 2, 2},
		{4, 100, 4},
		{1, 100, 1},
		{7, 0, 1}, // no items still resolves to a valid count
	}
	for _, c := range cases {
		if got := Workers(c.p, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 0} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		ForEach(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachDeterministicSlotWrites(t *testing.T) {
	const n = 5000
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, runtime.NumCPU(), 0} {
		got := make([]int, n)
		ForEach(n, workers, func(i int) { got[i] = i * i })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	if called {
		t.Fatal("fn invoked for empty range")
	}
}
