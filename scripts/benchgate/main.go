// Command benchgate holds `go test -bench` output, piped on stdin, to the
// rows committed in a BENCH file: every benchmark the file records must
// have run, and none may allocate more than 25% above its committed
// "after" row — in allocs/op, and in B/op where the row records it.
// Allocation counts and sizes repeat from run to run, so that is a hard
// failure; ns/op depends on the runner and is only printed as a warning
// when it is more than 25% above the row.
//
//	go test . ./internal/alloc ./internal/split ./internal/rstar ./internal/pprtree ./internal/stream ./internal/ingest -run NONE \
//	    -bench 'BenchmarkSplitDataset|BenchmarkChooseBudgetBySampling|BenchmarkMergePlan|BenchmarkBuildCurvesParallel|BenchmarkMaterializeParallel|BenchmarkBulkLoadSTRParallel|BenchmarkBuild$|BenchmarkStreamApply|BenchmarkDecodeBatch|BenchmarkFreeze' \
//	    -benchtime 3x | go run ./scripts/benchgate BENCH_parallel.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type row struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"` // 0: not recorded, not held
}

type benchFile struct {
	Benchmarks map[string]struct {
		After *row `json:"after"`
	} `json:"benchmarks"`
}

const slack = 1.25

// procSuffix is the -GOMAXPROCS suffix the testing package appends to a
// benchmark's name.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	if len(os.Args) != 2 {
		die("usage: go test -bench ... | benchgate <BENCH file>")
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		die("%v", err)
	}
	var committed benchFile
	if err := json.Unmarshal(data, &committed); err != nil {
		die("%s: %v", os.Args[1], err)
	}

	measured := map[string]row{}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		fmt.Println(sc.Text())
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		var r row
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			}
		}
		measured[procSuffix.ReplaceAllString(f[0], "")] = r
	}
	if err := sc.Err(); err != nil {
		die("reading benchmark output: %v", err)
	}

	names := make([]string, 0, len(committed.Benchmarks))
	for name, b := range committed.Benchmarks {
		if b.After != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		want := *committed.Benchmarks[name].After
		got, ok := measured[name]
		switch {
		case !ok:
			fmt.Printf("FAIL: %s is recorded in %s but did not run\n", name, os.Args[1])
			failed = true
		case got.AllocsPerOp > want.AllocsPerOp*slack:
			fmt.Printf("FAIL: %s allocates %.0f allocs/op, committed row %.0f (+25%% allowed)\n",
				name, got.AllocsPerOp, want.AllocsPerOp)
			failed = true
		case want.BytesPerOp > 0 && got.BytesPerOp > want.BytesPerOp*slack:
			fmt.Printf("FAIL: %s allocates %.0f B/op, committed row %.0f (+25%% allowed)\n",
				name, got.BytesPerOp, want.BytesPerOp)
			failed = true
		case got.NsPerOp > want.NsPerOp*slack:
			fmt.Printf("warning: %s took %.0f ns/op, committed row %.0f (wall clock is not gated)\n",
				name, got.NsPerOp, want.NsPerOp)
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within 25%% of their committed allocs/op and B/op\n", len(names))
}

func die(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(2)
}
