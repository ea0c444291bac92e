// Command bench is the repository's end-to-end benchmark (see README.md
// in this directory and BENCHMARK.json at the repository root). It runs
// fixed operation lists against the real stserve binary over loopback
// HTTP (serve-hot, serve-cold, ingest-mixed) and against the public
// stindex API in-process (build-offline), checks every answer against
// internal/check.Oracle, and reports each end-to-end metric as the
// median of its rounds. With -trace 1 it replays the workload in-process
// with spans around each layer's public functions and reports the
// per-layer metrics instead.
//
//	bash bench/run.sh --seed 1                      # all four workloads
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 9 --trace 0
//	bash bench/run.sh --workload serve-cold --seed 1 --trace 1
//
// The last line of standard output is one JSON object {"correct",
// "attempted", "failed", "metrics"}; with several workloads each metric
// is prefixed "<workload>/". The exit status is non-zero on any oracle
// mismatch, failed operation or broken /metrics invariant.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	stx "stindex"
)

// workloadDeadline bounds one workload wall-clock; past it the server is
// killed and the run fails. Nothing in a healthy run comes near it.
const workloadDeadline = 170 * time.Second

// runCtx is what every workload needs to run.
type runCtx struct {
	root      string
	work      string
	serverBin string
	scale     scale
	seed      int64
	rounds    int // timed rounds per repetition
	env       runEnv
	deadline  time.Time
	// corruptExpected makes one reference answer wrong after the oracle
	// has produced it; only the tests set it, to prove the gate is live.
	corruptExpected bool
}

func (rc *runCtx) dataDir(workload string) (string, error) {
	return os.MkdirTemp(rc.work, workload+"-")
}

func (rc *runCtx) corrupt(e *answer) {
	if !rc.corruptExpected {
		return
	}
	e.ids = append(e.ids, -1)
	e.atLeast = append(e.atLeast, -1)
	e.nb = append(e.nb, stx.Neighbor{ObjectID: -1})
	e.traj = append(e.traj, stx.TrajectoryHit{ObjectID: -1})
}

// result is one workload's output row.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Reps      int                `json:"reps"`
	Rounds    int                `json:"rounds"` // timed rounds over all repetitions
	WallS     float64            `json:"wall_s"` // the whole workload, set-ups and checks included
	Env       runEnv             `json:"env"`
	Counts    map[string]int     `json:"op_counts"`
	Inputs    map[string]string  `json:"input_digests"`
	Attempted int                `json:"ops"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	FirstErr  string             `json:"first_error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Series    map[string]series  `json:"per_round"`
	// Extra holds counts worth seeing beside the metrics of BENCHMARK.json
	// (serve-*: store reads over the timed rounds; traced: the worst gap
	// between a root span and the self times under it).
	Extra map[string]float64 `json:"extra,omitempty"`
}

func (rc *runCtx) newResult(workload string) *result {
	return &result{
		Workload: workload, Seed: rc.seed, Reps: rc.scale.Reps, Rounds: rc.rounds * rc.scale.Reps, Env: rc.env, Correct: true,
		Counts: map[string]int{}, Inputs: map[string]string{},
		Metrics: map[string]float64{}, Series: map[string]series{}, Extra: map[string]float64{},
	}
}

// count accounts a group of operations; any failure makes the run
// incorrect (every workload is chosen so that no operation fails).
func (r *result) count(attempted, failed int, firstErr error) {
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 {
		r.Correct = false
	}
	if firstErr != nil && r.FirstErr == "" {
		r.FirstErr = firstErr.Error()
	}
}

// fail records a broken invariant.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if r.FirstErr == "" {
		r.FirstErr = fmt.Sprintf(format, args...)
	}
}

// setSeries reports a timing metric as the median of its rounds.
func (r *result) setSeries(name string, rounds []float64) {
	s := newSeries(rounds)
	r.Series[name] = s
	r.Metrics[name] = s.Median
}

var runners = map[string]func(*runCtx) (*result, error){
	wBuildOffline: runBuildOffline,
	wServeHot:     runServeHot,
	wServeCold:    runServeCold,
	wIngestMixed:  runIngestMixed,
}

var tracers = map[string]func(*runCtx) (*result, error){
	wBuildOffline: traceBuildOffline,
	wServeHot:     traceServeHot,
	wServeCold:    traceServeCold,
	wIngestMixed:  traceIngestMixed,
}

// finalLine is the contract's last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, " | ")+" (default: all four)")
		seed     = flag.Int64("seed", 1, "the only input: datasets, query lists and the observation feed derive from it")
		seconds  = flag.Int("seconds", 9, "nominal timed-phase length; picks the number of fixed-work rounds (never fewer than 9)")
		trace    = flag.Int("trace", 0, "1 = replay in-process with spans and report the per-layer metrics instead")
		tiny     = flag.Bool("tiny", false, "tiny operation counts (smoke test; the numbers mean nothing)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	names := workloadNames
	if *workload != "" {
		if runners[*workload] == nil {
			fatal(fmt.Errorf("unknown workload %q (want %s)", *workload, strings.Join(workloadNames, ", ")))
		}
		names = []string{*workload}
	}

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	work, err := workDir(root)
	if err != nil {
		fatal(err)
	}
	rc := &runCtx{
		root: root, work: work, scale: fullScale, seed: *seed,
		rounds: roundsPerRep(*seconds, fullScale.Reps),
	}
	if *tiny {
		rc.scale, rc.rounds = tinyScale, 3
	}
	if rc.serverBin, err = buildServer(root, work); err != nil {
		fatal(err)
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}

	final := finalLine{Correct: true, Metrics: map[string]finalMetric{}}
	for _, name := range names {
		rc.deadline = time.Now().Add(workloadDeadline)
		// The watchdogs kill a hung stserve at the deadline, which fails the
		// run through its connections; this is the backstop for everything
		// else (the in-process replays have no child to kill).
		backstop := time.AfterFunc(workloadDeadline+5*time.Second, func() {
			fatal(fmt.Errorf("%s: still running past its hard deadline", name))
		})
		rc.env = captureEnv(work)
		run, units := runners[name], endToEndUnits
		if *trace != 0 {
			run, units = tracers[name], perLayerUnits
		}
		t0 := time.Now()
		res, err := run(rc)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		backstop.Stop()
		res.WallS = time.Since(t0).Seconds()
		res.Traced = *trace != 0
		printResult(res, units)
		kind := "run"
		if res.Traced {
			kind = "layers"
		}
		if err := writeJSON(filepath.Join(outDir, kind+"-"+name+".json"), res, true); err != nil {
			fatal(err)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for metric, unit := range units {
			v, ok := res.Metrics[metric]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				fatal(fmt.Errorf("%s: metric %s missing or not finite (%v)", name, metric, v))
			}
			key := metric
			if len(names) > 1 {
				key = name + "/" + metric
			}
			final.Metrics[key] = finalMetric{Value: v, Unit: unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

// printResult prints one workload's metrics by name with their units,
// then the per-round values behind each median.
func printResult(res *result, units map[string]string) {
	e := res.Env
	fmt.Printf("== %s  seed=%d reps=%d rounds=%d traced=%v wall=%.1fs  nproc=%d GOMAXPROCS=%d %s load1=%.2f data=%s (%s)\n",
		res.Workload, res.Seed, res.Reps, res.Rounds, res.Traced, res.WallS, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Load1, e.DataDir, e.DataFS)
	if e.DataFS == "tmpfs" {
		fmt.Println("   data directory is tmpfs: fsync is free here, device flush cost is excluded")
	}
	fmt.Printf("   ops=%d failed=%d correct=%v  counts=%v\n", res.Attempted, res.Failed, res.Correct, res.Counts)
	if res.FirstErr != "" {
		fmt.Printf("   first error: %s\n", res.FirstErr)
	}
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("   %-34s %14.4f %s", name, res.Metrics[name], units[name])
		if s, ok := res.Series[name]; ok {
			fmt.Printf("   [q1 %.4g  q3 %.4g  rounds", s.Q1, s.Q3)
			for _, v := range s.Rounds {
				fmt.Printf(" %.4g", v)
			}
			fmt.Print("]")
		}
		fmt.Println()
	}
}

// writeJSON writes v to path: indented for the small result rows,
// compact for span files.
func writeJSON(path string, v any, indent bool) error {
	data, err := json.Marshal(v)
	if indent {
		data, err = json.MarshalIndent(v, "", " ")
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
