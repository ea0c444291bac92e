package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"testing"
	"time"

	stx "stindex"

	"stindex/internal/check"
)

// The tests run every workload at tinyScale against the real stserve
// binary; `go test ./...` inside bench/ takes a few seconds.

var (
	testEnvOnce sync.Once
	testEnv     runCtx
	testEnvErr  error
)

// testCtx returns a tiny-scale run context with stserve built once.
func testCtx(t *testing.T, seed int64) *runCtx {
	t.Helper()
	testEnvOnce.Do(func() {
		root, err := findRoot()
		if err != nil {
			testEnvErr = err
			return
		}
		work, err := os.MkdirTemp("", "stbench-test-")
		if err != nil {
			testEnvErr = err
			return
		}
		if err := os.MkdirAll(root+"/bench/out", 0o755); err != nil {
			testEnvErr = err
			return
		}
		testEnv = runCtx{root: root, work: work, scale: tinyScale, rounds: 3, env: captureEnv(work)}
		testEnv.serverBin, testEnvErr = buildServer(root, work)
	})
	if testEnvErr != nil {
		t.Fatal(testEnvErr)
	}
	rc := testEnv
	rc.seed = seed
	rc.deadline = time.Now().Add(workloadDeadline)
	return &rc
}

func TestMain(m *testing.M) {
	code := m.Run()
	if testEnv.work != "" {
		os.RemoveAll(testEnv.work)
	}
	os.Exit(code)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// metricSpec mirrors one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkDeclared holds a run's metrics to a section of BENCHMARK.json:
// exactly the declared names, the declared units, finite values.
func checkDeclared(t *testing.T, what string, res *result, declared []metricSpec, units map[string]string) {
	t.Helper()
	var want []string
	for _, m := range declared {
		want = append(want, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: %s has unit %q in the runner, %q in BENCHMARK.json", what, m.Name, units[m.Name], m.Unit)
		}
	}
	sort.Strings(want)
	if got := sortedKeys(units); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: runner reports %v, BENCHMARK.json declares %v", what, got, want)
	}
	for name := range units {
		v, ok := res.Metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s missing or not finite (%v)", what, name, v)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%v ops=%d failed=%d: %s", what, res.Correct, res.Attempted, res.Failed, res.FirstErr)
	}
}

// TestSchemaLock: every workload emits exactly the metric names and
// units BENCHMARK.json lists — end to end untraced, per layer traced —
// BENCHMARK.json stays inside the contract's limits, and the spans of a
// traced request account for its root span.
func TestSchemaLock(t *testing.T) {
	rc := testCtx(t, 1)
	bf, err := loadBenchmarkFile(rc.root)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, runner has %v", declared, workloadNames)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricSpec{}, bf.EndToEnd...), bf.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better=%q", m.Name, m.Better)
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == mSetupS && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range bf.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s (s, lower)")
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || roundsPerRep(bf.RunSeconds, fullScale.Reps)*fullScale.Reps < minRounds {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}

	for _, name := range workloadNames {
		res, err := runners[name](rc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkDeclared(t, name, res, bf.EndToEnd, endToEndUnits)
		for metric := range endToEndUnits {
			if res.Metrics[metric] == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", name, metric)
			}
		}

		layers, err := tracers[name](rc)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		checkDeclared(t, name+" traced", layers, bf.PerLayer, perLayerUnits)
		if gap := layers.Extra["root_self_gap"]; gap > 0.10 {
			t.Errorf("%s traced: self times miss a root span by %.1f%%", name, 100*gap)
		}
		if _, err := os.Stat(rc.root + "/bench/out/trace-" + name + ".json"); err != nil {
			t.Errorf("%s traced: no span file: %v", name, err)
		}
	}
}

// TestOracleGateLive: with one reference answer falsified after the
// oracle produced it, every workload — traced or not — must report the
// run incorrect.
func TestOracleGateLive(t *testing.T) {
	rc := testCtx(t, 1)
	rc.corruptExpected = true
	for _, name := range workloadNames {
		for kind, run := range map[string]func(*runCtx) (*result, error){"run": runners[name], "traced": tracers[name]} {
			res, err := run(rc)
			if err != nil {
				t.Fatalf("%s %s: %v", name, kind, err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s %s: a corrupted reference answer went unnoticed (correct=%v failed=%d)", name, kind, res.Correct, res.Failed)
			}
		}
	}
}

// TestDeterminism: -seed is the only input. The same seed twice gives
// byte-identical datasets, query lists and feeds and identical count
// metrics; another seed changes them.
func TestDeterminism(t *testing.T) {
	type fingerprint struct {
		inputs map[string]string
		counts map[string]float64
	}
	take := func(seed int64) fingerprint {
		rc := testCtx(t, seed)
		fp := fingerprint{inputs: map[string]string{}, counts: map[string]float64{}}
		for _, name := range workloadNames {
			res, err := runners[name](rc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			for k, v := range res.Inputs {
				fp.inputs[name+"/"+k] = v
			}
			if name == wBuildOffline {
				fp.counts["build-offline/io_per_query"] = res.Metrics[mIOPerQuery]
				fp.counts["build-offline/bytes_per_record"] = res.Metrics[mBytesPerRecord]
			}
		}
		layers, err := traceServeCold(rc)
		if err != nil {
			t.Fatalf("serve-cold traced seed %d: %v", seed, err)
		}
		fp.counts["sharding.pruned_frac"] = layers.Metrics["sharding.pruned_frac"]
		fp.counts["split.volume_gain"] = layers.Metrics["split.volume_gain"]
		return fp
	}
	a, b, other := take(1), take(1), take(2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed 1 twice differs:\n%v\n%v", a, b)
	}
	if len(a.inputs) < 7 {
		t.Errorf("only %d input digests: %v", len(a.inputs), a.inputs)
	}
	for k, v := range a.inputs {
		if other.inputs[k] == v {
			t.Errorf("input %s is the same for seeds 1 and 2", k)
		}
	}
	for k, v := range a.counts {
		if other.counts[k] == v {
			t.Errorf("count %s is the same for seeds 1 and 2 (%v)", k, v)
		}
	}
}

// TestTracedSplitMatchesSplitDataset: the traced run splits through the
// alloc layer's functions to get a span per stage; the records must be
// the ones stx.SplitDataset (the untraced path) produces.
func TestTracedSplitMatchesSplitDataset(t *testing.T) {
	const n, seed = 300, 7
	objs, err := generateObjects(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, report, err := stx.SplitDataset(objs, splitConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	res := (&runCtx{}).newResult("test")
	got, err := tracedSplit(nil, n, seed, res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traced split gives %d records, SplitDataset %d, or they differ", len(got), len(want))
	}
	if gain := res.Metrics["split.volume_gain"]; math.Abs(gain-report.Gain()) > 1e-12 {
		t.Errorf("volume gain %v, SplitReport says %v", gain, report.Gain())
	}
}

// TestSpanTree: parents by containment, self time net of the union of
// (possibly overlapping) children, and roots accounted for in full.
func TestSpanTree(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "store", Req: 1, Start: 20, End: 40},
		{Name: "store", Req: 1, Start: 30, End: 60}, // overlaps its sibling (fan-out)
		{Name: "index", Req: 1, Start: 10, End: 80},
		{Name: "handler", Req: 1, Start: 5, End: 90},
		{Name: "client", Req: 1, Start: 0, End: 100},
		{Name: "client", Req: 2, Start: 100, End: 150},
	}
	spans := tr.finish()
	wantParent := []int{2, 2, 3, 4, -1, -1}
	wantSelf := []int64{20, 30, 30, 15, 15, 50}
	for i, s := range spans {
		if s.Parent != wantParent[i] || s.Self != wantSelf[i] {
			t.Errorf("span %d (%s): parent %d self %d, want %d and %d", i, s.Name, s.Parent, s.Self, wantParent[i], wantSelf[i])
		}
	}
	// The overlap of the two store spans is counted once in the parent's
	// self time but twice in theirs, so the root is over-accounted by it.
	if gap := rootSelfGap(spans); math.Abs(gap-0.10) > 1e-9 {
		t.Errorf("root self gap %v, want 0.10", gap)
	}
}

// TestTimeSlicesMatchFullScan: the reference answers come from
// check.Oracle over the records alive during each query's interval; they
// must be the answers the oracle gives over all the records, for every
// query kind, open-ended pieces included.
func TestTimeSlicesMatchFullScan(t *testing.T) {
	objs, err := generateObjects(400, 5)
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := stx.SplitDataset(objs, splitConfig(len(objs)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range records {
		if i%7 == 0 {
			records[i].Interval.End = math.MaxInt64 // an open piece, as the stream index reports them
		}
	}
	qs := append(hotQueries(300, 5), coldQueries(100, 5)...)
	qs = append(qs, newBenchQuery("default", stx.Query{Rect: stx.Rect{MaxX: 1, MaxY: 1}, Interval: stx.Interval{Start: horizon + 50, End: horizon + 60}}))
	fillExpected(records, qs)
	full := check.NewOracle(records)
	for _, q := range qs {
		if want := oracleAnswer(full, q.q); !want.matches(q.q.Kind, q.expect) {
			t.Errorf("%s: sliced oracle answers %d entries, full scan %d", q.path, q.expect.count(q.q.Kind), want.count(q.q.Kind))
		}
	}
}

func TestIntField(t *testing.T) {
	body := []byte(`{"snapshot":"default","gen":1,"count":3,"ids":[7,8,9],"io":12,"elapsed_us":34}` + "\n")
	if n, ok := intField(body, `"count":`, false); !ok || n != 3 {
		t.Errorf("count = %d, %v", n, ok)
	}
	if n, ok := intField(body, `"io":`, true); !ok || n != 12 {
		t.Errorf("io = %d, %v", n, ok)
	}
	if _, ok := intField(body, `"nope":`, false); ok {
		t.Error("found a field that is not there")
	}
}
