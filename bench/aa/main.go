// Command aa is the benchmark's A/A check: it runs the suite as two
// interleaved sets (ABAB…) of the same build and, for every workload ×
// end-to-end metric, prints the two medians, how much worse the second
// is than the first, the spread of each set (interquartile range over
// median, quartiles as Python's statistics.quantiles gives them) and the
// metric's bound from BENCHMARK.json. It exits non-zero when a median
// difference or a spread exceeds its bound — the two things the driver
// checks, except that the driver lets setup_s's spread pass and this
// does not.
//
//	cd bench && go run ./aa -n 5
//
// Run i of either set uses seed i+1: as in the driver's check, every run
// of a set has another seed, so the spread includes how much a metric
// depends on the generated data, not only on the clock.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type finalLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	n := flag.Int("n", 5, "runs per set")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fatal(err)
	}

	breaches := 0
	for _, w := range bf.Workloads {
		// sets[0] and sets[1] hold, per metric, the values of set A and B.
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < *n; i++ {
			for set := 0; set < 2; set++ {
				line, err := runOnce(root, bf, w.Name, int64(i+1))
				if err != nil {
					fatal(fmt.Errorf("%s set %c run %d: %w", w.Name, 'A'+set, i, err))
				}
				for name, m := range line.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: %s %c%d done\n", w.Name, 'A'+set, i)
			}
		}
		fmt.Printf("\n%s (n=%d per set)\n", w.Name, *n)
		fmt.Printf("| metric | unit | median A | median B | B worse by | spread A | spread B | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
		for _, m := range bf.EndToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			spreadA, spreadB := iqrOverMedian(sets[0][m.Name]), iqrOverMedian(sets[1][m.Name])
			verdict := "ok"
			if worse > m.Bound || spreadA > m.Bound || spreadB > m.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				m.Name, m.Unit, a, b, 100*worse, 100*spreadA, 100*spreadB, 100*m.Bound, verdict)
			fmt.Fprintf(os.Stderr, "aa: %s/%s A=%.6g B=%.6g\n", w.Name, m.Name, sets[0][m.Name], sets[1][m.Name])
		}
	}
	if breaches > 0 {
		fmt.Printf("\n%d breach(es)\n", breaches)
		os.Exit(1)
	}
}

// runOnce runs the benchmark command of BENCHMARK.json the way the driver
// does and parses the last line of its standard output.
func runOnce(root string, bf benchmarkFile, workload string, seed int64) (finalLine, error) {
	var line finalLine
	args := append(append([]string{}, bf.Command[1:]...),
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
	cmd := exec.Command(bf.Command[0], args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return line, fmt.Errorf("%v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, fmt.Errorf("last line is not the result object: %w", err)
	}
	if !line.Correct || line.Failed != 0 {
		return line, fmt.Errorf("run incorrect: %d of %d operations failed", line.Failed, line.Attempted)
	}
	return line, nil
}

func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

func median(v []float64) float64 {
	s := append([]float64{}, v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// iqrOverMedian is (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method), which is
// what the driver computes.
func iqrOverMedian(v []float64) float64 {
	s := append([]float64{}, v...)
	sort.Float64s(s)
	if len(s) < 2 {
		return 0
	}
	q := func(i int) float64 {
		const n = 4
		ld := len(s)
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return (q(3) - q(1)) / median(s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aa:", err)
	os.Exit(2)
}
