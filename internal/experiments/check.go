package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"

	stx "stindex"

	"stindex/internal/check"
	"stindex/internal/service"
)

// CheckRow summarises the correctness-harness run of one workload seed.
type CheckRow struct {
	Seed           int64
	DiffPasses     int    // (kind, backend, parallelism) oracle passes
	Compared       int    // index-vs-oracle query comparisons
	HTTPChecked    int    // queries verified through the stserve HTTP path
	FaultSchedules int    // (kind, schedule) fault combinations driven
	FaultsInjected uint64 // faults that actually fired
}

// Check is the correctness experiment (`stbench -exp check`): for three
// seeded workloads it cross-checks every index kind against the
// brute-force oracle — built in memory, and reopened through the pread
// window and the mapping — at parallelism 1 and 4, repeats the
// comparison through the stserve HTTP path, and drives the
// fault-injection matrix; buffer fault semantics are verified once at the
// end. Any failure message carries the workload seed (and fault schedule
// where one was armed), which is everything needed to replay it with
// stcheck.
func Check(cfg Config) ([]CheckRow, error) {
	cfg = cfg.withDefaults()
	objects := cfg.Sizes[0]
	queries := cfg.Queries
	if queries > 200 {
		queries = 200 // the oracle is O(queries x records) per pass
	}
	seeds := []int64{cfg.Seed, cfg.Seed + 1, cfg.Seed + 2}
	cfg.printf("Check — differential oracle, HTTP path and fault matrix; %d objects, %d queries, seeds %v\n",
		objects, queries, seeds)
	cfg.printf("%8s %8s %10s %10s %10s %10s\n",
		"seed", "passes", "compared", "http-ok", "schedules", "injected")

	var rows []CheckRow
	for _, seed := range seeds {
		dcfg := check.DiffConfig{
			Objects:     objects,
			Horizon:     cfg.Horizon,
			Queries:     queries,
			Seed:        seed,
			Parallelism: []int{1, 4},
		}
		drep, err := check.RunDiff(dcfg)
		if err != nil {
			return rows, fmt.Errorf("differential check FAILED — replay with workload seed %d: %w", seed, err)
		}
		wl, err := check.GenerateWorkload(objects, cfg.Horizon, seed, queries)
		if err != nil {
			return rows, err
		}
		httpChecked, err := httpCheckPass(wl)
		if err != nil {
			return rows, fmt.Errorf("HTTP check FAILED — replay with workload seed %d: %w", seed, err)
		}
		frep, err := check.RunFaultMatrix(dcfg)
		if err != nil {
			return rows, fmt.Errorf("fault matrix FAILED — replay with workload seed %d: %w", seed, err)
		}
		row := CheckRow{
			Seed:           seed,
			DiffPasses:     drep.Passes,
			Compared:       drep.Compared,
			HTTPChecked:    httpChecked,
			FaultSchedules: frep.Schedules,
			FaultsInjected: frep.Injected,
		}
		rows = append(rows, row)
		cfg.printf("%8d %8d %10d %10d %10d %10d\n",
			row.Seed, row.DiffPasses, row.Compared, row.HTTPChecked, row.FaultSchedules, row.FaultsInjected)
	}
	if err := check.VerifyBufferFaults(); err != nil {
		return rows, err
	}
	cfg.printf("buffer fault semantics: ok\n\n")
	return rows, nil
}

// httpCheckPass publishes every index kind into one service, serves it
// over a real TCP listener with the stserve HTTP handler, and compares
// every query answer fetched over the wire against the oracle.
func httpCheckPass(wl *check.Workload) (int, error) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	expected := make(map[string]*check.Expected, len(check.AllKinds))
	for _, kind := range check.AllKinds {
		idx, err := check.BuildKind(kind, wl, stx.BackendMemory)
		if err != nil {
			return 0, fmt.Errorf("building %s: %w", kind, err)
		}
		if expected[kind], err = check.ExpectedAnswers(idx, wl); err != nil {
			return 0, fmt.Errorf("%s: %w", kind, err)
		}
		if _, err := svc.Registry().Publish(kind, idx); err != nil {
			return 0, fmt.Errorf("publishing %s: %w", kind, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	server := &http.Server{Handler: service.NewHandler(svc)}
	go server.Serve(ln)
	defer server.Close()
	base := "http://" + ln.Addr().String()

	checked := 0
	for _, kind := range check.AllKinds {
		exp := expected[kind]
		for i, q := range wl.Queries {
			ids, err := httpQuery(base, kind, q)
			if err != nil {
				return checked, fmt.Errorf("kind %s query %d over HTTP: %w", kind, i, err)
			}
			if !check.SameIDs(ids, exp.Window[i]) {
				return checked, fmt.Errorf("kind %s query %d over HTTP: got %v, oracle says %v",
					kind, i, check.SortedIDs(ids), exp.Window[i])
			}
			if !check.StrictlyAscending(ids) {
				return checked, fmt.Errorf("kind %s query %d over HTTP: answer %v is not strictly ascending", kind, i, ids)
			}
			checked++
		}
		for i, q := range wl.KNNQueries {
			nbs, err := httpKNN(base, kind, q)
			if err != nil {
				return checked, fmt.Errorf("kind %s knn query %d over HTTP: %w", kind, i, err)
			}
			if !check.SameNeighbors(nbs, exp.KNN[i]) {
				return checked, fmt.Errorf("kind %s knn query %d over HTTP: got %v, oracle says %v",
					kind, i, nbs, exp.KNN[i])
			}
			checked++
		}
		for i, q := range wl.TrajQueries {
			hits, err := httpTrajectory(base, kind, q)
			if err != nil {
				return checked, fmt.Errorf("kind %s trajectory query %d over HTTP: %w", kind, i, err)
			}
			if !check.SameTrajectories(hits, exp.Traj[i]) {
				return checked, fmt.Errorf("kind %s trajectory query %d over HTTP: got %v, oracle says %v",
					kind, i, hits, exp.Traj[i])
			}
			checked++
		}
	}
	return checked, nil
}

// httpQuery runs one query through GET /query and returns the IDs.
func httpQuery(base, snapshot string, q stx.Query) ([]int64, error) {
	url := fmt.Sprintf("%s/query?snapshot=%s&rect=%g,%g,%g,%g",
		base, snapshot, q.Rect.MinX, q.Rect.MinY, q.Rect.MaxX, q.Rect.MaxY)
	if q.IsSnapshot() {
		url += fmt.Sprintf("&t=%d", q.Interval.Start)
	} else {
		url += fmt.Sprintf("&from=%d&to=%d", q.Interval.Start, q.Interval.End)
	}
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var qr struct {
		IDs []int64 `json:"ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return nil, err
	}
	return qr.IDs, nil
}

// httpFetch runs one GET /query and decodes the JSON answer into v.
func httpFetch(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// httpKNN runs one kNN query through GET /query. The %g point encoding
// is the shortest float representation, which round-trips float64
// exactly, so the comparison against the oracle stays bit-exact across
// the wire.
func httpKNN(base, snapshot string, q stx.Query) ([]stx.Neighbor, error) {
	url := fmt.Sprintf("%s/query?snapshot=%s&kind=knn&x=%g&y=%g&t=%d&k=%d",
		base, snapshot, q.Rect.MinX, q.Rect.MinY, q.Interval.Start, q.K)
	var qr struct {
		Neighbors []struct {
			ID    int64   `json:"id"`
			Dist2 float64 `json:"dist2"`
		} `json:"neighbors"`
	}
	if err := httpFetch(url, &qr); err != nil {
		return nil, err
	}
	var out []stx.Neighbor
	for _, nb := range qr.Neighbors {
		out = append(out, stx.Neighbor{ObjectID: nb.ID, Dist2: nb.Dist2})
	}
	return out, nil
}

// httpTrajectory runs one trajectory query through GET /query.
func httpTrajectory(base, snapshot string, q stx.Query) ([]stx.TrajectoryHit, error) {
	url := fmt.Sprintf("%s/query?snapshot=%s&kind=trajectory&rect=%g,%g,%g,%g&from=%d&to=%d",
		base, snapshot, q.Rect.MinX, q.Rect.MinY, q.Rect.MaxX, q.Rect.MaxY, q.Interval.Start, q.Interval.End)
	var qr struct {
		Trajectories []struct {
			ID     int64 `json:"id"`
			Pieces int   `json:"pieces"`
		} `json:"trajectories"`
	}
	if err := httpFetch(url, &qr); err != nil {
		return nil, err
	}
	var out []stx.TrajectoryHit
	for _, th := range qr.Trajectories {
		out = append(out, stx.TrajectoryHit{ObjectID: th.ID, Pieces: th.Pieces})
	}
	return out, nil
}
