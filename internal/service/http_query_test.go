package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	stx "stindex"
)

// TestHTTPQueryKinds drives the kNN and trajectory query kinds through
// the real HTTP handler, GET and POST, and checks the answers verbatim
// against the engine queried directly — the wire encoding must not
// perturb a single bit (ids, dist2 floats, piece counts, order).
func TestHTTPQueryKinds(t *testing.T) {
	idx := buildIndex(t)
	path := saveContainer(t, idx)
	svc := New(Config{Workers: 2})
	defer svc.Close()
	if _, err := svc.Registry().Load("default", path); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	probes := []struct {
		x, y float64
		at   int64
		k    int
	}{
		{0.5, 0.5, 100, 1},
		{0.1, 0.9, 250, 5},
		{0.75, 0.25, 400, 17},
		{0.5, 0.5, 100, 1 << 20}, // k far beyond the population: full ranking
	}
	for i, p := range probes {
		want, err := idx.Nearest(p.x, p.y, p.at, p.k)
		if err != nil {
			t.Fatal(err)
		}
		var got queryResponse
		url := fmt.Sprintf("%s/query?kind=knn&x=%g&y=%g&t=%d&k=%d", srv.URL, p.x, p.y, p.at, p.k)
		if resp := getJSON(t, url, &got); resp.StatusCode != http.StatusOK {
			t.Fatalf("knn GET %d: status %d", i, resp.StatusCode)
		}
		checkNeighbors(t, fmt.Sprintf("knn GET %d", i), got, want)

		body := map[string]any{"kind": "knn", "x": p.x, "y": p.y, "t": p.at, "k": p.k}
		resp, data := postJSON(t, srv.URL+"/query", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("knn POST %d: status %d body %s", i, resp.StatusCode, data)
		}
		got = queryResponse{}
		mustUnmarshal(t, data, &got)
		checkNeighbors(t, fmt.Sprintf("knn POST %d", i), got, want)
	}

	regions := []struct {
		r  stx.Rect
		iv stx.Interval
	}{
		{stx.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8}, stx.Interval{Start: 0, End: 500}},
		{stx.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}, stx.Interval{Start: 100, End: 101}},
		{stx.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, stx.Interval{Start: 480, End: 520}},
	}
	for i, c := range regions {
		want, err := idx.Trajectory(c.r, c.iv)
		if err != nil {
			t.Fatal(err)
		}
		var got queryResponse
		url := fmt.Sprintf("%s/query?kind=trajectory&rect=%g,%g,%g,%g&from=%d&to=%d",
			srv.URL, c.r.MinX, c.r.MinY, c.r.MaxX, c.r.MaxY, c.iv.Start, c.iv.End)
		if resp := getJSON(t, url, &got); resp.StatusCode != http.StatusOK {
			t.Fatalf("trajectory GET %d: status %d", i, resp.StatusCode)
		}
		checkTrajectories(t, fmt.Sprintf("trajectory GET %d", i), got, want)

		body := map[string]any{
			"kind": "trajectory",
			"rect": []float64{c.r.MinX, c.r.MinY, c.r.MaxX, c.r.MaxY},
			"from": c.iv.Start, "to": c.iv.End,
		}
		resp, data := postJSON(t, srv.URL+"/query", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trajectory POST %d: status %d body %s", i, resp.StatusCode, data)
		}
		got = queryResponse{}
		mustUnmarshal(t, data, &got)
		checkTrajectories(t, fmt.Sprintf("trajectory POST %d", i), got, want)
	}

	// Malformed requests map to 400, never 500: each missing kNN
	// parameter, non-finite point coordinates, invalid k (engine-level
	// ErrBadQuery), and an unknown kind string.
	for _, bad := range []string{
		"kind=knn&y=0.5&t=100&k=3",       // missing x
		"kind=knn&x=0.5&y=0.5&t=100",     // missing k
		"kind=knn&x=0.5&y=0.5&k=3",       // missing t
		"kind=knn&x=NaN&y=0.5&t=100&k=3", // non-finite point -> ErrBadQuery
		"kind=knn&x=0.5&y=0.5&t=100&k=0", // k < 1 -> ErrBadQuery
		"kind=knn&x=0.5&y=0.5&t=100&k=-2",
		"kind=warp&rect=0,0,1,1&t=100",  // unknown kind
		"kind=trajectory&from=0&to=100", // trajectory without rect
	} {
		if resp := getJSON(t, srv.URL+"/query?"+bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
}

func checkNeighbors(t *testing.T, label string, got queryResponse, want []stx.Neighbor) {
	t.Helper()
	if len(got.Neighbors) != len(want) || got.Count != len(want) {
		t.Fatalf("%s: %d neighbors (count %d), want %d", label, len(got.Neighbors), got.Count, len(want))
	}
	for j, nb := range want {
		if got.Neighbors[j].ID != nb.ObjectID || got.Neighbors[j].Dist2 != nb.Dist2 {
			t.Fatalf("%s neighbor %d: got {%d %v}, want {%d %v}",
				label, j, got.Neighbors[j].ID, got.Neighbors[j].Dist2, nb.ObjectID, nb.Dist2)
		}
		if got.IDs[j] != nb.ObjectID {
			t.Fatalf("%s: ids[%d] = %d, want %d", label, j, got.IDs[j], nb.ObjectID)
		}
	}
}

func checkTrajectories(t *testing.T, label string, got queryResponse, want []stx.TrajectoryHit) {
	t.Helper()
	if len(got.Trajectories) != len(want) || got.Count != len(want) {
		t.Fatalf("%s: %d trajectories (count %d), want %d", label, len(got.Trajectories), got.Count, len(want))
	}
	for j, th := range want {
		if got.Trajectories[j].ID != th.ObjectID || got.Trajectories[j].Pieces != th.Pieces {
			t.Fatalf("%s hit %d: got {%d %d}, want {%d %d}",
				label, j, got.Trajectories[j].ID, got.Trajectories[j].Pieces, th.ObjectID, th.Pieces)
		}
	}
}

// TestHotSwapDuringKNN hammers kNN queries from many goroutines while
// the served snapshot is hot-swapped underneath them. Every answer must
// be complete and correct for whichever generation served it (both
// containers hold the same index, so answers are generation-invariant),
// and the race detector must stay silent across the swap boundary.
func TestHotSwapDuringKNN(t *testing.T) {
	idx := buildIndex(t)
	pathA := saveContainer(t, idx)
	pathB := saveContainer(t, idx)
	want, err := idx.Nearest(0.5, 0.5, 250, 10)
	if err != nil {
		t.Fatal(err)
	}

	svc := New(Config{Workers: 4, QueueDepth: 64})
	defer svc.Close()
	if _, err := svc.Registry().Load("default", pathA); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	url := srv.URL + "/query?kind=knn&x=0.5&y=0.5&t=250&k=10"

	const clients = 6
	const rounds = 40
	var clientWG sync.WaitGroup
	errCh := make(chan error, clients+1)
	fetch := func(i int) error {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var qr queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("round %d: status %d", i, resp.StatusCode)
		}
		if len(qr.Neighbors) != len(want) {
			return fmt.Errorf("round %d: %d neighbors, want %d", i, len(qr.Neighbors), len(want))
		}
		for j, nb := range want {
			if qr.Neighbors[j].ID != nb.ObjectID || qr.Neighbors[j].Dist2 != nb.Dist2 {
				return fmt.Errorf("round %d neighbor %d: got {%d %v}, want {%d %v}",
					i, j, qr.Neighbors[j].ID, qr.Neighbors[j].Dist2, nb.ObjectID, nb.Dist2)
			}
		}
		return nil
	}
	for c := 0; c < clients; c++ {
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			for i := 0; i < rounds; i++ {
				if err := fetch(i); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	// Swap back and forth while the clients run.
	stop := make(chan struct{})
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		paths := []string{pathB, pathA}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := svc.Registry().Load("default", paths[i%2]); err != nil {
				errCh <- fmt.Errorf("swap %d: %w", i, err)
				return
			}
		}
	}()

	clientWG.Wait()
	close(stop)
	swapWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
