package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	stx "stindex"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// TestHTTPEndToEnd drives the whole serving stack over HTTP: load a
// container, answer >= 100 concurrent queries bit-identically to the
// serial baseline, hot-swap and drop snapshots through the management
// endpoints, and scrape live metrics.
func TestHTTPEndToEnd(t *testing.T) {
	idx := buildIndex(t)
	pathA := saveContainer(t, idx)
	pathB := saveContainer(t, idx)
	queries := testQueries(t, 25)
	want := make([][]int64, len(queries))
	for i, q := range queries {
		ids, err := stx.RunQuery(idx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ids
	}

	svc := New(Config{Workers: 4, QueueDepth: 32})
	defer svc.Close()
	if _, err := svc.Registry().Load("default", pathA); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// 8 clients x 25 queries = 200 concurrent requests, half GET half POST.
	const clients = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, q := range queries {
				var qr queryResponse
				if c%2 == 0 {
					url := fmt.Sprintf("%s/query?rect=%g,%g,%g,%g&t=%d",
						srv.URL, q.Rect.MinX, q.Rect.MinY, q.Rect.MaxX, q.Rect.MaxY, q.Interval.Start)
					resp, err := http.Get(url)
					if err != nil {
						errCh <- err
						return
					}
					err = json.NewDecoder(resp.Body).Decode(&qr)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						errCh <- fmt.Errorf("GET query %d: status %d err %v", i, resp.StatusCode, err)
						return
					}
				} else {
					body := map[string]any{
						"snapshot": "default",
						"rect":     []float64{q.Rect.MinX, q.Rect.MinY, q.Rect.MaxX, q.Rect.MaxY},
						"t":        q.Interval.Start,
					}
					buf, _ := json.Marshal(body)
					resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(buf))
					if err != nil {
						errCh <- err
						return
					}
					err = json.NewDecoder(resp.Body).Decode(&qr)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						errCh <- fmt.Errorf("POST query %d: status %d err %v", i, resp.StatusCode, err)
						return
					}
				}
				if !sameIDs(qr.IDs, want[i]) {
					errCh <- fmt.Errorf("client %d query %d: got %v, want %v", c, i, qr.IDs, want[i])
					return
				}
				if qr.Count != len(want[i]) || qr.Snapshot != "default" {
					errCh <- fmt.Errorf("client %d query %d: bad envelope %+v", c, i, qr)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Hot-swap through the management endpoint, then query again.
	resp, data := postJSON(t, srv.URL+"/snapshots/load", map[string]string{"name": "default", "path": pathB})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: status %d body %s", resp.StatusCode, data)
	}
	var swapped SnapshotInfo
	if err := json.Unmarshal(data, &swapped); err != nil {
		t.Fatal(err)
	}
	var qr queryResponse
	q0 := queries[0]
	url := fmt.Sprintf("%s/query?rect=%g,%g,%g,%g&t=%d",
		srv.URL, q0.Rect.MinX, q0.Rect.MinY, q0.Rect.MaxX, q0.Rect.MaxY, q0.Interval.Start)
	if resp := getJSON(t, url, &qr); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap query: status %d", resp.StatusCode)
	}
	if qr.Gen != swapped.Gen || !sameIDs(qr.IDs, want[0]) {
		t.Fatalf("post-swap answer: gen=%d (want %d) ids=%v", qr.Gen, swapped.Gen, qr.IDs)
	}

	// Snapshot listing includes a second load-then-drop snapshot.
	if resp, data := postJSON(t, srv.URL+"/snapshots/load", map[string]string{"name": "extra", "path": pathA}); resp.StatusCode != http.StatusOK {
		t.Fatalf("load extra: status %d body %s", resp.StatusCode, data)
	}
	var listing struct {
		Snapshots []SnapshotInfo `json:"snapshots"`
	}
	getJSON(t, srv.URL+"/snapshots", &listing)
	if len(listing.Snapshots) != 2 {
		t.Fatalf("snapshots = %+v, want 2 entries", listing.Snapshots)
	}
	if resp, data := postJSON(t, srv.URL+"/snapshots/drop", map[string]string{"name": "extra"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("drop extra: status %d body %s", resp.StatusCode, data)
	}
	getJSON(t, srv.URL+"/snapshots", &listing)
	if len(listing.Snapshots) != 1 {
		t.Fatalf("snapshots after drop = %+v, want 1 entry", listing.Snapshots)
	}

	// Metrics report live serving counters.
	var m Metrics
	getJSON(t, srv.URL+"/metrics", &m)
	if m.Completed < int64(clients*len(queries)) {
		t.Fatalf("metrics completed = %d, want >= %d", m.Completed, clients*len(queries))
	}
	if m.QPS <= 0 || m.P50US <= 0 || m.P99US <= 0 {
		t.Fatalf("degenerate metrics: %+v", m)
	}
	if len(m.Snapshots) != 1 || m.Snapshots[0].Queries == 0 {
		t.Fatalf("metrics snapshots: %+v", m.Snapshots)
	}

	// Error mapping.
	if resp := getJSON(t, srv.URL+"/query?rect=0,0,1,1&t=5&snapshot=missing", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown snapshot: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/query?rect=bogus&t=5", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad rect: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/query?rect=0,0,1,1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing time: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/snapshots/load", map[string]string{"name": "x"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("load without path: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/snapshots/drop", map[string]string{"name": "ghost"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drop unknown: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
}

// TestJSONBodyTooLarge: the three routes that decode a JSON body read at
// most maxJSONBody of it, and answer a longer one — one string value a
// client can make as long as it likes — with 413, sized or chunked. What
// is merely malformed stays a 400.
func TestJSONBodyTooLarge(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 1})
	defer svc.Close()
	h := NewHandler(svc)
	post := func(path, body string, length int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.ContentLength = length
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	huge := `{"name":"` + strings.Repeat("a", maxJSONBody) + `"}`
	for _, route := range []string{"/query", "/snapshots/load", "/snapshots/drop"} {
		t.Run(route, func(t *testing.T) {
			for _, length := range []int64{int64(len(huge)), -1} {
				w := post(route, huge, length)
				if want := `{"error":"http: request body too large"}` + "\n"; w.Code != http.StatusRequestEntityTooLarge || w.Body.String() != want {
					t.Errorf("body over the limit (length %d): %d %q", length, w.Code, w.Body.String())
				}
			}
			if w := post(route, `{"name":`, 8); w.Code != http.StatusBadRequest {
				t.Errorf("truncated body: %d %q", w.Code, w.Body.String())
			}
			// Within the limit the body is the route's to judge: no such
			// snapshot, or no path to load.
			if w := post(route, `{"name":"nowhere"}`, 18); w.Code == http.StatusRequestEntityTooLarge || w.Code == http.StatusOK {
				t.Errorf("small body: %d %q", w.Code, w.Body.String())
			}
		})
	}
}
