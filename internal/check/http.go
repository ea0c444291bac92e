package check

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"

	stx "stindex"

	"stindex/internal/service"
)

// httpServer is one service served over a real TCP listener by the
// stserve HTTP handler — the serving path the HTTP pass checks.
type httpServer struct {
	svc    *service.Service
	server *http.Server
	base   string
	served chan struct{} // closed once Serve has returned
}

func startHTTP() (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Workers: 2})
	h := &httpServer{
		svc:    svc,
		server: &http.Server{Handler: service.NewHandler(svc)},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(h.served)
		h.server.Serve(ln)
	}()
	return h, nil
}

// close stops the listener and the service, which closes every index
// published into it.
func (h *httpServer) close() {
	h.server.Close()
	<-h.served
	h.svc.Close()
}

// pass publishes idx under name — the service takes ownership — and
// compares every query answer fetched over the wire against the oracle.
// It returns how many answers it compared.
func (h *httpServer) pass(name string, idx stx.Index, wl *Workload, exp *Expected) (int, error) {
	if _, err := h.svc.Registry().Publish(name, idx); err != nil {
		return 0, fmt.Errorf("publishing: %w", err)
	}
	checked := 0
	for i, q := range wl.Queries {
		ids, err := h.window(name, q)
		if err != nil {
			return checked, fmt.Errorf("query %d over HTTP: %w", i, err)
		}
		if !SameIDs(ids, exp.Window[i]) {
			return checked, fmt.Errorf("query %d over HTTP: got %v, oracle says %v", i, SortedIDs(ids), exp.Window[i])
		}
		if !StrictlyAscending(ids) {
			return checked, fmt.Errorf("query %d over HTTP: answer %v is not strictly ascending", i, ids)
		}
		checked++
	}
	for i, q := range wl.KNNQueries {
		nbs, err := h.knn(name, q)
		if err != nil {
			return checked, fmt.Errorf("knn query %d over HTTP: %w", i, err)
		}
		if !SameNeighbors(nbs, exp.KNN[i]) {
			return checked, fmt.Errorf("knn query %d over HTTP: got %v, oracle says %v", i, nbs, exp.KNN[i])
		}
		checked++
	}
	for i, q := range wl.TrajQueries {
		hits, err := h.trajectory(name, q)
		if err != nil {
			return checked, fmt.Errorf("trajectory query %d over HTTP: %w", i, err)
		}
		if !SameTrajectories(hits, exp.Traj[i]) {
			return checked, fmt.Errorf("trajectory query %d over HTTP: got %v, oracle says %v", i, hits, exp.Traj[i])
		}
		checked++
	}
	return checked, nil
}

// fetch runs one GET and decodes the JSON answer into v.
func (h *httpServer) fetch(url string, v any) error {
	resp, err := http.Get(h.base + url)
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

// window runs one window query through GET /query and returns the IDs.
func (h *httpServer) window(snapshot string, q stx.Query) ([]int64, error) {
	url := fmt.Sprintf("/query?snapshot=%s&rect=%g,%g,%g,%g",
		snapshot, q.Rect.MinX, q.Rect.MinY, q.Rect.MaxX, q.Rect.MaxY)
	if q.IsSnapshot() {
		url += fmt.Sprintf("&t=%d", q.Interval.Start)
	} else {
		url += fmt.Sprintf("&from=%d&to=%d", q.Interval.Start, q.Interval.End)
	}
	var qr struct {
		IDs []int64 `json:"ids"`
	}
	if err := h.fetch(url, &qr); err != nil {
		return nil, err
	}
	return qr.IDs, nil
}

// knn runs one kNN query through GET /query. The %g point encoding is
// the shortest float representation, which round-trips float64 exactly,
// so the comparison against the oracle stays bit-exact across the wire.
func (h *httpServer) knn(snapshot string, q stx.Query) ([]stx.Neighbor, error) {
	url := fmt.Sprintf("/query?snapshot=%s&kind=knn&x=%g&y=%g&t=%d&k=%d",
		snapshot, q.Rect.MinX, q.Rect.MinY, q.Interval.Start, q.K)
	var qr struct {
		Neighbors []struct {
			ID    int64   `json:"id"`
			Dist2 float64 `json:"dist2"`
		} `json:"neighbors"`
	}
	if err := h.fetch(url, &qr); err != nil {
		return nil, err
	}
	var out []stx.Neighbor
	for _, nb := range qr.Neighbors {
		out = append(out, stx.Neighbor{ObjectID: nb.ID, Dist2: nb.Dist2})
	}
	return out, nil
}

// trajectory runs one trajectory query through GET /query.
func (h *httpServer) trajectory(snapshot string, q stx.Query) ([]stx.TrajectoryHit, error) {
	url := fmt.Sprintf("/query?snapshot=%s&kind=trajectory&rect=%g,%g,%g,%g&from=%d&to=%d",
		snapshot, q.Rect.MinX, q.Rect.MinY, q.Rect.MaxX, q.Rect.MaxY, q.Interval.Start, q.Interval.End)
	var qr struct {
		Trajectories []struct {
			ID     int64 `json:"id"`
			Pieces int   `json:"pieces"`
		} `json:"trajectories"`
	}
	if err := h.fetch(url, &qr); err != nil {
		return nil, err
	}
	var out []stx.TrajectoryHit
	for _, th := range qr.Trajectories {
		out = append(out, stx.TrajectoryHit{ObjectID: th.ID, Pieces: th.Pieces})
	}
	return out, nil
}
