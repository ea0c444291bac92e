package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	stx "stindex"
)

// NewHandler exposes the service over HTTP/JSON — the API stserve
// binds:
//
//	GET|POST /query           run one query
//	GET      /snapshots       list registered snapshots
//	POST     /snapshots/load  {"name": ..., "path": ...} load or hot-swap
//	POST     /snapshots/drop  {"name": ...}
//	GET      /metrics         serving counters + per-snapshot stats
//	GET      /healthz         liveness
//
// GET /query parameters: snapshot (default "default"), kind (default
// "window"; also "knn" and "trajectory"), then per kind:
//
//	window:     rect=minx,miny,maxx,maxy and t=<instant> or from=&to=
//	knn:        x=<px>&y=<py>&t=<instant>&k=<count>
//	trajectory: rect=minx,miny,maxx,maxy and t= or from=&to=
//
// POST /query takes the same fields as JSON: {"snapshot": ..., "rect":
// [minx,miny,maxx,maxy], "t": ...}, {"rect": [...], "from": ..., "to":
// ...}, {"kind": "knn", "x": ..., "y": ..., "t": ..., "k": ...}, or
// {"kind": "trajectory", "rect": [...], "from": ..., "to": ...}.
//
// The snapshot-management endpoints open operator-supplied paths on the
// server host; expose them only to trusted operators (stserve is an
// internal service, not an internet-facing one).
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(s, w, r)
	})
	mux.HandleFunc("/snapshots", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		infos := s.Registry().List()
		slices.SortFunc(infos, func(a, b SnapshotInfo) int { return strings.Compare(a.Name, b.Name) })
		writeJSON(w, http.StatusOK, map[string]any{"snapshots": infos})
	})
	mux.HandleFunc("/snapshots/load", func(w http.ResponseWriter, r *http.Request) {
		handleLoad(s, w, r)
	})
	mux.HandleFunc("/snapshots/drop", func(w http.ResponseWriter, r *http.Request) {
		handleDrop(s, w, r)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// The slow-client limits of NewServer.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewServer is the http.Server every binary serving this API listens
// with: a client that has not sent a request's whole header within
// readHeaderTimeout is dropped, and so is a keep-alive connection left
// idle for idleTimeout, so clients that trickle bytes cannot hold
// connections open for ever. Bodies are bounded per route (413), not by a
// read deadline, so a large POST /ingest over a slow link still lands.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// queryRequest is the parsed /query input; GET parameters and the POST
// JSON body map onto the same fields. Value fields plus presence flags
// (instead of pointers) keep the steady-state GET parse allocation-free.
type queryRequest struct {
	Snapshot string
	Kind     string // "", "window", "knn", "trajectory"
	Rect     [4]float64
	X, Y     float64 // knn query point
	T        int64
	From     int64
	To       int64
	K        int64
	HasT     bool
	HasFrom  bool
	HasTo    bool
	HasX     bool
	HasY     bool
	HasK     bool
	Binary   bool // answer with the binary frame (?format=binary)
}

// queryRequestJSON is the POST /query body — the wire shape with
// optional fields as pointers, decoded reflectively (the POST path is
// for ad-hoc use; GET is the hot path).
type queryRequestJSON struct {
	Snapshot string     `json:"snapshot"`
	Kind     string     `json:"kind,omitempty"`
	Rect     [4]float64 `json:"rect"`
	X        *float64   `json:"x,omitempty"`
	Y        *float64   `json:"y,omitempty"`
	T        *int64     `json:"t,omitempty"`
	From     *int64     `json:"from,omitempty"`
	To       *int64     `json:"to,omitempty"`
	K        *int64     `json:"k,omitempty"`
}

func (j queryRequestJSON) request() queryRequest {
	qr := queryRequest{Snapshot: j.Snapshot, Kind: j.Kind, Rect: j.Rect}
	if j.X != nil {
		qr.X, qr.HasX = *j.X, true
	}
	if j.Y != nil {
		qr.Y, qr.HasY = *j.Y, true
	}
	if j.T != nil {
		qr.T, qr.HasT = *j.T, true
	}
	if j.From != nil {
		qr.From, qr.HasFrom = *j.From, true
	}
	if j.To != nil {
		qr.To, qr.HasTo = *j.To, true
	}
	if j.K != nil {
		qr.K, qr.HasK = *j.K, true
	}
	return qr
}

func (qr queryRequest) toQuery() (string, stx.Query, error) {
	name := qr.Snapshot
	if name == "" {
		name = "default"
	}
	if qr.Kind == "knn" {
		switch {
		case !qr.HasX || !qr.HasY:
			return "", stx.Query{}, errors.New("knn wants x and y (query point)")
		case !qr.HasT:
			return "", stx.Query{}, errors.New("knn wants t (instant)")
		case !qr.HasK:
			return "", stx.Query{}, errors.New("knn wants k (neighbor count)")
		}
		return name, stx.KNNQuery(qr.X, qr.Y, qr.T, int(qr.K)), nil
	}
	var kind stx.QueryKind
	switch qr.Kind {
	case "", "window":
		kind = stx.KindWindow
	case "trajectory":
		kind = stx.KindTrajectory
	default:
		return "", stx.Query{}, fmt.Errorf("unknown kind %q (want window, knn, or trajectory)", qr.Kind)
	}
	rect := stx.Rect{MinX: qr.Rect[0], MinY: qr.Rect[1], MaxX: qr.Rect[2], MaxY: qr.Rect[3]}
	if rect.MinX > rect.MaxX || rect.MinY > rect.MaxY {
		return "", stx.Query{}, fmt.Errorf("degenerate rect %v", qr.Rect)
	}
	var iv stx.Interval
	switch {
	case qr.HasT:
		iv = stx.Interval{Start: qr.T, End: qr.T + 1}
	case qr.HasFrom && qr.HasTo:
		if qr.To <= qr.From {
			return "", stx.Query{}, fmt.Errorf("empty interval [%d, %d)", qr.From, qr.To)
		}
		iv = stx.Interval{Start: qr.From, End: qr.To}
	default:
		return "", stx.Query{}, errors.New("provide t (snapshot) or from and to (range)")
	}
	return name, stx.Query{Kind: kind, Rect: rect, Interval: iv}, nil
}

// queryParam returns one raw query-string value without materialising
// the url.Values map (r.URL.Query() allocates per request). Unescaping
// is deferred to the rare values that actually contain an escape.
func queryParam(rawQuery, key string) (string, bool) {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		k, v, _ := strings.Cut(pair, "=")
		if k != key {
			continue
		}
		if strings.IndexByte(v, '%') >= 0 || strings.IndexByte(v, '+') >= 0 {
			if u, err := url.QueryUnescape(v); err == nil {
				return u, true
			}
		}
		return v, true
	}
	return "", false
}

// parseQueryGET parses the /query parameters straight off the raw query
// string. Steady state (plain numeric parameters, no percent escapes) it
// performs no heap allocations.
func parseQueryGET(r *http.Request) (queryRequest, error) {
	var qr queryRequest
	raw := r.URL.RawQuery
	qr.Snapshot, _ = queryParam(raw, "snapshot")
	qr.Kind, _ = queryParam(raw, "kind")
	rectStr, ok := queryParam(raw, "rect")
	if !ok || rectStr == "" {
		if qr.Kind != "knn" {
			return qr, errors.New("missing rect=minx,miny,maxx,maxy")
		}
	} else {
		for i := 0; i < 4; i++ {
			part, rest, found := strings.Cut(rectStr, ",")
			if i < 3 && !found {
				return qr, fmt.Errorf("rect wants 4 coordinates, got %d", i+1)
			}
			if i == 3 && found {
				return qr, errors.New("rect wants 4 coordinates, got more")
			}
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return qr, fmt.Errorf("rect coordinate %d: %v", i, err)
			}
			qr.Rect[i] = f
			rectStr = rest
		}
	}
	parseInt := func(key string) (int64, bool, error) {
		s, ok := queryParam(raw, key)
		if !ok || s == "" {
			return 0, false, nil
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, false, fmt.Errorf("%s: %v", key, err)
		}
		return n, true, nil
	}
	parseFloat := func(key string) (float64, bool, error) {
		s, ok := queryParam(raw, key)
		if !ok || s == "" {
			return 0, false, nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, false, fmt.Errorf("%s: %v", key, err)
		}
		return f, true, nil
	}
	var err error
	if qr.X, qr.HasX, err = parseFloat("x"); err != nil {
		return qr, err
	}
	if qr.Y, qr.HasY, err = parseFloat("y"); err != nil {
		return qr, err
	}
	if qr.T, qr.HasT, err = parseInt("t"); err != nil {
		return qr, err
	}
	if qr.From, qr.HasFrom, err = parseInt("from"); err != nil {
		return qr, err
	}
	if qr.To, qr.HasTo, err = parseInt("to"); err != nil {
		return qr, err
	}
	if qr.K, qr.HasK, err = parseInt("k"); err != nil {
		return qr, err
	}
	if format, ok := queryParam(raw, "format"); ok && format == "binary" {
		qr.Binary = true
	}
	return qr, nil
}

func handleQuery(s *Service, w http.ResponseWriter, r *http.Request) {
	var qr queryRequest
	var err error
	switch r.Method {
	case http.MethodGet:
		qr, err = parseQueryGET(r)
	case http.MethodPost:
		var body queryRequestJSON
		if err = decodeJSONBody(w, r, &body); err == nil {
			qr = body.request()
			if format, ok := queryParam(r.URL.RawQuery, "format"); ok && format == "binary" {
				qr.Binary = true
			}
		}
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST only")
		return
	}
	if err != nil {
		httpError(w, BodyStatus(err), err.Error())
		return
	}
	name, q, err := qr.toQuery()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	binary := qr.Binary || r.Header.Get("Accept") == BinaryContentType
	start := time.Now()
	res, err := s.Query(r.Context(), name, q)
	if err != nil {
		httpError(w, statusFor(err), err.Error())
		return
	}
	elapsed := time.Since(start).Microseconds()

	bp := getRespBuf()
	if binary {
		*bp = appendQueryResponseBinary(*bp, res, elapsed)
		w.Header().Set("Content-Type", BinaryContentType)
	} else {
		*bp = appendQueryResponseJSON(*bp, res, elapsed)
		w.Header().Set("Content-Type", "application/json")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*bp)
	putRespBuf(bp)
}

func handleLoad(s *Service, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req struct {
		Name string `json:"name"`
		Path string `json:"path"`
	}
	if err := decodeJSONBody(w, r, &req); err != nil {
		httpError(w, BodyStatus(err), err.Error())
		return
	}
	if req.Name == "" || req.Path == "" {
		httpError(w, http.StatusBadRequest, "name and path are required")
		return
	}
	snap, err := s.Registry().Load(req.Name, req.Path)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, snap.info())
}

func handleDrop(s *Service, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := decodeJSONBody(w, r, &req); err != nil {
		httpError(w, BodyStatus(err), err.Error())
		return
	}
	if err := s.Registry().Drop(req.Name); err != nil {
		httpError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"dropped": req.Name})
}

// maxJSONBody bounds the JSON request bodies of /query and the snapshot
// routes: a query or a name and a path, never more than a few hundred
// bytes from an honest client.
const maxJSONBody = 1 << 20

// decodeJSONBody decodes the request's JSON body into v, reading at most
// maxJSONBody bytes of it.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(v)
}

// BodyStatus maps a failure to read or parse a request body to its HTTP
// status: 413 when the body is over the route's limit — the client
// should send less — 400 when it is malformed. The ingest routes share
// it.
func BodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// statusFor maps service errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, stx.ErrBadQuery):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownSnapshot):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
