package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"stindex/internal/service"
	"stindex/internal/stio"
)

// maxIngestBody bounds one ingest request's body (64 MiB): large enough
// for any sane batch, small enough that a hostile length cannot exhaust
// memory.
const maxIngestBody = 64 << 20

// NewHandler exposes the pipeline over HTTP:
//
//	POST /ingest         one JSON observation, a JSON array of them, or a
//	                     concatenated-JSON stream (the stio feed format);
//	                     the whole body is one atomic batch
//	POST /ingest/finish  {"t": T} ends every live object; {"id": I, "t": T}
//	                     ends one
//	POST /ingest/freeze  forces a snapshot + publish + journal truncation
//
// Responses are JSON. Validation failures map to 400 (nothing was
// journaled; resending the same records cannot succeed), a body over the
// limit to 413 (cut the batch), backpressure and a latched pipeline to
// 503.
func NewHandler(in *Ingester) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		recs, err := decodeBatch(http.MaxBytesReader(w, r.Body, maxIngestBody), r.ContentLength)
		if err != nil {
			httpError(w, service.BodyStatus(err), err.Error())
			return
		}
		seq, err := in.Submit(recs)
		if err != nil {
			httpError(w, ingestStatus(err), err.Error())
			return
		}
		writeAck(w, len(recs), seq)
	})
	mux.HandleFunc("/ingest/finish", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		var req struct {
			ObjectID *int64 `json:"id"`
			T        int64  `json:"t"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			httpError(w, service.BodyStatus(err), fmt.Sprintf("parsing finish request: %v", err))
			return
		}
		rec := Record{Kind: RecFinishAll, T: req.T}
		if req.ObjectID != nil {
			rec = Record{Kind: RecFinish, ObjectID: *req.ObjectID, T: req.T}
		}
		seq, err := in.Submit([]Record{rec})
		if err != nil {
			httpError(w, ingestStatus(err), err.Error())
			return
		}
		writeAck(w, 1, seq)
	})
	mux.HandleFunc("/ingest/freeze", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		froze, err := in.Freeze()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, map[string]any{"froze": froze, "seq": in.Seq()})
	})
	return mux
}

// batchScratch is what decoding one /ingest body borrows: the body's
// bytes and the events read off them. Neither outlives decodeBatch — the
// records it returns are values — so both go back to the pool.
type batchScratch struct {
	body []byte
	obs  []stio.Observation
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// decodeBatch reads and parses an ingest body: a single JSON object, a
// JSON array of objects, or concatenated JSON objects (the stio feed
// format — one per line, though whitespace is free-form). length is the
// request's Content-Length, negative when unknown. A body in the feed's
// canonical spelling is read by stio.ScanObservations; whatever that
// declines is decoded from its first byte by encoding/json, which
// therefore words every parse error.
func decodeBatch(body io.Reader, length int64) ([]Record, error) {
	sc := batchPool.Get().(*batchScratch)
	defer func() {
		if cap(sc.body) <= maxPooledBody {
			batchPool.Put(sc)
		}
	}()
	data, err := sc.read(body, length)
	if err != nil {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	obs, ok := stio.ScanObservations(sc.obs[:0], data)
	switch {
	case !ok:
		if obs, err = decodeJSON(obs[:0], data); err != nil {
			return nil, err
		}
	case len(obs) == 0: // nothing but whitespace
		return nil, errors.New("empty request body")
	}
	sc.obs = obs
	recs := make([]Record, len(obs))
	for i, o := range obs {
		recs[i] = recordOf(o)
	}
	return recs, nil
}

// maxPooledBody is the largest body buffer worth keeping between
// requests; the rare larger one is left to the collector.
const maxPooledBody = 1 << 20

// read returns the whole body: into the pooled buffer when the length is
// known, which a request with a Content-Length — every batch a client
// builds before sending — has; through io.ReadAll when it is chunked. The
// body is already bounded by MaxBytesReader, so buffering it whole is
// safe, and a declared length over the bound fails as reading past it
// would, without reading.
func (sc *batchScratch) read(body io.Reader, length int64) ([]byte, error) {
	if length < 0 {
		return io.ReadAll(body)
	}
	if length > maxIngestBody {
		return nil, &http.MaxBytesError{Limit: maxIngestBody}
	}
	if int64(cap(sc.body)) < length {
		sc.body = make([]byte, length)
	}
	data := sc.body[:length]
	_, err := io.ReadFull(body, data)
	return data, err
}

// decodeJSON is the encoding/json reading of a body, appended to obs.
func decodeJSON(obs []stio.Observation, data []byte) ([]stio.Observation, error) {
	if first := bytes.TrimLeft(data, " \t\n\r"); len(first) > 0 && first[0] == '[' {
		var lines []stio.ObservationLine
		if err := json.Unmarshal(data, &lines); err != nil {
			return nil, fmt.Errorf("parsing observation array: %v", err)
		}
		for _, line := range lines {
			obs = append(obs, line.Observation())
		}
		return obs, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var line stio.ObservationLine
		if err := dec.Decode(&line); errors.Is(err, io.EOF) {
			return obs, nil
		} else if err != nil {
			return nil, fmt.Errorf("parsing observation %d: %v", len(obs)+1, err)
		}
		obs = append(obs, line.Observation())
	}
}

// ingestStatus maps a Submit error to its HTTP status.
func ingestStatus(err error) int {
	switch {
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, ErrBacklog), errors.Is(err, ErrIngestClosed), errors.Is(err, ErrWALFailed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// writeAck writes {"accepted":N,"seq":S} and a newline — byte for byte
// what writeJSON makes of that map — without building the map.
func writeAck(w http.ResponseWriter, accepted int, seq uint64) {
	var buf [64]byte
	b := append(buf[:0], `{"accepted":`...)
	b = strconv.AppendInt(b, int64(accepted), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
