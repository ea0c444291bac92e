package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	stx "stindex"
)

// queryResponse is the /query JSON answer as a struct, what the tests
// decode it into. The server never marshals it: appendQueryResponseJSON
// renders the same shape by hand into a pooled buffer, so the
// steady-state serving path does not allocate per response. The binary
// frame (encode.go) carries the same fields.
type queryResponse struct {
	Snapshot     string            `json:"snapshot"`
	Gen          uint64            `json:"gen"`
	Count        int               `json:"count"`
	IDs          []int64           `json:"ids"`
	Neighbors    []queryNeighbor   `json:"neighbors,omitempty"`
	Trajectories []queryTrajectory `json:"trajectories,omitempty"`
	IO           int64             `json:"io"`
	ElapsedUS    int64             `json:"elapsed_us"`
}

// queryNeighbor is one ranked kNN answer entry (kind=knn responses).
type queryNeighbor struct {
	ID    int64   `json:"id"`
	Dist2 float64 `json:"dist2"`
}

// queryTrajectory is one trajectory answer entry (kind=trajectory
// responses): the object and how many of its recorded pieces matched.
type queryTrajectory struct {
	ID     int64 `json:"id"`
	Pieces int   `json:"pieces"`
}

// DecodeBinaryResponse parses a binary /query frame of any kind into a
// Result, the reference the encoder and the fuzz target are checked
// against. A frame with an unknown kind, or with fewer or more bytes
// than its count calls for, is rejected with ok=false.
func DecodeBinaryResponse(frame []byte) (res Result, elapsedUS int64, ok bool) {
	const head = 4 + 4 + 8 + 8 + 8 + 2
	if len(frame) < head || string(frame[:4]) != binaryMagic {
		return Result{}, 0, false
	}
	kind := binary.LittleEndian.Uint32(frame[4:])
	if kind > uint32(stx.KindTrajectory) {
		return Result{}, 0, false
	}
	res.Kind = stx.QueryKind(kind)
	res.Gen = binary.LittleEndian.Uint64(frame[8:])
	res.IO = int64(binary.LittleEndian.Uint64(frame[16:]))
	elapsedUS = int64(binary.LittleEndian.Uint64(frame[24:]))
	nameLen := int(binary.LittleEndian.Uint16(frame[32:]))
	if len(frame) < head+nameLen+4 {
		return Result{}, 0, false
	}
	res.Snapshot = string(frame[head : head+nameLen])
	rest := frame[head+nameLen:]
	count := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	want := count * 8
	switch res.Kind {
	case stx.KindKNN:
		want = count * 16
	case stx.KindTrajectory:
		want = count * 12
	}
	if count < 0 || len(rest) != want {
		return Result{}, 0, false
	}
	res.IDs = make([]int64, count)
	for i := range res.IDs {
		res.IDs[i] = int64(binary.LittleEndian.Uint64(rest[i*8:]))
	}
	rest = rest[count*8:]
	switch res.Kind {
	case stx.KindKNN:
		res.Neighbors = make([]stx.Neighbor, count)
		for i := range res.Neighbors {
			res.Neighbors[i] = stx.Neighbor{
				ObjectID: res.IDs[i],
				Dist2:    math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:])),
			}
		}
	case stx.KindTrajectory:
		res.Trajectories = make([]stx.TrajectoryHit, count)
		for i := range res.Trajectories {
			res.Trajectories[i] = stx.TrajectoryHit{
				ObjectID: res.IDs[i],
				Pieces:   int(binary.LittleEndian.Uint32(rest[i*4:])),
			}
		}
	}
	return res, elapsedUS, true
}

// docShape converts a Result into the documented queryResponse wire
// struct, so tests can compare the hand-rolled encoder against
// encoding/json's rendering of the same data.
func docShape(res Result, elapsedUS int64) queryResponse {
	qr := queryResponse{Snapshot: res.Snapshot, Gen: res.Gen, Count: len(res.IDs), IDs: res.IDs, IO: res.IO, ElapsedUS: elapsedUS}
	for _, nb := range res.Neighbors {
		qr.Neighbors = append(qr.Neighbors, queryNeighbor{ID: nb.ObjectID, Dist2: nb.Dist2})
	}
	for _, th := range res.Trajectories {
		qr.Trajectories = append(qr.Trajectories, queryTrajectory{ID: th.ObjectID, Pieces: th.Pieces})
	}
	return qr
}

// TestAppendQueryResponseJSONMatchesEncodingJSON pins the hand-rolled
// encoder to the reflective one byte for byte, across the envelope
// shapes the server produces (empty results, negative ids, snapshot
// names needing escapes, kNN and trajectory payloads).
func TestAppendQueryResponseJSONMatchesEncodingJSON(t *testing.T) {
	cases := []Result{
		{Snapshot: "default", Gen: 1, IDs: []int64{}, IO: 0},
		{Snapshot: "data", Gen: 42, IDs: []int64{7, -9, math.MaxInt64}, IO: 12},
		{Snapshot: "", Gen: 0, IDs: []int64{math.MinInt64}, IO: -1},
		{Snapshot: `we"ird\name`, Gen: 3, IDs: []int64{}, IO: 1},
		{Snapshot: "tab\there\nand<html>&stuff", Gen: 8, IDs: []int64{1, 2}, IO: 3},
		{Snapshot: "unicode-\u2028\u2029-héllo", Gen: 9, IDs: []int64{}, IO: 0},
		{Snapshot: "bad-utf8-\xff", Gen: 10, IDs: []int64{}, IO: 0},
		{Snapshot: "knn", Kind: stx.KindKNN, Gen: 4, IDs: []int64{3, 1, 8}, IO: 5,
			Neighbors: []stx.Neighbor{{ObjectID: 3, Dist2: 0}, {ObjectID: 1, Dist2: 0.001953125}, {ObjectID: 8, Dist2: 2.75e-7}}},
		{Snapshot: "knn-extremes", Kind: stx.KindKNN, Gen: 4, IDs: []int64{1, 2, 3}, IO: 5,
			Neighbors: []stx.Neighbor{{ObjectID: 1, Dist2: math.MaxFloat64}, {ObjectID: 2, Dist2: 1.2345678912345e21}, {ObjectID: 3, Dist2: 5e-324}}},
		{Snapshot: "traj", Kind: stx.KindTrajectory, Gen: 6, IDs: []int64{2, 5}, IO: 7,
			Trajectories: []stx.TrajectoryHit{{ObjectID: 2, Pieces: 1}, {ObjectID: 5, Pieces: 12}}},
		{Snapshot: "knn-empty", Kind: stx.KindKNN, Gen: 2, IDs: []int64{}, IO: 0},
	}
	for _, c := range cases {
		want, err := json.Marshal(docShape(c, 77))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n') // json.Encoder.Encode appends a newline
		got := appendQueryResponseJSON(nil, c, 77)
		if string(got) != string(want) {
			t.Errorf("snapshot %q:\n got %s\nwant %s", c.Snapshot, got, want)
		}
	}
}

// TestAppendJSONFloatMatchesEncodingJSON pins the float renderer to
// encoding/json across the format-switch boundaries (1e-6, 1e21), the
// exponent-cleanup path, and denormals.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.001953125, 1.5e-5,
		1e-6, 9.999e-7, 2.75e-7, 1e-300, 5e-324,
		1e20, 999999999999999999999.0, 1e21, 1.2345678912345e21, math.MaxFloat64,
		-9.999e-7, -1e21, 3.141592653589793, 1.7976931348623157e+308,
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); string(got) != string(want) {
			t.Errorf("%g: got %s, want %s", v, got, want)
		}
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	ids := []int64{5, -17, 0, math.MaxInt64, math.MinInt64}
	frame := appendQueryResponseBinary(nil, Result{Snapshot: "snap-1", Gen: 77, IDs: ids, IO: 123}, 456)
	res, elapsed, ok := DecodeBinaryResponse(frame)
	if !ok {
		t.Fatal("frame did not decode")
	}
	if res.Kind != stx.KindWindow || res.Snapshot != "snap-1" || res.Gen != 77 || res.IO != 123 || elapsed != 456 {
		t.Fatalf("envelope: %+v, elapsed=%d", res, elapsed)
	}
	if !reflect.DeepEqual(res.IDs, ids) {
		t.Fatalf("ids: got %v, want %v", res.IDs, ids)
	}

	// Truncated and corrupted frames are rejected, not misparsed.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, ok := DecodeBinaryResponse(frame[:cut]); ok {
			t.Fatalf("truncated frame of %d bytes decoded", cut)
		}
	}
	bad := append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, _, ok := DecodeBinaryResponse(bad); ok {
		t.Fatal("bad magic decoded")
	}
}

// TestBinaryResponseKindsRoundTrip covers the kNN and trajectory frame
// payloads: decode restores the Result exactly, and truncations fail
// closed.
func TestBinaryResponseKindsRoundTrip(t *testing.T) {
	cases := []Result{
		{Kind: stx.KindKNN, Snapshot: "k", Gen: 9, IDs: []int64{4, 2, 9}, IO: 3,
			Neighbors: []stx.Neighbor{{ObjectID: 4, Dist2: 0}, {ObjectID: 2, Dist2: 1.5}, {ObjectID: 9, Dist2: math.MaxFloat64}}},
		{Kind: stx.KindKNN, Snapshot: "k0", Gen: 1, IDs: []int64{}, IO: 0},
		{Kind: stx.KindTrajectory, Snapshot: "t", Gen: 5, IDs: []int64{1, 7}, IO: 2,
			Trajectories: []stx.TrajectoryHit{{ObjectID: 1, Pieces: 3}, {ObjectID: 7, Pieces: 1}}},
		{Kind: stx.KindTrajectory, Snapshot: "t0", Gen: 2, IDs: []int64{}, IO: 0},
	}
	for _, c := range cases {
		frame := appendQueryResponseBinary(nil, c, 42)
		res, elapsed, ok := DecodeBinaryResponse(frame)
		if !ok {
			t.Fatalf("kind %v frame did not decode", c.Kind)
		}
		if elapsed != 42 {
			t.Fatalf("elapsed %d", elapsed)
		}
		if res.Kind != c.Kind || res.Snapshot != c.Snapshot || res.Gen != c.Gen || res.IO != c.IO {
			t.Fatalf("envelope: got %+v, want %+v", res, c)
		}
		if !reflect.DeepEqual(res.IDs, c.IDs) {
			t.Fatalf("ids: got %v, want %v", res.IDs, c.IDs)
		}
		if len(c.Neighbors) > 0 && !reflect.DeepEqual(res.Neighbors, c.Neighbors) {
			t.Fatalf("neighbors: got %v, want %v", res.Neighbors, c.Neighbors)
		}
		if len(c.Trajectories) > 0 && !reflect.DeepEqual(res.Trajectories, c.Trajectories) {
			t.Fatalf("trajectories: got %v, want %v", res.Trajectories, c.Trajectories)
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, _, ok := DecodeBinaryResponse(frame[:cut]); ok {
				t.Fatalf("kind %v: truncated frame of %d bytes decoded", c.Kind, cut)
			}
		}
	}

	// An unknown kind word is rejected outright.
	frame := appendQueryResponseBinary(nil, Result{Snapshot: "w", IDs: []int64{1}}, 1)
	frame[4] = 3
	if _, _, ok := DecodeBinaryResponse(frame); ok {
		t.Fatal("unknown kind decoded")
	}
}

// FuzzDecodeBinaryResponse feeds the STQ1 decoder arbitrary bytes,
// seeded with a frame of every kind and each of their truncations. It
// must never panic, and every frame it accepts must re-encode to the
// same bytes.
func FuzzDecodeBinaryResponse(f *testing.F) {
	for _, res := range []Result{
		{Kind: stx.KindWindow, Snapshot: "w", Gen: 3, IDs: []int64{-1, 0, math.MaxInt64}, IO: 4},
		{Kind: stx.KindKNN, Snapshot: "k", Gen: 9, IDs: []int64{4, 2}, IO: 3,
			Neighbors: []stx.Neighbor{{ObjectID: 4, Dist2: 0.25}, {ObjectID: 2, Dist2: math.Inf(1)}}},
		{Kind: stx.KindTrajectory, Snapshot: "t", Gen: 5, IDs: []int64{1, 7}, IO: 2,
			Trajectories: []stx.TrajectoryHit{{ObjectID: 1, Pieces: 3}, {ObjectID: 7, Pieces: 1}}},
	} {
		frame := appendQueryResponseBinary(nil, res, 42)
		for cut := 0; cut <= len(frame); cut++ {
			f.Add(frame[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		res, elapsedUS, ok := DecodeBinaryResponse(frame)
		if !ok {
			return
		}
		if again := appendQueryResponseBinary(nil, res, elapsedUS); !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", again, frame)
		}
	})
}

// TestQueryEncodePathZeroAllocs is the acceptance gate: at steady state
// (pool warmed), rendering a /query response — JSON or binary — performs
// zero heap allocations per operation.
func TestQueryEncodePathZeroAllocs(t *testing.T) {
	ids := make([]int64, 64)
	for i := range ids {
		ids[i] = int64(i * 7337)
	}
	window := Result{Snapshot: "default", Gen: 3, IDs: ids, IO: 64}
	neighbors := make([]stx.Neighbor, 16)
	for i := range neighbors {
		neighbors[i] = stx.Neighbor{ObjectID: int64(i), Dist2: float64(i) * 0.3330078125}
	}
	knn := Result{Kind: stx.KindKNN, Snapshot: "default", Gen: 3, IDs: ids[:16], Neighbors: neighbors, IO: 64}
	trajectories := make([]stx.TrajectoryHit, 16)
	for i := range trajectories {
		trajectories[i] = stx.TrajectoryHit{ObjectID: int64(i), Pieces: i + 1}
	}
	traj := Result{Kind: stx.KindTrajectory, Snapshot: "default", Gen: 3, IDs: ids[:16], Trajectories: trajectories, IO: 64}

	run := func(name string, f func()) {
		f() // warm the pool outside the measurement
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	for _, c := range []struct {
		name string
		res  Result
	}{{"window", window}, {"knn", knn}, {"trajectory", traj}} {
		res := c.res
		run("json/"+c.name, func() {
			bp := getRespBuf()
			*bp = appendQueryResponseJSON(*bp, res, 120)
			putRespBuf(bp)
		})
		run("binary/"+c.name, func() {
			bp := getRespBuf()
			*bp = appendQueryResponseBinary(*bp, res, 120)
			putRespBuf(bp)
		})
	}
}

// TestParseQueryGETZeroAllocs pins the request-parsing half of the hot
// path: a plain GET /query parameter set parses without heap
// allocations.
func TestParseQueryGETZeroAllocs(t *testing.T) {
	u, err := url.Parse("http://host/query?snapshot=default&rect=0.5,1.5,10.25,20.75&from=10&to=90")
	if err != nil {
		t.Fatal(err)
	}
	r := &http.Request{Method: http.MethodGet, URL: u}
	qr, err := parseQueryGET(r)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Snapshot != "default" || !qr.HasFrom || !qr.HasTo || qr.From != 10 || qr.To != 90 {
		t.Fatalf("parsed %+v", qr)
	}
	if qr.Rect != [4]float64{0.5, 1.5, 10.25, 20.75} {
		t.Fatalf("rect %v", qr.Rect)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := parseQueryGET(r); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("parseQueryGET: %v allocs/op, want 0", allocs)
	}
}

func TestQueryParamUnescapes(t *testing.T) {
	raw := "snapshot=my%20snap&rect=0,0,1,1&t=5&plus=a+b"
	if v, ok := queryParam(raw, "snapshot"); !ok || v != "my snap" {
		t.Fatalf("snapshot = %q, %v", v, ok)
	}
	if v, ok := queryParam(raw, "plus"); !ok || v != "a b" {
		t.Fatalf("plus = %q, %v", v, ok)
	}
	if _, ok := queryParam(raw, "absent"); ok {
		t.Fatal("absent key reported present")
	}
	if v, ok := queryParam(raw, "t"); !ok || v != "5" {
		t.Fatalf("t = %q, %v", v, ok)
	}
}

func BenchmarkQueryResponseJSON(b *testing.B) {
	ids := make([]int64, 64)
	for i := range ids {
		ids[i] = int64(i * 7337)
	}
	res := Result{Snapshot: "default", Gen: 3, IDs: ids, IO: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := getRespBuf()
		*bp = appendQueryResponseJSON(*bp, res, 120)
		putRespBuf(bp)
	}
}

func BenchmarkQueryResponseBinary(b *testing.B) {
	ids := make([]int64, 64)
	for i := range ids {
		ids[i] = int64(i * 7337)
	}
	res := Result{Snapshot: "default", Gen: 3, IDs: ids, IO: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := getRespBuf()
		*bp = appendQueryResponseBinary(*bp, res, 120)
		putRespBuf(bp)
	}
}

func BenchmarkQueryResponseJSONReflect(b *testing.B) {
	// The encoding/json baseline the hand-rolled encoder replaced.
	ids := make([]int64, 64)
	for i := range ids {
		ids[i] = int64(i * 7337)
	}
	resp := queryResponse{Snapshot: "default", Gen: 3, Count: len(ids), IDs: ids, IO: 64, ElapsedUS: 120}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(resp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseQueryGET(b *testing.B) {
	u, err := url.Parse("http://host/query?snapshot=default&rect=0.5,1.5,10.25,20.75&from=10&to=90")
	if err != nil {
		b.Fatal(err)
	}
	r := &http.Request{Method: http.MethodGet, URL: u}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parseQueryGET(r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHTTPBinaryProtocol drives the binary /query path end to end: both
// selectors (Accept header and ?format=binary) return a parseable frame
// whose ids match the JSON answer.
func TestHTTPBinaryProtocol(t *testing.T) {
	idx := buildIndex(t)
	path := saveContainer(t, idx)
	q := testQueries(t, 1)[0]
	want, err := stx.RunQuery(idx, q)
	if err != nil {
		t.Fatal(err)
	}

	svc := New(Config{Workers: 2, CacheMB: 8})
	defer svc.Close()
	if _, err := svc.Registry().Load("default", path); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	urlStr := fmt.Sprintf("%s/query?rect=%g,%g,%g,%g&t=%d",
		srv.URL, q.Rect.MinX, q.Rect.MinY, q.Rect.MaxX, q.Rect.MaxY, q.Interval.Start)

	fetch := func(accept, extra string) []byte {
		req, err := http.NewRequest(http.MethodGet, urlStr+extra, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != BinaryContentType {
			t.Fatalf("Content-Type %q, want %q", ct, BinaryContentType)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	for _, frame := range [][]byte{fetch(BinaryContentType, ""), fetch("", "&format=binary")} {
		res, _, ok := DecodeBinaryResponse(frame)
		if !ok {
			t.Fatal("binary frame did not decode")
		}
		if res.Snapshot != "default" {
			t.Fatalf("snapshot %q", res.Snapshot)
		}
		if !sameIDs(res.IDs, want) {
			t.Fatalf("binary ids %v, want %v", res.IDs, want)
		}
	}
}
