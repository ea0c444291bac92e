package ingest

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"stindex/internal/datagen"
	"stindex/internal/geom"
	"stindex/internal/stio"
)

// decodeBody is the one place that names decodeBatch's signature.
func decodeBody(body string) ([]Record, error) {
	return decodeBatch(strings.NewReader(body), int64(len(body)))
}

// goTypeName is the one part of an encoding/json message that is not the
// wire's: a type mismatch names the Go type it was decoding into. The
// expected texts below are written without it.
var goTypeName = regexp.MustCompile(`(Go struct field )\w+\.|(Go value of type )[\w.]+`)

func observe(id, t int64, minX, minY, maxX, maxY float64) Record {
	return Record{Kind: RecObserve, ObjectID: id, T: t, Rect: geom.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}}
}

func finish(id, t int64) Record { return Record{Kind: RecFinish, ObjectID: id, T: t} }

// sameRecords compares coordinates by bit pattern: -0 is not 0 here.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.ObjectID != y.ObjectID || x.T != y.T {
			return false
		}
		for _, p := range [4][2]float64{{x.Rect.MinX, y.Rect.MinX}, {x.Rect.MinY, y.Rect.MinY}, {x.Rect.MaxX, y.Rect.MaxX}, {x.Rect.MaxY, y.Rect.MaxY}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				return false
			}
		}
	}
	return true
}

// decodeBatchCases pins what a POST /ingest body means: the records it
// decodes to, or the exact 400 text. FuzzScanObservationsMatchesJSON
// seeds from the same bodies.
var decodeBatchCases = []struct {
	name, body string
	want       []Record
	wantErr    string
}{
	{name: "single object", body: `{"id":7,"t":3,"minx":0.1,"miny":0.2,"maxx":0.3,"maxy":0.4}`,
		want: []Record{observe(7, 3, 0.1, 0.2, 0.3, 0.4)}},
	{name: "concatenated, no whitespace", body: `{"id":1,"t":2,"minx":1,"miny":2,"maxx":3,"maxy":4}{"id":2,"t":2,"final":true}`,
		want: []Record{observe(1, 2, 1, 2, 3, 4), finish(2, 2)}},
	{name: "concatenated, free-form whitespace", body: "  {\"id\":1,\"t\":2,\"minx\":1,\"miny\":2,\"maxx\":3,\"maxy\":4}\n\r\n\t{ \"id\" : 2 , \"t\" : 2 , \"final\" : true }\n",
		want: []Record{observe(1, 2, 1, 2, 3, 4), finish(2, 2)}},
	{name: "array form", body: `[{"id":1,"t":2,"minx":1,"miny":2,"maxx":3,"maxy":4},{"id":2,"t":2,"final":true}]`,
		want: []Record{observe(1, 2, 1, 2, 3, 4), finish(2, 2)}},
	{name: "empty array", body: `[]`, want: []Record{}},
	{name: "array with a non-object", body: `[{"id":1,"t":2},7]`,
		wantErr: "parsing observation array: json: cannot unmarshal number into Go value of type "},
	{name: "array, trailing garbage", body: `[{"id":1,"t":2}] x`,
		wantErr: "parsing observation array: invalid character 'x' after top-level value"},
	{name: "unknown key is skipped", body: `{"id":1,"t":2,"speed":9,"minx":1}`,
		want: []Record{observe(1, 2, 1, 0, 0, 0)}},
	{name: "keys match case-insensitively", body: `{"ID":4,"T":5,"MinX":1,"FINAL":false}`,
		want: []Record{observe(4, 5, 1, 0, 0, 0)}},
	{name: "escaped key", body: `{"\u0069d":4,"t":5,"m\u0061xy":2}`,
		want: []Record{observe(4, 5, 0, 0, 0, 2)}},
	{name: "null values leave the zero", body: `{"id":null,"t":null,"minx":null,"final":null,"maxy":2}`,
		want: []Record{observe(0, 0, 0, 0, 0, 2)}},
	{name: "null object", body: `null`, want: []Record{observe(0, 0, 0, 0, 0, 0)}},
	{name: "empty object", body: `{}`, want: []Record{observe(0, 0, 0, 0, 0, 0)}},
	{name: "fraction for an id", body: `{"id":1.0,"t":2}`,
		wantErr: "parsing observation 1: json: cannot unmarshal number 1.0 into Go struct field id of type int64"},
	{name: "exponent for an id", body: `{"id":1e3,"t":2}`,
		wantErr: "parsing observation 1: json: cannot unmarshal number 1e3 into Go struct field id of type int64"},
	{name: "string for an id", body: `{"id":"1","t":2}`,
		wantErr: "parsing observation 1: json: cannot unmarshal string into Go struct field id of type int64"},
	{name: "int64 bounds", body: `{"id":9223372036854775807,"t":-9223372036854775808}`,
		want: []Record{observe(math.MaxInt64, math.MinInt64, 0, 0, 0, 0)}},
	{name: "id past int64", body: `{"id":9223372036854775808,"t":2}`,
		wantErr: "parsing observation 1: json: cannot unmarshal number 9223372036854775808 into Go struct field id of type int64"},
	{name: "coordinate out of range", body: `{"id":1,"t":2,"minx":1e999}`,
		wantErr: "parsing observation 1: json: cannot unmarshal number 1e999 into Go struct field minx of type float64"},
	{name: "number for final", body: `{"id":1,"t":2,"final":1}`,
		wantErr: "parsing observation 1: json: cannot unmarshal number into Go struct field final of type bool"},
	{name: "negative zeros", body: `{"id":-0,"t":-7,"minx":-0.0,"miny":-0,"maxx":0.0,"maxy":0e0}`,
		want: []Record{observe(0, -7, math.Copysign(0, -1), math.Copysign(0, -1), 0, 0)}},
	{name: "exponent forms", body: `{"id":1,"t":2,"minx":1E+2,"miny":1.5e-3,"maxx":-1.25E2}`,
		want: []Record{observe(1, 2, 100, 0.0015, -125, 0)}},
	{name: "float64 extremes", body: `{"id":1,"t":2,"minx":4.9e-324,"miny":1e-400,"maxx":1.7976931348623157e308}`,
		want: []Record{observe(1, 2, math.SmallestNonzeroFloat64, 0, math.MaxFloat64, 0)}},
	{name: "leading zero on an id", body: `{"id":01,"t":2}`,
		wantErr: "parsing observation 1: invalid character '1' after object key:value pair"},
	{name: "leading zero on a coordinate", body: `{"id":1,"t":2,"minx":00.5}`,
		wantErr: "parsing observation 1: invalid character '0' after object key:value pair"},
	{name: "no integer part", body: `{"id":1,"t":2,"minx":.5}`,
		wantErr: "parsing observation 1: invalid character '.' looking for beginning of value"},
	{name: "no fraction digits", body: `{"id":1,"t":2,"minx":1.}`,
		wantErr: "parsing observation 1: invalid character '}' after decimal point in numeric literal"},
	{name: "plus sign", body: `{"id":+1,"t":2}`,
		wantErr: "parsing observation 1: invalid character '+' looking for beginning of value"},
	{name: "duplicate keys, last wins", body: `{"id":1,"id":2,"t":3,"t":4,"minx":1,"minx":2,"final":true,"final":false}`,
		want: []Record{observe(2, 4, 2, 0, 0, 0)}},
	{name: "missing coordinates are zero", body: `{"id":1,"t":2}`,
		want: []Record{observe(1, 2, 0, 0, 0, 0)}},
	{name: "final drops the coordinates", body: `{"id":1,"t":2,"minx":1,"miny":2,"maxx":3,"maxy":4,"final":true}`,
		want: []Record{finish(1, 2)}},
	{name: "final false keeps them", body: `{"id":1,"t":2,"final":false,"minx":1}`,
		want: []Record{observe(1, 2, 1, 0, 0, 0)}},
	{name: "trailing garbage", body: `{"id":1,"t":2} x`,
		wantErr: "parsing observation 2: invalid character 'x' looking for beginning of value"},
	{name: "truncated second object", body: `{"id":1,"t":2}{"id":2,"t":2`,
		wantErr: "parsing observation 2: unexpected EOF"},
	{name: "comma between objects", body: `{"id":1,"t":2},{"id":2,"t":2}`,
		wantErr: "parsing observation 2: invalid character ',' looking for beginning of value"},
	{name: "trailing comma in an object", body: `{"id":1,"t":2,}`,
		wantErr: "parsing observation 1: invalid character '}' looking for beginning of object key string"},
	{name: "byte-order mark", body: "\xef\xbb\xbf{\"id\":1,\"t\":2}",
		wantErr: "parsing observation 1: invalid character 'ï' looking for beginning of value"},
	{name: "not JSON", body: `x`,
		wantErr: "parsing observation 1: invalid character 'x' looking for beginning of value"},
	{name: "empty body", body: ``, wantErr: "empty request body"},
	{name: "whitespace-only body", body: " \n\t\r ", wantErr: "empty request body"},
}

func TestDecodeBatch(t *testing.T) {
	for _, c := range decodeBatchCases {
		got, err := decodeBody(c.body)
		if c.wantErr != "" {
			if err == nil {
				t.Errorf("%s: decoded %+v, want error %q", c.name, got, c.wantErr)
			} else if text := goTypeName.ReplaceAllString(err.Error(), "$1$2"); text != c.wantErr {
				t.Errorf("%s: error %q, want %q", c.name, text, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if !sameRecords(got, c.want) {
			t.Errorf("%s: decoded %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestDecodeBatchRoundTripsFeedWriter: stio.WriteObservations omits zero
// coordinates and a false final, so a feed line may carry any subset of
// the keys; what it wrote decodes to what it was given.
func TestDecodeBatchRoundTripsFeedWriter(t *testing.T) {
	obs := []stio.Observation{
		{ObjectID: 1, T: 5, Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 0, MaxY: 0}},
		{ObjectID: 2, T: 5, Rect: geom.Rect{MinX: 0, MinY: 0.25, MaxX: 0.5, MaxY: 0.75}},
		{ObjectID: 0, T: 0, Rect: geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.30000000000000004, MaxY: 1e-300}},
		{ObjectID: 2, T: 6, Final: true},
	}
	var buf bytes.Buffer
	if err := stio.WriteObservations(&buf, obs); err != nil {
		t.Fatal(err)
	}
	want := []Record{
		observe(1, 5, 0, 0, 0, 0),
		observe(2, 5, 0, 0.25, 0.5, 0.75),
		observe(0, 0, 0.1, 0.2, 0.30000000000000004, 1e-300),
		finish(2, 6),
	}
	got, err := decodeBody(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(got, want) {
		t.Errorf("decoded %+v from %q, want %+v", got, buf.String(), want)
	}
}

// benchBody is one batch as the end-to-end benchmark posts it
// (bench/ingest.go: appendObservation): n events of a datagen.Random feed,
// keys in the canonical order, shortest round-trip floats, one line each.
func benchBody(tb testing.TB, n int) []byte {
	tb.Helper()
	objs, err := datagen.Random(datagen.RandomConfig{N: 300, Horizon: 200, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	obs := stio.ObservationsFromObjects(objs)
	if len(obs) < 2*n {
		tb.Fatalf("feed of %d events is shorter than two batches of %d", len(obs), n)
	}
	var body []byte
	for _, o := range obs[n : 2*n] { // the second batch: finals are mixed in by then
		body = append(body, `{"id":`...)
		body = strconv.AppendInt(body, o.ObjectID, 10)
		body = append(body, `,"t":`...)
		body = strconv.AppendInt(body, o.T, 10)
		if o.Final {
			body = append(body, `,"final":true}`+"\n"...)
			continue
		}
		for i, v := range [4]float64{o.Rect.MinX, o.Rect.MinY, o.Rect.MaxX, o.Rect.MaxY} {
			body = append(body, [4]string{`,"minx":`, `,"miny":`, `,"maxx":`, `,"maxy":`}[i]...)
			body = strconv.AppendFloat(body, v, 'g', -1, 64)
		}
		body = append(body, "}\n"...)
	}
	return body
}

// BenchmarkDecodeBatch is the decode third of an ack: one 256-event body,
// request reader in, journal records out.
func BenchmarkDecodeBatch(b *testing.B) {
	body := benchBody(b, 256)
	rd := bytes.NewReader(body)
	// One decode off the clock: a serving process's scratch pool is warm,
	// and bench-gate runs three iterations.
	if _, err := decodeBatch(rd, int64(len(body))); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		recs, err := decodeBatch(rd, int64(len(body)))
		if err != nil || len(recs) != 256 {
			b.Fatalf("%d records, %v", len(recs), err)
		}
	}
}

// TestDecodeBatchUnknownLength: a chunked body (no Content-Length) takes
// io.ReadAll instead of the pooled buffer and decodes the same.
func TestDecodeBatchUnknownLength(t *testing.T) {
	body := benchBody(t, 64)
	want, err := decodeBatch(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBatch(bytes.NewReader(body), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 64 || !sameRecords(got, want) {
		t.Errorf("chunked body decoded %d records, sized body %d, or they differ", len(got), len(want))
	}
	if _, err := decodeBatch(strings.NewReader(" \n"), -1); err == nil || err.Error() != "empty request body" {
		t.Errorf("chunked whitespace body: %v", err)
	}
}

// FuzzScanObservationsMatchesJSON: whatever the bytes, the scanner either
// declines or returns exactly the events the encoding/json reading
// returns without error — it never answers a body that reading refuses,
// and never answers one differently.
func FuzzScanObservationsMatchesJSON(f *testing.F) {
	for _, c := range decodeBatchCases {
		f.Add([]byte(c.body))
	}
	f.Add(benchBody(f, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := stio.ScanObservations(nil, data)
		if !ok {
			return
		}
		want, err := decodeJSON(nil, data)
		if err != nil {
			t.Fatalf("the scanner answered %+v for a body encoding/json refuses: %v", got, err)
		}
		if len(got) != len(want) {
			t.Fatalf("the scanner read %d events, encoding/json %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Final != want[i].Final || !sameRecords([]Record{recordOf(got[i])}, []Record{recordOf(want[i])}) {
				t.Fatalf("event %d: the scanner read %+v, encoding/json %+v", i, got[i], want[i])
			}
		}
	})
}

// TestIngestBodyTooLarge: a body over the limit is not a malformed one.
// 400 tells a client not to resend those records; 413 tells it to cut the
// batch.
func TestIngestBodyTooLarge(t *testing.T) {
	in, err := Open(Config{Dir: t.TempDir(), Lambda: testLambda, Tree: testStreamOptions().PPR})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	h := NewHandler(in)
	post := func(path string, body io.Reader, length int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = length
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	spaces := func(n int64) io.Reader { return io.LimitReader(repeat(' '), n) }

	// /ingest refuses a declared length over its 64 MiB without reading it.
	w := post("/ingest", spaces(maxIngestBody+1), maxIngestBody+1)
	if want := `{"error":"reading request body: http: request body too large"}` + "\n"; w.Code != http.StatusRequestEntityTooLarge || w.Body.String() != want {
		t.Errorf("/ingest with a declared oversize body: %d %q", w.Code, w.Body.String())
	}
	// /ingest/finish (1 MiB) meets its limit while reading, sized or chunked.
	for _, length := range []int64{1<<20 + 1, -1} {
		w := post("/ingest/finish", spaces(1<<20+1), length)
		if want := `{"error":"parsing finish request: http: request body too large"}` + "\n"; w.Code != http.StatusRequestEntityTooLarge || w.Body.String() != want {
			t.Errorf("/ingest/finish over the limit (length %d): %d %q", length, w.Code, w.Body.String())
		}
	}
	// A malformed body is still a 400, and a good one is acknowledged in
	// the bytes the JSON encoder used to write.
	if w := post("/ingest", strings.NewReader(`{"id":1,"t":`), 12); w.Code != http.StatusBadRequest {
		t.Errorf("/ingest with a truncated object: %d %q", w.Code, w.Body.String())
	}
	body := `{"id":1,"t":5,"minx":0.1,"miny":0.1,"maxx":0.2,"maxy":0.2}` + "\n" + `{"id":2,"t":5,"minx":0.3,"miny":0.3,"maxx":0.4,"maxy":0.4}`
	w = post("/ingest", strings.NewReader(body), int64(len(body)))
	if want := `{"accepted":2,"seq":2}` + "\n"; w.Code != http.StatusOK || w.Body.String() != want || w.Header().Get("Content-Type") != "application/json" {
		t.Errorf("/ingest: %d %q (%s)", w.Code, w.Body.String(), w.Header().Get("Content-Type"))
	}
}

// repeat is an endless reader of one byte.
type repeat byte

func (b repeat) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestWriteAckMatchesEncoder: the hand-written ack is the encoder's.
func TestWriteAckMatchesEncoder(t *testing.T) {
	for _, c := range []struct {
		accepted int
		seq      uint64
	}{{1, 1}, {256, 123456789}, {0, 0}, {math.MaxInt32, math.MaxUint64}} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeAck(got, c.accepted, c.seq)
		writeJSON(want, map[string]any{"accepted": c.accepted, "seq": c.seq})
		if got.Body.String() != want.Body.String() || !reflect.DeepEqual(got.Header(), want.Header()) {
			t.Errorf("ack %q %v, encoder %q %v", got.Body.String(), got.Header(), want.Body.String(), want.Header())
		}
	}
}

// TestDecodeBatchConcurrent: requests share the scratch pool, never a
// scratch — each goroutine's records are those of its own bodies, with a
// fallback body in between to hand the pooled buffers a different size.
func TestDecodeBatchConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				var body []byte
				var want []Record
				for k := int64(0); k <= (g+i)%5; k++ {
					x := float64(g) + float64(i)/1000 + float64(k)/1e6
					body = fmt.Appendf(body, `{"id":%d,"t":%d,"minx":%s}`+"\n", g, i, strconv.FormatFloat(x, 'g', -1, 64))
					want = append(want, observe(g, i, x, 0, 0, 0))
				}
				if i%7 == 0 {
					body = append([]byte("["), append(bytes.ReplaceAll(bytes.TrimSpace(body), []byte("\n"), []byte(",")), ']')...)
				}
				got, err := decodeBatch(bytes.NewReader(body), int64(len(body)))
				if err != nil || !sameRecords(got, want) {
					t.Errorf("goroutine %d body %d: decoded %+v (%v), want %+v", g, i, got, err, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
