package section

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// TestRoundTripExact writes one section of every field kind followed by
// a trailer, reads it back, and requires the reader to stop exactly where
// the section ends.
func TestRoundTripExact(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("TEST", 3)
	w.U8(7)
	w.U32(math.MaxUint32)
	w.U64(1 << 60)
	w.I64(-5)
	w.F64(math.Inf(-1))
	w.String("shard.sti", 16)
	w.U32(2)
	n, err := w.Flush()
	if err != nil || n != int64(buf.Len()) || n != 4+4+1+4+8+8+8+2+9+4 {
		t.Fatalf("Flush = %d, %v; buffered %d", n, err, buf.Len())
	}
	buf.WriteString("next")

	src := bytes.NewReader(buf.Bytes())
	r := NewReader(src)
	r.Magic("TEST", 3)
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := r.U32(); v != math.MaxUint32 {
		t.Fatalf("U32 = %d", v)
	}
	if v := r.U64(); v != 1<<60 {
		t.Fatalf("U64 = %d", v)
	}
	if v := r.I64(); v != -5 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.F64(); !math.IsInf(v, -1) {
		t.Fatalf("F64 = %g", v)
	}
	if v := r.String(16); v != "shard.sti" {
		t.Fatalf("String = %q", v)
	}
	if v := r.Count32("count", 2); v != 2 || r.Err() != nil {
		t.Fatalf("Count32 = %d, %v", v, r.Err())
	}
	if rest, _ := io.ReadAll(src); string(rest) != "next" {
		t.Fatalf("reader left %q after the section, want %q", rest, "next")
	}
}

// TestReaderErrorsStick: the first failure is the section's error, and
// every later read returns zero.
func TestReaderErrorsStick(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("TEST", 1)
	w.U64(9)
	w.String("abc", 8)
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()
	for _, c := range []struct {
		name string
		read func(r *Reader)
		want string
	}{
		{"truncated", func(r *Reader) { r.Magic("TEST", 1); r.U64(); r.U64() }, io.ErrUnexpectedEOF.Error()},
		{"magic", func(r *Reader) { r.Magic("NOPE", 1) }, `bad magic "TEST"`},
		{"version", func(r *Reader) { r.Magic("TEST", 2) }, "unsupported version 1"},
		{"count", func(r *Reader) { r.Magic("TEST", 1); r.Count64("widgets", 8) }, "implausible widgets 9 (at most 8)"},
		{"string", func(r *Reader) { r.Magic("TEST", 1); r.U64(); r.String(2) }, "string of 3 bytes exceeds the limit of 2"},
		{"fail", func(r *Reader) { r.Fail(errors.New("bad field")); r.Fail(errors.New("later")) }, "bad field"},
	} {
		r := NewReader(bytes.NewReader(image))
		c.read(r)
		if r.Err() == nil || !strings.Contains(r.Err().Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, r.Err(), c.want)
		}
		if v, s := r.U64(), r.String(8); v != 0 || s != "" || r.Count32("more", 1) != 0 {
			t.Errorf("%s: reads after the failure gave %d, %q", c.name, v, s)
		}
	}
}

// TestWriterErrorsStick: a string over its limit fails the section, and
// Flush then writes nothing.
func TestWriterErrorsStick(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(1)
	w.String("too long", 4)
	w.U32(2)
	if _, err := w.Flush(); err == nil || !strings.Contains(err.Error(), "exceeds the limit of 4") {
		t.Fatalf("Flush error %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("a failed section wrote %d bytes", buf.Len())
	}
}
