// Package section reads and writes the metadata sections of the index
// formats: the PPR-tree, R*-tree and stream meta, the container's meta
// framing and the shard manifest. A section is a run of little-endian
// fixed-width fields, u16-prefixed strings and counted arrays.
//
// Both sides keep a sticky error. After the first failure every write is
// dropped and every read returns zero, so a format is written as
// straight-line code and its error is checked once, where a value is
// about to be trusted. The rules every format keeps:
//
//   - Reads are exact. A Reader takes no byte past the last field asked
//     for, so another section can follow in the same stream.
//   - Reading drives allocation. A count from the input sizes no slice or
//     map ahead of the bytes that fill it, beyond a capped hint.
//   - Every count has a maximum, named where it is read.
//   - Fixed headers read once as one slice (the container header, the WAL
//     segment header, STPF) stay slices; so do the node codecs.
package section

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Writer appends a section's fields to a buffered stream.
type Writer struct {
	bw  *bufio.Writer
	n   int64
	err error
}

// NewWriter starts a section on w. Nothing reaches w before Flush but
// what overflows the buffer.
func NewWriter(w io.Writer) *Writer { return &Writer{bw: bufio.NewWriter(w)} }

// write hands one field, appended into the buffer's free space, to the
// buffer.
func (w *Writer) write(field []byte) {
	if w.err != nil {
		return
	}
	m, err := w.bw.Write(field)
	w.n += int64(m)
	w.err = err
}

// Magic writes a section header: the magic bytes, then a u32 version.
func (w *Writer) Magic(magic string, version uint32) {
	w.write(append(w.bw.AvailableBuffer(), magic...))
	w.U32(version)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.write(append(w.bw.AvailableBuffer(), v)) }

// U32 writes a little-endian u32.
func (w *Writer) U32(v uint32) { w.write(binary.LittleEndian.AppendUint32(w.bw.AvailableBuffer(), v)) }

// U64 writes a little-endian u64.
func (w *Writer) U64(v uint64) { w.write(binary.LittleEndian.AppendUint64(w.bw.AvailableBuffer(), v)) }

// I64 writes an i64 as its two's-complement u64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 writes a float64 as its IEEE 754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String writes s as a u16 length and its bytes. A string longer than
// max fails the section.
func (w *Writer) String(s string, max int) {
	if len(s) > max {
		if w.err == nil {
			w.err = fmt.Errorf("string of %d bytes exceeds the limit of %d", len(s), max)
		}
		return
	}
	w.write(binary.LittleEndian.AppendUint16(w.bw.AvailableBuffer(), uint16(len(s))))
	w.write(append(w.bw.AvailableBuffer(), s...))
}

// Flush writes out the buffered fields unless the section has failed,
// and returns the section's byte count and its first error.
func (w *Writer) Flush() (int64, error) {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.n, w.err
}

// Reader reads a section's fields with exact reads.
type Reader struct {
	r   io.Reader
	err error
	buf [8]byte
}

// NewReader starts reading a section from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Err returns the section's first error: a short read (as
// io.ErrUnexpectedEOF), a failed check, or what Fail recorded.
func (r *Reader) Err() error { return r.err }

// Fail records err as the section's error unless it already has one. A
// format calls it when a value it read is invalid; later reads return
// zero.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// fill reads exactly len(b) bytes into b, or zeroes b once the section
// has failed. One Read is tried before io.ReadFull's loop: from an
// in-memory meta section it fills the field.
func (r *Reader) fill(b []byte) {
	if r.err == nil {
		n, err := r.r.Read(b)
		if n == len(b) {
			return
		}
		if err == nil {
			if _, err = io.ReadFull(r.r, b[n:]); err == nil {
				return
			}
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a section ends where its format says
		}
		r.err = err
	}
	clear(b)
}

// next reads the next n ≤ 8 bytes of the section.
func (r *Reader) next(n int) []byte {
	b := r.buf[:n]
	r.fill(b)
	return b
}

// Magic reads a section header written by Writer.Magic and fails unless
// it carries magic (at most 8 bytes) and version.
func (r *Reader) Magic(magic string, version uint32) {
	if got := r.next(len(magic)); r.err == nil && string(got) != magic {
		r.err = fmt.Errorf("bad magic %q", got)
		return
	}
	if v := r.U32(); r.err == nil && v != version {
		r.err = fmt.Errorf("unsupported version %d", v)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 { return r.next(1)[0] }

// U32 reads a little-endian u32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.next(4)) }

// U64 reads a little-endian u64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.next(8)) }

// I64 reads an i64 written by Writer.I64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 written by Writer.F64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a string written by Writer.String. A length above max
// fails the section before anything is allocated.
func (r *Reader) String(max int) string {
	n := int(binary.LittleEndian.Uint16(r.next(2)))
	if r.err != nil {
		return ""
	}
	if n > max {
		r.err = fmt.Errorf("string of %d bytes exceeds the limit of %d", n, max)
		return ""
	}
	b := make([]byte, n)
	if r.fill(b); r.err != nil {
		return ""
	}
	return string(b)
}

// Count32 reads a u32 count of what and fails the section if it exceeds
// max; a failed count is zero.
func (r *Reader) Count32(what string, max uint64) int {
	return r.count(what, uint64(r.U32()), max)
}

// Count64 reads a u64 count of what and fails the section if it exceeds
// max; a failed count is zero.
func (r *Reader) Count64(what string, max uint64) int {
	return r.count(what, r.U64(), max)
}

func (r *Reader) count(what string, v, max uint64) int {
	if r.err != nil {
		return 0
	}
	if v > max {
		r.err = fmt.Errorf("implausible %s %d (at most %d)", what, v, max)
		return 0
	}
	return int(v)
}
