package service

import (
	"encoding/binary"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	stx "stindex"
)

// The /query answer is the serving hot path: at steady state it must not
// allocate. encoding/json reflects over the value and allocates per call,
// so the response is rendered by hand — either as the same JSON the
// reflective encoder used to produce, or as a compact binary frame — into
// a pooled buffer that is recycled after the write.

// respBufPool recycles response buffers across /query requests. Pooling
// the slice via a pointer keeps the pool interface-conversion
// allocation-free.
var respBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getRespBuf fetches an empty response buffer from the pool.
func getRespBuf() *[]byte {
	bp := respBufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// putRespBuf recycles a response buffer. Oversized buffers (a huge
// result set) are dropped instead of pinning their backing arrays in the
// pool.
func putRespBuf(bp *[]byte) {
	if cap(*bp) > 1<<20 {
		return
	}
	respBufPool.Put(bp)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping exactly
// the characters encoding/json escapes by default (quotes, backslash,
// control characters, and the HTML-unsafe <, >, &, U+2028, U+2029), so
// hand-rolled responses are byte-compatible with the reflective encoder.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '"':
				buf = append(buf, '\\', '"')
			case '\\':
				buf = append(buf, '\\', '\\')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// appendJSONFloat appends f exactly the way encoding/json renders a
// float64: shortest representation, 'f' format, switching to 'e' for
// very small or very large magnitudes, with the exponent's leading zero
// stripped ("2e-09" → "2e-9"). Byte-compatibility with the reflective
// encoder is what lets a client decode the zero-alloc answer with
// encoding/json as if that encoder had written it.
func appendJSONFloat(buf []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

// appendQueryResponseJSON renders the /query JSON answer — the exact
// bytes (field order, escaping, omitempty, trailing newline)
// encoding/json produces for a struct of the fields below — without
// allocating beyond buf's growth. The neighbors/trajectories arrays
// appear only for the kinds that produce them (omitempty semantics), so
// window responses are byte-identical to what they were before those
// kinds existed.
func appendQueryResponseJSON(buf []byte, res Result, elapsedUS int64) []byte {
	buf = append(buf, `{"snapshot":`...)
	buf = appendJSONString(buf, res.Snapshot)
	buf = append(buf, `,"gen":`...)
	buf = strconv.AppendUint(buf, res.Gen, 10)
	buf = append(buf, `,"count":`...)
	buf = strconv.AppendInt(buf, int64(len(res.IDs)), 10)
	buf = append(buf, `,"ids":[`...)
	for i, id := range res.IDs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, id, 10)
	}
	buf = append(buf, ']')
	if len(res.Neighbors) > 0 {
		buf = append(buf, `,"neighbors":[`...)
		for i, nb := range res.Neighbors {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"id":`...)
			buf = strconv.AppendInt(buf, nb.ObjectID, 10)
			buf = append(buf, `,"dist2":`...)
			buf = appendJSONFloat(buf, nb.Dist2)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	if len(res.Trajectories) > 0 {
		buf = append(buf, `,"trajectories":[`...)
		for i, th := range res.Trajectories {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"id":`...)
			buf = strconv.AppendInt(buf, th.ObjectID, 10)
			buf = append(buf, `,"pieces":`...)
			buf = strconv.AppendInt(buf, int64(th.Pieces), 10)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"io":`...)
	buf = strconv.AppendInt(buf, res.IO, 10)
	buf = append(buf, `,"elapsed_us":`...)
	buf = strconv.AppendInt(buf, elapsedUS, 10)
	return append(buf, '}', '\n')
}

// Binary query-response frame (little endian), selected with
// Accept: application/x-stindex or ?format=binary:
//
//	magic      [4]byte "STQ1"
//	kind       u32  0 window, 1 knn, 2 trajectory
//	gen        u64
//	io         u64
//	elapsed_us u64
//	nameLen    u16
//	name       nameLen bytes (snapshot name, UTF-8)
//	count      u32
//	ids        count × i64
//	payload    kind 1: count × f64 (dist2, IEEE-754 bits)
//	           kind 2: count × u32 (pieces)
//
// The kind word occupies what was a reserved-zero u32, so window frames
// are byte-identical to the pre-kind format and old decoders keep
// working for them.
const (
	binaryMagic = "STQ1"
	// BinaryContentType is the media type of the binary /query frame.
	BinaryContentType = "application/x-stindex"
)

// appendQueryResponseBinary renders the binary /query frame.
func appendQueryResponseBinary(buf []byte, res Result, elapsedUS int64) []byte {
	buf = append(buf, binaryMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(res.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, res.Gen)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.IO))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(elapsedUS))
	snapshot := res.Snapshot
	if len(snapshot) > 1<<16-1 {
		snapshot = snapshot[:1<<16-1]
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(snapshot)))
	buf = append(buf, snapshot...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(res.IDs)))
	for _, id := range res.IDs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	switch res.Kind {
	case stx.KindKNN:
		for _, nb := range res.Neighbors {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(nb.Dist2))
		}
	case stx.KindTrajectory:
		for _, th := range res.Trajectories {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(th.Pieces))
		}
	}
	return buf
}
