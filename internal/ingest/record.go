// Package ingest is the live ingestion subsystem: a write-ahead-logged
// single-writer pipeline that feeds an in-memory stream index, a
// background freezer that periodically publishes the index as a STIC
// container with zero serving downtime, and crash recovery that replays
// the journal back to the exact pre-crash state.
//
// Durability contract: a record is acknowledged to the client only after
// its WAL frame is fsynced. It is applied to the in-memory index while
// that fsync runs, but under the lock every reader of the index takes,
// which the apply keeps until the fsync has returned — and a failed fsync
// poisons the index instead of releasing the group. So acknowledged ⊆
// visible ⊆ durable, and recovery (snapshot + journal tail) reconstructs
// a state that contains every acknowledged record and nothing the
// validator did not admit.
package ingest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"stindex/internal/geom"
)

// RecordKind discriminates WAL records.
type RecordKind byte

const (
	// RecObserve journals Observe(ObjectID, T, Rect).
	RecObserve RecordKind = 1
	// RecFinish journals Finish(ObjectID, T).
	RecFinish RecordKind = 2
	// RecFinishAll journals FinishAll(T).
	RecFinishAll RecordKind = 3
)

// Record is one journaled stream mutation.
type Record struct {
	Kind     RecordKind
	ObjectID int64
	T        int64
	Rect     geom.Rect // RecObserve only
}

// STWL frame layout (little endian):
//
//	length  u32   payload bytes (1..maxPayload)
//	crc     u32   CRC-32 (Castagnoli) of the payload
//	payload kind u8, then per kind:
//	        observe:    objID i64, t i64, rect MinX/MinY/MaxX/MaxY f64
//	        finish:     objID i64, t i64
//	        finish-all: t i64
//
// The frame header is what makes torn tails detectable: a partially
// written frame either runs past EOF or fails its CRC, and recovery
// truncates the segment there instead of guessing.
const (
	frameHeader    = 8
	observePayload = 1 + 8 + 8 + 32
	finishPayload  = 1 + 8 + 8
	finAllPayload  = 1 + 8
	// maxPayload bounds what a frame length field may claim, so a
	// corrupted length can never drive an allocation.
	maxPayload = 64
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the record's framed encoding to buf.
func appendFrame(buf []byte, r Record) ([]byte, error) {
	var payload [observePayload]byte
	var n int
	payload[0] = byte(r.Kind)
	switch r.Kind {
	case RecObserve:
		binary.LittleEndian.PutUint64(payload[1:], uint64(r.ObjectID))
		binary.LittleEndian.PutUint64(payload[9:], uint64(r.T))
		binary.LittleEndian.PutUint64(payload[17:], math.Float64bits(r.Rect.MinX))
		binary.LittleEndian.PutUint64(payload[25:], math.Float64bits(r.Rect.MinY))
		binary.LittleEndian.PutUint64(payload[33:], math.Float64bits(r.Rect.MaxX))
		binary.LittleEndian.PutUint64(payload[41:], math.Float64bits(r.Rect.MaxY))
		n = observePayload
	case RecFinish:
		binary.LittleEndian.PutUint64(payload[1:], uint64(r.ObjectID))
		binary.LittleEndian.PutUint64(payload[9:], uint64(r.T))
		n = finishPayload
	case RecFinishAll:
		binary.LittleEndian.PutUint64(payload[1:], uint64(r.T))
		n = finAllPayload
	default:
		return buf, fmt.Errorf("ingest: unknown record kind %d", r.Kind)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload[:n], crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload[:n]...), nil
}

// decodeFrame parses one frame at the head of b. It returns the record,
// the total frame size consumed, and an error that distinguishes "torn or
// corrupt here" (errTorn wrapped) from clean EOF (n == 0, nil error when
// len(b) == 0).
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) == 0 {
		return Record{}, 0, nil
	}
	if len(b) < frameHeader {
		return Record{}, 0, fmt.Errorf("%w: %d-byte partial frame header", errTorn, len(b))
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || n > maxPayload {
		return Record{}, 0, fmt.Errorf("%w: implausible frame length %d", errTorn, n)
	}
	if len(b) < frameHeader+int(n) {
		return Record{}, 0, fmt.Errorf("%w: frame runs past end of segment", errTorn)
	}
	payload := b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:8]) {
		return Record{}, 0, fmt.Errorf("%w: frame checksum mismatch", errTorn)
	}
	var r Record
	r.Kind = RecordKind(payload[0])
	switch {
	case r.Kind == RecObserve && len(payload) == observePayload:
		r.ObjectID = int64(binary.LittleEndian.Uint64(payload[1:]))
		r.T = int64(binary.LittleEndian.Uint64(payload[9:]))
		r.Rect = geom.Rect{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(payload[17:])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(payload[25:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(payload[33:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(payload[41:])),
		}
	case r.Kind == RecFinish && len(payload) == finishPayload:
		r.ObjectID = int64(binary.LittleEndian.Uint64(payload[1:]))
		r.T = int64(binary.LittleEndian.Uint64(payload[9:]))
	case r.Kind == RecFinishAll && len(payload) == finAllPayload:
		r.T = int64(binary.LittleEndian.Uint64(payload[1:]))
	default:
		return Record{}, 0, fmt.Errorf("%w: kind %d with %d-byte payload", errTorn, r.Kind, len(payload))
	}
	return r, frameHeader + int(n), nil
}
