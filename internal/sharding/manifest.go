package sharding

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	stx "stindex"

	"stindex/internal/section"
)

// Shard-manifest layout (little endian) — the tiny file a sharded
// snapshot is loaded from:
//
//	magic       [4]byte "STSM"
//	version     u32  1
//	kind        str  index kind every shard container holds
//	partitioner str  partitioner that produced the plan
//	records     u64  total records across shards
//	objects     u64  total distinct objects
//	shards      u32  shard count (1..MaxShards)
//	per shard:
//	  path        str  container file, relative to the manifest's directory
//	  rect        4 x f64 (minx, miny, maxx, maxy) — pruning MBR
//	  interval    2 x i64 (start, end) — pruning interval
//	  records     u64
//	  objects     u64
//	  bufferPages u32  per-shard buffer-pool budget (alloc-distributed)
//
// str is u16 length + bytes. Every count and length is validated before
// allocation: a corrupt or truncated manifest fails cleanly and can
// never make the reader over-allocate (FuzzReadManifest pins this).
const (
	// ManifestMagic is the first four bytes of a shard manifest; the
	// serving registry sniffs it to route a -load path to the sharded
	// open path.
	ManifestMagic = "STSM"

	manifestVersion = 1

	maxManifestString = 4096
	maxShardRecords   = 1 << 48
)

// ShardInfo is one shard's manifest entry.
type ShardInfo struct {
	// Path names the shard's container file, relative to the manifest's
	// directory (absolute and parent-escaping paths are rejected).
	Path     string
	Rect     stx.Rect
	Interval stx.Interval
	Records  int
	Objects  int
	// BufferPages is the shard's buffer-pool budget, carved out of the
	// plan's global page budget by the alloc distribution.
	BufferPages int
}

// Manifest describes a sharded snapshot.
type Manifest struct {
	Kind        string
	Partitioner string
	Records     int
	Objects     int
	Shards      []ShardInfo
}

// WriteManifest serialises the manifest to w.
func WriteManifest(w io.Writer, m *Manifest) error {
	if len(m.Shards) == 0 || len(m.Shards) > MaxShards {
		return fmt.Errorf("sharding: manifest with %d shards, want 1..%d", len(m.Shards), MaxShards)
	}
	sw := section.NewWriter(w)
	sw.Magic(ManifestMagic, manifestVersion)
	sw.String(m.Kind, maxManifestString)
	sw.String(m.Partitioner, maxManifestString)
	sw.U64(uint64(m.Records))
	sw.U64(uint64(m.Objects))
	sw.U32(uint32(len(m.Shards)))
	for i := range m.Shards {
		sh := &m.Shards[i]
		if err := validShardPath(sh.Path); err != nil {
			return err
		}
		sw.String(sh.Path, maxManifestString)
		sw.F64(sh.Rect.MinX)
		sw.F64(sh.Rect.MinY)
		sw.F64(sh.Rect.MaxX)
		sw.F64(sh.Rect.MaxY)
		sw.I64(sh.Interval.Start)
		sw.I64(sh.Interval.End)
		sw.U64(uint64(sh.Records))
		sw.U64(uint64(sh.Objects))
		sw.U32(uint32(sh.BufferPages))
	}
	if _, err := sw.Flush(); err != nil {
		return fmt.Errorf("sharding: writing manifest: %w", err)
	}
	return nil
}

// validShardPath rejects shard paths that could escape the manifest's
// directory: a -load of an operator-supplied manifest must never open
// files outside it.
func validShardPath(p string) error {
	if p == "" {
		return fmt.Errorf("sharding: empty shard path")
	}
	if filepath.IsAbs(p) {
		return fmt.Errorf("sharding: absolute shard path %q (want manifest-relative)", p)
	}
	for _, part := range strings.Split(filepath.ToSlash(p), "/") {
		if part == ".." {
			return fmt.Errorf("sharding: shard path %q escapes the manifest directory", p)
		}
	}
	return nil
}

// ReadManifest parses a manifest stream. Corrupt, truncated or
// implausible input fails with an error — never a panic, never an
// allocation driven by an unvalidated count.
func ReadManifest(r io.Reader) (*Manifest, error) {
	br := bufio.NewReader(r)
	sr := section.NewReader(br)
	sr.Magic(ManifestMagic, manifestVersion)
	m := &Manifest{
		Kind:        sr.String(maxManifestString),
		Partitioner: sr.String(maxManifestString),
		Records:     sr.Count64("record count", maxShardRecords),
		Objects:     sr.Count64("object count", maxShardRecords),
	}
	shards := sr.Count32("shard count", MaxShards)
	if sr.Err() == nil && shards == 0 {
		return nil, fmt.Errorf("sharding: manifest names no shards, want 1..%d", MaxShards)
	}
	// The shard count is untrusted: reading drives the allocation, not
	// the header (a truncated stream stops growing the slice).
	for i := 0; i < shards && sr.Err() == nil; i++ {
		sh := ShardInfo{
			Path:        sr.String(maxManifestString),
			Rect:        stx.Rect{MinX: sr.F64(), MinY: sr.F64(), MaxX: sr.F64(), MaxY: sr.F64()},
			Interval:    stx.Interval{Start: sr.I64(), End: sr.I64()},
			Records:     sr.Count64("shard record count", maxShardRecords),
			Objects:     sr.Count64("shard object count", maxShardRecords),
			BufferPages: int(sr.U32()),
		}
		if sr.Err() != nil {
			break
		}
		if err := validShardPath(sh.Path); err != nil {
			return nil, err
		}
		for _, f := range [...]float64{sh.Rect.MinX, sh.Rect.MinY, sh.Rect.MaxX, sh.Rect.MaxY} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("sharding: shard %d has a non-finite pruning bound", i)
			}
		}
		if sh.Rect.MinX > sh.Rect.MaxX || sh.Rect.MinY > sh.Rect.MaxY {
			return nil, fmt.Errorf("sharding: shard %d has a degenerate pruning rect", i)
		}
		if sh.Interval.End < sh.Interval.Start {
			return nil, fmt.Errorf("sharding: shard %d has a degenerate pruning interval", i)
		}
		m.Shards = append(m.Shards, sh)
	}
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("sharding: reading manifest: %w", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("sharding: trailing garbage after manifest")
	}
	return m, nil
}

// SaveManifest writes the manifest to path.
func SaveManifest(path string, m *Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sharding: saving manifest: %w", err)
	}
	if err := WriteManifest(f, m); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("sharding: saving manifest: %w", err)
	}
	return nil
}

// LoadManifest reads the manifest at path.
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sharding: opening manifest: %w", err)
	}
	defer f.Close()
	return ReadManifest(f)
}

// IsManifest sniffs whether the file at path starts with the shard
// manifest magic — how the serving registry decides between the sharded
// and the single-container open path.
func IsManifest(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false
	}
	return string(magic[:]) == ManifestMagic
}
