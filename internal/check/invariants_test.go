package check

import (
	"encoding/binary"
	"math"
	"testing"

	stx "stindex"
	"stindex/internal/pagefile"
)

func TestCheckInvariantsAllKinds(t *testing.T) {
	wl, err := GenerateWorkload(150, 500, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range AllKinds {
		idx, err := BuildKind(kind, wl)
		if err != nil {
			t.Fatalf("building %s: %v", kind, err)
		}
		if err := CheckInvariants(idx); err != nil {
			t.Errorf("pristine %s index fails invariants: %v", kind, err)
		}
	}
}

// TestMutationDetected is the harness's self-test: a single hand-corrupted
// leaf MBR — one entry of one PPR-tree page moved out of the unit space —
// must be caught by BOTH detectors, the structural invariant walk and the
// differential oracle. If either stops seeing it, the harness has gone
// blind.
func TestMutationDetected(t *testing.T) {
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 300, Horizon: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	records := stx.UnsplitRecords(objs) // one record per object: a corrupted entry is a guaranteed miss
	idx, err := stx.BuildPPR(records, stx.PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariants(idx); err != nil {
		t.Fatalf("pristine index fails invariants: %v", err)
	}
	oracle := NewOracle(records)

	store := idx.Tree().Store()
	buf := idx.Tree().Buffer()
	data := make([]byte, store.PageSize())
	// First pass: for every page referenced from a directory entry, record
	// the latest close time of any referencing entry. Validate only checks
	// MBR containment from the parent side, so the corruption must land in
	// a leaf some directory entry still covered — an old root-span leaf
	// with no parent would be invisible to the structural walk.
	parentClose := make(map[uint64]int64)
	for id := 0; id < store.NumPages(); id++ {
		p := pagefile.PageID(id)
		if store.Check(p) != nil || store.ReadPage(p, data) != nil {
			continue
		}
		if data[0]&0x01 != 0 { // leaf
			continue
		}
		count := int(binary.LittleEndian.Uint16(data[2:]))
		for i := 0; i < count; i++ {
			off := 24 + i*56
			deleteT := int64(binary.LittleEndian.Uint64(data[off+40:]))
			ref := binary.LittleEndian.Uint64(data[off+48:])
			if deleteT > parentClose[ref] {
				parentClose[ref] = deleteT
			}
		}
	}
	var (
		found    bool
		pid      pagefile.PageID
		origRect stx.Rect
		queryT   int64
	)
	// Second pass: find a parent-covered leaf entry and a time instant at
	// which this physical node copy is the one a snapshot query consults
	// (inside both the entry's lifetime and the node's validity window).
	for id := 0; id < store.NumPages() && !found; id++ {
		p := pagefile.PageID(id)
		if store.Check(p) != nil || store.ReadPage(p, data) != nil {
			continue
		}
		if data[0]&0x01 == 0 { // directory node
			continue
		}
		count := int(binary.LittleEndian.Uint16(data[2:]))
		nodeStart := int64(binary.LittleEndian.Uint64(data[8:]))
		nodeEnd := int64(binary.LittleEndian.Uint64(data[16:]))
		for i := 0; i < count; i++ {
			off := 24 + i*56
			insertT := int64(binary.LittleEndian.Uint64(data[off+32:]))
			deleteT := int64(binary.LittleEndian.Uint64(data[off+40:]))
			if insertT >= parentClose[uint64(p)] {
				continue // no directory entry ever covered this record
			}
			lo, hi := insertT, deleteT
			if nodeStart > lo {
				lo = nodeStart
			}
			if nodeEnd < hi {
				hi = nodeEnd
			}
			if lo >= hi {
				continue
			}
			origRect = stx.Rect{
				MinX: math.Float64frombits(binary.LittleEndian.Uint64(data[off:])),
				MinY: math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:])),
				MaxX: math.Float64frombits(binary.LittleEndian.Uint64(data[off+16:])),
				MaxY: math.Float64frombits(binary.LittleEndian.Uint64(data[off+24:])),
			}
			// Corrupt: shift the rectangle far outside the unit space (still
			// a valid rect, so only containment and the oracle can tell).
			binary.LittleEndian.PutUint64(data[off:], math.Float64bits(5e6))
			binary.LittleEndian.PutUint64(data[off+8:], math.Float64bits(5e6))
			binary.LittleEndian.PutUint64(data[off+16:], math.Float64bits(5e6+1))
			binary.LittleEndian.PutUint64(data[off+24:], math.Float64bits(5e6+1))
			pid, queryT, found = p, lo, true
			break
		}
	}
	if !found {
		t.Fatal("no suitable leaf entry found to corrupt")
	}
	// Write through the tree's buffer so the resident frame and the decode
	// cache see the corruption, exactly as a real torn page would after a
	// reopen.
	if err := buf.Write(pid, data); err != nil {
		t.Fatalf("writing corrupted page: %v", err)
	}

	// Detector 1: the invariant walk must flag the escaped MBR.
	if err := CheckInvariants(idx); err == nil {
		t.Error("CheckInvariants did not detect the corrupted leaf MBR")
	} else {
		t.Logf("invariants caught it: %v", err)
	}

	// Detector 2: the differential oracle must see the missing object on a
	// snapshot query targeted at the original rectangle and lifetime.
	q := stx.Query{Rect: origRect, Interval: stx.Interval{Start: queryT, End: queryT + 1}}
	want := oracle.Query(q)
	got, err := stx.RunQuery(idx, q)
	if err != nil {
		t.Fatalf("query on corrupted index: %v", err)
	}
	if SameIDs(got, want) {
		t.Error("differential oracle did not detect the corrupted leaf MBR")
	} else {
		t.Logf("oracle caught it: index %v vs oracle %v", SortedIDs(got), want)
	}
}
