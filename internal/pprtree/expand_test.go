package pprtree

import (
	"math/rand"
	"testing"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// TestGrowthNeedsNodeMatchesDecodedNode: what propagateGrowth reads off a
// parent's page image is what it would read off the decoded node — live,
// or an entry for the child that does not contain the rectangle — and an
// image too short to decode is handed to decodePNode.
func TestGrowthNeedsNodeMatchesDecodedNode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	unit := func() geom.Rect {
		x, y := rng.Float64()*0.5, rng.Float64()*0.5
		return geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*0.5, MaxY: y + rng.Float64()*0.5}
	}
	needs, skips := 0, 0
	for trial := 0; trial < 2000; trial++ {
		n := &pnode{id: 9, leaf: trial%7 == 0, startT: 1, endT: geom.Now}
		if trial%4 != 0 {
			n.endT = 50
		}
		for i, count := 0, rng.Intn(9); i < count; i++ {
			e := pentry{rect: unit(), insertT: 1, deleteT: geom.Now, ref: uint64(rng.Intn(4))}
			if rng.Intn(3) == 0 {
				e.rect = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
			}
			n.entries = append(n.entries, e)
		}
		data := n.Encode(nil)
		child, rect := pagefile.PageID(rng.Intn(4)), unit()
		want := n.live()
		for _, e := range n.entries {
			if pagefile.PageID(e.ref) == child && !e.rect.Contains(rect) {
				want = true
			}
		}
		if got := growthNeedsNode(data, child, rect); got != want {
			t.Fatalf("trial %d: growthNeedsNode = %v, the decoded node says %v (%+v, child %d, rect %v)", trial, got, want, n, child, rect)
		}
		if want {
			needs++
		} else {
			skips++
		}
		for _, short := range []int{0, pnodeHeaderSize - 1, len(data) - 1} {
			if _, err := decodePNode(n.id, data[:short]); err != nil && !growthNeedsNode(data[:short], child, rect) {
				t.Fatalf("trial %d: an image cut to %d bytes does not decode, and was not sent to the decoder", trial, short)
			}
		}
	}
	if needs < 200 || skips < 200 {
		t.Fatalf("%d nodes needed, %d skipped: the trials do not cover both answers", needs, skips)
	}
}
