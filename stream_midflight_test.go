package stindex

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
)

// TestStreamContainerMidflightResume encodes a stream index to a STIC
// container while objects are still live, decodes it eagerly, and keeps
// ingesting into the decoded copy. This is exactly the ingestion
// recovery path: snapshot + replayed WAL tail must land on the same
// state as the never-interrupted index.
func TestStreamContainerMidflightResume(t *testing.T) {
	encoders := map[string]func(Index) ([]byte, error){
		"identity": EncodeIdentity,
		"compressed": func(x Index) ([]byte, error) {
			var buf bytes.Buffer
			_, err := EncodeIndex(&buf, x)
			return buf.Bytes(), err
		},
	}
	for codec, encode := range encoders {
		t.Run(codec, func(t *testing.T) {
			six, err := NewStreamIndex(StreamOptions{Lambda: 0.004}, 0)
			if err != nil {
				t.Fatal(err)
			}
			step := func(ix *StreamIndex, from, to int64) {
				t.Helper()
				for tm := from; tm < to; tm++ {
					for id := int64(1); id <= 25; id++ {
						// Every fifth object disappears at t=30; the rest
						// stay live across the encode point.
						if id%5 == 0 && tm >= 30 {
							if tm == 30 {
								if err := ix.Finish(id, tm); err != nil {
									t.Fatal(err)
								}
							}
							continue
						}
						x := 0.02*float64(id) + 0.005*float64(tm)
						y := 0.9 - 0.03*float64(id)
						r := Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}
						if err := ix.Observe(id, tm, r); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			step(six, 0, 35)
			if six.Live() == 0 {
				t.Fatal("want live objects at the encode point")
			}

			image, err := encode(six)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeIndex(bytes.NewReader(image))
			if err != nil {
				t.Fatal(err)
			}
			resumed, ok := decoded.(*StreamIndex)
			if !ok {
				t.Fatalf("decoded kind %T, want *StreamIndex", decoded)
			}
			if resumed.Live() != six.Live() || resumed.Records() != six.Records() {
				t.Fatalf("decoded state: live %d/%d records %d/%d",
					resumed.Live(), six.Live(), resumed.Records(), six.Records())
			}
			if resumed.Now() != six.Now() {
				t.Fatalf("decoded clock %d, want %d", resumed.Now(), six.Now())
			}
			if resumed.Lambda() != six.Lambda() {
				t.Fatalf("decoded lambda %g, want %g", resumed.Lambda(), six.Lambda())
			}

			// Continue the evolution on both and finish everything.
			step(six, 35, 60)
			step(resumed, 35, 60)
			if err := six.FinishAll(61); err != nil {
				t.Fatal(err)
			}
			if err := resumed.FinishAll(61); err != nil {
				t.Fatalf("FinishAll on decoded mid-flight index: %v", err)
			}

			if resumed.Records() != six.Records() || resumed.Cuts() != six.Cuts() {
				t.Fatalf("continued state: records %d/%d cuts %d/%d",
					resumed.Records(), six.Records(), resumed.Cuts(), six.Cuts())
			}
			for i := 0; i < 20; i++ {
				q := Rect{MinX: 0.04 * float64(i), MinY: 0, MaxX: 0.04*float64(i) + 0.3, MaxY: 1}
				iv := Interval{Start: int64(i), End: int64(i) + 20}
				want, err := six.Range(q, iv)
				if err != nil {
					t.Fatal(err)
				}
				got, err := resumed.Range(q, iv)
				if err != nil {
					t.Fatal(err)
				}
				sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
				sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
				if fmt.Sprint(want) != fmt.Sprint(got) {
					t.Fatalf("query %d diverged: %v vs %v", i, want, got)
				}
			}
		})
	}
}
