package stindex

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"stindex/internal/datagen"
	"stindex/internal/stio"
)

// The digests below were recorded on the commit before the offline build
// was optimised (write-back replay table in pprtree, typed MergeSplit
// heap): a build-side change that alters a cut, an insertion order, a
// page image or an encoded byte fails here. They hold for every page
// store backend and do not depend on STINDEX_CODEC (the codec is passed
// explicitly).
var pinnedBuildDigests = map[int64]map[string]string{
	1: {
		"records/merge-lagreedy":  "55665d9fecacf48e8496cb72908022f97fafb2ec4f7cbc2fcdcd30f05f931d0a",
		"records/merge-greedy":    "9a87dfde1252942e7fb8bd6b5346e5ce839237165ee7f7cdc16fba25a4be84cc",
		"ppr/identity":            "cba29d63b47eaecb2a96268f32548b557d1118e05df459d3934f206460adcbc2",
		"ppr/compressed":          "139964170c5dabd0fa64455514a03617c63abd8005bd45784395fca996f52eb1",
		"rstar-packed/identity":   "0579de0f7cc9842c665fcea4c569b097332a2feebb47f62cc1414bf61f55a5f1",
		"rstar-packed/compressed": "6df5bf34f8e322f74aeaa6fd05227821d87349ac3b012d40b6c8ec1dd81b2e96",
	},
	2: {
		"records/merge-lagreedy":  "8ebe81eda393977711ca8be975d0c91b45899e9afd951c400a70d157bf653ee2",
		"records/merge-greedy":    "a86148f9e765baa2342ad427fa3d73e66ac507c3977c40fd005d7e33d63042b0",
		"ppr/identity":            "8a6c57c755d8460b5308047591e98c28ee2274a9114989f530aaef1b2bd16c16",
		"ppr/compressed":          "0d9aec14e6f987aaa03d37645adb2329a70e6df27842b8b6ea543e3c134fe900",
		"rstar-packed/identity":   "1aa15fa14689804dfeeb9480432baaf48f43c4fd26a979bd06a69ea8e74d53a9",
		"rstar-packed/compressed": "10b9d64b9cde6eebab88e32c80d613fc35d4055a22fc6b7d03d6d3e5b2e0d633",
	},
}

func recordsDigest(records []Record) string {
	h := sha256.New()
	var buf [7 * 8]byte
	for _, r := range records {
		for i, f := range [4]float64{r.Rect.MinX, r.Rect.MinY, r.Rect.MaxX, r.Rect.MaxY} {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
		}
		binary.LittleEndian.PutUint64(buf[32:], uint64(r.Interval.Start))
		binary.LittleEndian.PutUint64(buf[40:], uint64(r.Interval.End))
		binary.LittleEndian.PutUint64(buf[48:], uint64(r.ObjectID))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func savedDigest(t *testing.T, idx Index, codec Codec) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pin.sti")
	if err := SaveIndexOptions(path, idx, SaveOptions{Codec: codec}); err != nil {
		t.Fatalf("SaveIndexOptions: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestBuildBytesPinned pins the offline pipeline's output byte for byte:
// the split records (merge splitter under both greedy distributions) and
// the saved containers of the two build paths, under both codecs.
func TestBuildBytesPinned(t *testing.T) {
	for seed, want := range pinnedBuildDigests {
		objs := genObjects(t, 1500, seed)
		got := map[string]string{}

		var records []Record
		for name, dist := range map[string]Distribution{
			"records/merge-lagreedy": DistributionLAGreedy,
			"records/merge-greedy":   DistributionGreedy,
		} {
			recs, _, err := SplitDataset(objs, SplitConfig{
				Budget: len(objs) * 3 / 2, Splitter: SplitterMerge, Distribution: dist,
			})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			got[name] = recordsDigest(recs)
			if dist == DistributionLAGreedy {
				records = recs
			}
		}

		ppr, err := BuildPPR(records, PPROptions{})
		if err != nil {
			t.Fatal(err)
		}
		packed, err := BuildRStarPacked(records, RStarOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for kind, idx := range map[string]Index{"ppr": ppr, "rstar-packed": packed} {
			got[kind+"/identity"] = savedDigest(t, idx, CodecIdentity)
			got[kind+"/compressed"] = savedDigest(t, idx, CodecCompressed)
		}

		for name, w := range want {
			if got[name] != w {
				t.Errorf("seed %d %s: digest %s, pinned %s", seed, name, got[name], w)
			}
		}
		if len(got) != len(want) {
			t.Errorf("seed %d: %d digests computed, %d pinned", seed, len(got), len(want))
		}
	}
}

// The stream-image pins were recorded on the commit before ExpandAlive
// began reading historical parents off their page images: the two paths
// TestBracketGroupsMatchWriteThrough compares both run that code, so a
// peek that is wrong the same way twice shows only here.
var pinnedStreamImages = map[string]string{
	"identity":   "b5def4b22088aca1437932ba0de23e8bacaebe1897c1529bbbdf013a751d2992",
	"compressed": "180e600b22cb22aa710dc7f382ceb9d643c49f71ed6f7e4f9fc0579567817803",
	"pool":       "requests=16349 writes=11997",
}

// TestStreamImagePinned feeds a stream index a generated feed in brackets
// of 256 events, as ingest commit groups do, and pins the encoded image
// under both codecs and the page traffic of the tree's pool. Eight-entry
// nodes make the history deep. Of the pool's statistics the requests
// (hits + misses) and the writes are pinned: a parent read skipped or
// added moves them. How the requests divide into hits and misses is not
// a constant of the feed — a grown node's parents are visited in map
// order, and the order decides what a sixteen-page pool still holds.
func TestStreamImagePinned(t *testing.T) {
	objs, err := datagen.Random(datagen.RandomConfig{N: 400, Horizon: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	obs := stio.ObservationsFromObjects(objs)
	six, err := NewStreamIndex(StreamOptions{Lambda: 0.01, PPR: PPROptions{MaxEntries: 8, BufferPages: 16}}, obs[0].T)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(obs); lo += 256 {
		group := obs[lo:min(lo+256, len(obs))]
		err := six.Tree().Batch(func() error {
			for _, o := range group {
				var err error
				if o.Final {
					err = six.Finish(o.ObjectID, o.T)
				} else {
					err = six.Observe(o.ObjectID, o.T, Rect{MinX: o.Rect.MinX, MinY: o.Rect.MinY, MaxX: o.Rect.MaxX, MaxY: o.Rect.MaxY})
				}
				if err != nil {
					return fmt.Errorf("object %d at %d: %w", o.ObjectID, o.T, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := six.Tree().Buffer().Stats()
	got := map[string]string{"pool": fmt.Sprintf("requests=%d writes=%d", st.Reads+st.Hits, st.Writes)}
	if _, err := six.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	for name, codec := range map[string]Codec{"identity": CodecIdentity, "compressed": CodecCompressed} {
		var buf bytes.Buffer
		if _, err := EncodeIndexOptions(&buf, six, SaveOptions{Codec: codec}); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[name] = hex.EncodeToString(sum[:])
	}
	for name, want := range pinnedStreamImages {
		if got[name] != want {
			t.Errorf("%s: %s, pinned %s", name, got[name], want)
		}
	}
}
