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
	"stindex/internal/pagefile"
	"stindex/internal/stio"
	"stindex/internal/trajectory"
)

// The digests below were recorded on the commit before the offline build
// was optimised (write-back replay table in pprtree, typed MergeSplit
// heap): a build-side change that alters a cut, an insertion order, a
// page image or an encoded byte fails here. The "*/pages" digests pin
// what the pages hold (pageImageDigest); they were recorded on the last
// commit that still wrote identity containers, whose digests they
// replace. The "rstar/pages" and "hr/pages" digests, the two trees built
// by insertion and node splits, were recorded on the commit before the
// three trees' R* splits became one.
var pinnedBuildDigests = map[int64]map[string]string{
	1: {
		"records/merge-lagreedy":  "55665d9fecacf48e8496cb72908022f97fafb2ec4f7cbc2fcdcd30f05f931d0a",
		"records/merge-greedy":    "9a87dfde1252942e7fb8bd6b5346e5ce839237165ee7f7cdc16fba25a4be84cc",
		"ppr/pages":               "2bc1b688186b33691ca29099f58adb509ff26757cbe59b1486904c68c3d477a8",
		"ppr/compressed":          "139964170c5dabd0fa64455514a03617c63abd8005bd45784395fca996f52eb1",
		"rstar-packed/pages":      "4619230751da08e21cd5aa7f3513745e5e520696a201decca62bd272550afced",
		"rstar-packed/compressed": "6df5bf34f8e322f74aeaa6fd05227821d87349ac3b012d40b6c8ec1dd81b2e96",
		"rstar/pages":             "f80407e675ae405559428e99547b262b5f92c34000398aa4321a52b5a35ee01d",
		"hr/pages":                "fcabcdbfab83dcbe68e04f6e85948345d34ec69d9cab0dd7555187809098a33c",
	},
	2: {
		"records/merge-lagreedy":  "8ebe81eda393977711ca8be975d0c91b45899e9afd951c400a70d157bf653ee2",
		"records/merge-greedy":    "a86148f9e765baa2342ad427fa3d73e66ac507c3977c40fd005d7e33d63042b0",
		"ppr/pages":               "2f1bf2319846393df85ebcb5cfe98d6f6f91e5b48e7479c1eba672719bd9b298",
		"ppr/compressed":          "0d9aec14e6f987aaa03d37645adb2329a70e6df27842b8b6ea543e3c134fe900",
		"rstar-packed/pages":      "f396490cc6067f4a2c07c2e3c5bfcc1d852d0a4a92ac3b662b594cadcbab9a9d",
		"rstar-packed/compressed": "10b9d64b9cde6eebab88e32c80d613fc35d4055a22fc6b7d03d6d3e5b2e0d633",
		"rstar/pages":             "5a0869c379858f2ca4161e3d239cf075e75ceed4629e2d2ea81c6b11ab81e81f",
		"hr/pages":                "8308ee9aa4b2626efe1b972a7721e97d74b75f4752e38e5bf6aa4d7e3f65b38a",
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

func savedDigest(t *testing.T, idx Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pin.sti")
	if err := SaveIndex(path, idx); err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// pageImageDigest hashes what an index's container extent encodes,
// whatever the page codec: the meta section, the free list (count, then
// ids) and every live page image of the index's store, in id order. An
// HR-tree has no container: its version roots (page, height, span) stand
// in for the meta section.
func pageImageDigest(t *testing.T, idx Index) string {
	t.Helper()
	var meta []byte
	var store pagefile.Store
	if hr, ok := idx.(*HRIndex); ok {
		store = hr.Tree().Store()
		hr.Tree().VersionRoots(func(root pagefile.PageID, height int, start, end int64) {
			for _, v := range [4]uint64{uint64(root), uint64(height), uint64(start), uint64(end)} {
				meta = binary.LittleEndian.AppendUint64(meta, v)
			}
		})
	} else {
		var err error
		if _, meta, store, err = encodeContainerMeta(idx); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	h.Write(meta)
	free := store.FreeList()
	h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(free))))
	for _, id := range free {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(id)))
	}
	page := make([]byte, store.PageSize())
	for i := 0; i < store.NumAllocated(); i++ {
		id := pagefile.PageID(i)
		if store.Check(id) != nil {
			continue
		}
		if err := store.ReadPage(id, page); err != nil {
			t.Fatal(err)
		}
		h.Write(page)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildBytesPinned pins the offline pipeline's output byte for byte:
// the split records (merge splitter under both greedy distributions), the
// page images and saved containers of the two build paths, and the page
// images of the two trees built by insertion, whose node splits the
// first two never run.
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
			got[kind+"/pages"] = pageImageDigest(t, idx)
			got[kind+"/compressed"] = savedDigest(t, idx)
		}
		rst, err := BuildRStar(records, RStarOptions{ShuffleSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		hr, err := BuildHR(records)
		if err != nil {
			t.Fatal(err)
		}
		got["rstar/pages"] = pageImageDigest(t, rst)
		got["hr/pages"] = pageImageDigest(t, hr)

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

// pinnedLargePackedDigests pin the page images of a packed R*-tree over
// 7 500 records, recorded on the commit before the STR sorts became key
// sorts, where a sort of 4 096 entries or more with two workers or more
// took a chunked parallel merge: TestBuildBytesPinned's 3 750 records
// never did.
var pinnedLargePackedDigests = map[int64]string{
	1: "999564095c06b36086f72d0d463ac221d67ceabed6419dd5a40cb41d2841828d",
	2: "067cfe31e5b16b8dee3f153c2bc71fc7424637162506aa87a9a36f31fa9f6df6",
}

// TestLargePackedBuildPinned builds the packed R*-tree of 3 000 objects
// split at a 150% budget with one, two and three workers.
func TestLargePackedBuildPinned(t *testing.T) {
	for seed, want := range pinnedLargePackedDigests {
		objs := genObjects(t, 3000, seed)
		records, _, err := SplitDataset(objs, SplitConfig{
			Budget: len(objs) * 3 / 2, Splitter: SplitterMerge, Distribution: DistributionLAGreedy,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			packed, err := BuildRStarPacked(records, RStarOptions{Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := pageImageDigest(t, packed); got != want {
				t.Errorf("seed %d, %d records, %d workers: rstar-packed/pages digest %s, pinned %s",
					seed, len(records), workers, got, want)
			}
		}
	}
}

// The stream-image pins were recorded on the commit before ExpandAlive
// began reading historical parents off their page images: the two paths
// TestBracketGroupsMatchWriteThrough compares both run that code, so a
// peek that is wrong the same way twice shows only here.
var pinnedStreamImages = map[string]string{
	"pages":      "7f124b27b2f06316858a8aba047ab62f6274c65eae3764ed2044f70b0b161dc5",
	"compressed": "180e600b22cb22aa710dc7f382ceb9d643c49f71ed6f7e4f9fc0579567817803",
	"pool":       "requests=11755 writes=11997",
}

// TestStreamImagePinned feeds a stream index a generated feed in brackets
// of 256 events, as ingest commit groups do, and pins its page images,
// its encoded container and the page traffic of the tree's pool. Eight-entry
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
	got["pages"] = pageImageDigest(t, six)
	var buf bytes.Buffer
	if _, err := EncodeIndex(&buf, six); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	got["compressed"] = hex.EncodeToString(sum[:])
	for name, want := range pinnedStreamImages {
		if got[name] != want {
			t.Errorf("%s: %s, pinned %s", name, got[name], want)
		}
	}
}

// pinnedGenerators holds the SHA-256 of stio.WriteObjects' output for
// each generator the paper's datasets come from, at two seeds, the
// commuter family and the chooser's longer lifetimes included: a changed
// default, constant or random draw in a generator fails here.
var pinnedGenerators = map[string]string{
	"datagen.Random/1":           "62cb1229b390d1c77e5afe804fcb18cd6b376005849af568eff601c265c65150",
	"datagen.Random/2":           "0d5f03eaf8423463f6770b138d1fc29d0463cf5e643279df19ea0ee31e37ccb6",
	"datagen.Random/lifetime250": "80da5eabec1fc2a2de4f4018be39f93e95edb73471e9471c0161f5b8eb517472",
	"datagen.Railway/1":          "97ef89dae7b2c63f71f951b2be4234c5354ce921dba175d5477a9722c23aa254",
	"datagen.Railway/2":          "855717480d9fcfcd533d0b9ed491062635f4850d16430837c4ecb3008d6a739e",
	"datagen.Commuter/1":         "38204f48f7a4a548fda6fed1d0c925e6422c7ea3b7be336fd07d51fa0296c03b",
	"datagen.Commuter/2":         "43a88c6a3e3d5c5d4d08543610094f16eccc7e60fcaeae65b8b31620156e097d",
	"GenerateRandom/1":           "b650297adebd181d5c68e151be88836ddd33ed3468aecb641e6c75cf7228d20a",
	"GenerateRandom/2":           "fde1eed4ce892c1cccaebb619a2e51fd927892419d8af3477b16fcaf4f2c3679",
	"GenerateRailway/1":          "4f7f08b61bdfc2609f8b0cef68b676cd4ca3555bf2fb59a711a735eb72794ad1",
	"GenerateRailway/2":          "25923ef3986fe679bb353d18ab454f7848feb24eabb41f1b3bc1a511ce7f0b31",
}

func TestGeneratorsPinned(t *testing.T) {
	facade := func(objs []*Object, err error) ([]*trajectory.Object, error) {
		inner := make([]*trajectory.Object, len(objs))
		for i, o := range objs {
			inner[i] = o.inner
		}
		return inner, err
	}
	gens := map[string]func() ([]*trajectory.Object, error){}
	for _, seed := range []int64{1, 2} {
		gens[fmt.Sprintf("datagen.Random/%d", seed)] = func() ([]*trajectory.Object, error) {
			return datagen.Random(datagen.RandomConfig{N: 400, Seed: seed})
		}
		gens[fmt.Sprintf("datagen.Railway/%d", seed)] = func() ([]*trajectory.Object, error) {
			return datagen.Railway(datagen.RailwayConfig{N: 400, Seed: seed})
		}
		gens[fmt.Sprintf("datagen.Commuter/%d", seed)] = func() ([]*trajectory.Object, error) {
			return datagen.Commuter(datagen.CommuterConfig{N: 400, Seed: seed})
		}
		gens[fmt.Sprintf("GenerateRandom/%d", seed)] = func() ([]*trajectory.Object, error) {
			return facade(GenerateRandom(RandomDatasetConfig{N: 400, Horizon: 600, Seed: seed}))
		}
		gens[fmt.Sprintf("GenerateRailway/%d", seed)] = func() ([]*trajectory.Object, error) {
			return facade(GenerateRailway(RailwayDatasetConfig{N: 400, Horizon: 600, Seed: seed}))
		}
	}
	gens["datagen.Random/lifetime250"] = func() ([]*trajectory.Object, error) {
		return datagen.Random(datagen.RandomConfig{N: 400, Seed: 3, MaxLifetime: 250, FirstID: 1000})
	}
	for name, want := range pinnedGenerators {
		objs, err := gens[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		if err := stio.WriteObjects(h, objs); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: %s, pinned %s", name, got, want)
		}
	}
}
