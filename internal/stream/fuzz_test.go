package stream

import (
	"bytes"
	"testing"
)

// FuzzStreamMeta feeds arbitrary bytes to ReadMeta, the indexer's
// untrusted parse (the page extent after it is read by the page codec,
// fuzzed through whole containers). It must never panic, and a meta
// section it accepts must write back to one that reads back to itself.
func FuzzStreamMeta(f *testing.F) {
	evs := midflightFeed(6, 12, 1)
	empty := bracketIndexer(f, 0.01)
	midflight := bracketIndexer(f, 0.01)
	finished := bracketIndexer(f, 0.01)
	if err := applyEvents(midflight, evs[:len(evs)/2]); err != nil {
		f.Fatal(err)
	}
	if err := applyEvents(finished, evs); err != nil {
		f.Fatal(err)
	}
	if err := finished.FinishAll(13); err != nil {
		f.Fatal(err)
	}
	if midflight.Live() == 0 || finished.Live() != 0 {
		f.Fatalf("seeds hold %d and %d open pieces", midflight.Live(), finished.Live())
	}
	for _, ix := range []*Indexer{empty, midflight, finished} {
		var buf bytes.Buffer
		if _, err := ix.WriteMeta(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("STSM"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := ReadMeta(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if _, err := loaded.WriteMeta(&once); err != nil {
			t.Fatalf("writing an accepted meta section: %v", err)
		}
		again, err := ReadMeta(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("reading back an accepted meta section: %v", err)
		}
		if _, err := again.WriteMeta(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("an accepted meta section does not read back to itself")
		}
	})
}
