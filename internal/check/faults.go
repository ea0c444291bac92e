package check

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"

	stx "stindex"
	"stindex/internal/pagefile"
)

// DefaultReadSchedules are the read-path fault schedules Run drives
// every index kind through: first-read failure, a mid-traversal failure,
// a periodic failure, a short (truncated) read, and a seeded random 2%
// failure rate. With none, Run skips the fault matrix.
var DefaultReadSchedules = []string{"read@1", "read@5", "read/7", "short@3", "rand:99:0.02"}

// faultVariant is one open flavour the fault matrix drives each schedule
// through: the backend the container is reopened with, and whether a
// shared decoded-node cache wraps the fault-injecting store (the
// registry's serving arrangement).
type faultVariant struct {
	backend stx.Backend
	cached  bool
}

func (v faultVariant) String() string {
	if v.cached {
		return string(v.backend) + "+cache"
	}
	return string(v.backend)
}

// faultVariants covers the pread window, the memory-mapped flavour, and
// the shared-cache serving composition.
var faultVariants = []faultVariant{
	{stx.BackendDisk, false},
	{stx.BackendMmap, false},
	{stx.BackendDisk, true},
}

// faultMatrix proves the kind degrades cleanly under storage faults. It
// reopens the kind's container in each flavour of faultVariants with
// each schedule of DefaultReadSchedules injected under the page stores
// (so faults land on already-decoded pages — the lazily decompressing
// store must compose with injection), and requires that under faults
// every query either matches the oracle or fails with an error wrapping
// ErrInjected — never a panic, never a silently wrong answer. It then
// disarms the faults, resets the buffer pool, and requires every query
// to match the oracle exactly, proving no fault left corrupted state
// behind (stale cache frames, poisoned decode cache, broken traversal
// state). The cached variant additionally proves a failed or short read
// never publishes a decode: a second session, served from the shared
// cache after disarm, must still be oracle-exact.
func (r *run) faultMatrix(kind, path string, exp *Expected) error {
	for _, variant := range faultVariants {
		for _, schedStr := range DefaultReadSchedules {
			r.cfg.Logf("faults seed=%d kind=%s variant=%s schedule=%s", r.cfg.Seed, kind, variant, schedStr)
			injected, err := runFaultSchedule(path, schedStr, r.wl, exp, variant)
			r.rep.Injected += injected
			if err != nil {
				return fmt.Errorf("variant %s schedule %s: %w", variant, schedStr, err)
			}
			r.rep.Schedules++
		}
	}
	return nil
}

// runFaultSchedule opens the container in the variant's flavour with one
// fault schedule armed, runs the armed pass, then the disarmed recheck
// pass. In the cached variant the shared cache wraps the fault store, so
// decode misses reach the injector while hits are legally served — but
// only pages that were read successfully ever publish a node, which the
// disarmed oracle-exact recheck through a second session proves.
func runFaultSchedule(path, schedStr string, wl *Workload, exp *Expected, variant faultVariant) (uint64, error) {
	sched, err := ParseSchedule(schedStr)
	if err != nil {
		return 0, err
	}
	wrap, stores := Wrapper(sched)
	opts := stx.OpenOptions{Backend: variant.backend, Wrap: wrap}
	counters := &pagefile.CacheCounters{}
	if variant.cached {
		opts.Wrap = sharedCacheWrap(pagefile.NewSharedCache(16<<20), counters, wrap)
	}
	idx, err := stx.OpenIndexOptions(path, opts)
	if err != nil {
		// A fault during the open itself must still surface as a clean
		// injected error, never as a decoding panic or a zombie index.
		if errors.Is(err, ErrInjected) {
			return 1, nil
		}
		return 0, fmt.Errorf("open: %w", err)
	}
	defer stx.CloseIndex(idx)

	// Armed pass: every query of every family either agrees with the
	// oracle or fails with the injected error. Anything else — a panic
	// would abort the run, a differing answer fails here — means a fault
	// corrupted a query.
	if err := faultPass(idx, wl, exp, true); err != nil {
		return injectedCount(stores), err
	}
	injected := injectedCount(stores)
	if injected == 0 && !strings.HasPrefix(schedStr, "rand:") {
		return injected, fmt.Errorf("deterministic schedule never fired (%d reads seen)", readCount(stores))
	}

	// Disarmed recheck: the same index, faults off, buffer pool cleared.
	// Every answer must now be oracle-exact — a failed read must not have
	// left a partial frame resident, a short read must not have poisoned
	// the decode cache.
	for _, fs := range *stores {
		fs.Disarm()
	}
	idx.ResetBuffer()
	if err := faultPass(idx, wl, exp, false); err != nil {
		return injected, err
	}
	if err := CheckInvariants(idx); err != nil {
		return injected, fmt.Errorf("after disarm: %w", err)
	}
	if variant.cached {
		// A second session over the generation (a view of the one open,
		// as a registry lease's, its injector disarmed) is served from
		// whatever the faulted session published: had a failed or short
		// read published a node, these answers would differ from the
		// oracle. The variant only means something if the cache actually
		// carried traffic.
		if err := faultPass(idx.QueryView(), wl, exp, false); err != nil {
			return injected, fmt.Errorf("second session: %w", err)
		}
		cv := counters.Load()
		if cv.SharedHits == 0 {
			return injected, fmt.Errorf("shared cache inert under faults (%d store reads)", cv.StoreReads)
		}
		if cv.Decodes > cv.StoreReads {
			return injected, fmt.Errorf("%d nodes published from %d successful page reads", cv.Decodes, cv.StoreReads)
		}
	}
	if err := stx.CloseIndex(idx); err != nil {
		return injected, fmt.Errorf("close after disarm: %w", err)
	}
	return injected, nil
}

// faultPass runs every query family against idx under the fault
// matrix's fail-stop contract. Armed, each answer must be oracle-exact
// or fail with an error wrapping ErrInjected — a partial or corrupted
// answer fails immediately. Disarmed (the recovery recheck), each answer
// must be oracle-exact with no error at all.
func faultPass(idx stx.Index, wl *Workload, exp *Expected, armed bool) error {
	phase := "after disarm"
	if armed {
		phase = "under faults"
	}
	run := func(family string, n int, query func(i int) (stx.QueryResult, error), same func(i int, res stx.QueryResult) bool) error {
		for i := 0; i < n; i++ {
			res, err := query(i)
			if err != nil {
				if armed && errors.Is(err, ErrInjected) {
					continue
				}
				if armed {
					return fmt.Errorf("%s %d %s: unexpected error: %w", family, i, phase, err)
				}
				return fmt.Errorf("%s %d %s: %w", family, i, phase, err)
			}
			if !same(i, res) {
				return fmt.Errorf("%s %d %s: wrong or partial answer, disagrees with oracle", family, i, phase)
			}
		}
		return nil
	}
	if err := run("query", len(wl.Queries),
		func(i int) (stx.QueryResult, error) { return stx.RunQueryResult(idx, wl.Queries[i]) },
		func(i int, res stx.QueryResult) bool { return SameIDs(res.IDs, exp.Window[i]) }); err != nil {
		return err
	}
	if err := run("knn query", len(wl.KNNQueries),
		func(i int) (stx.QueryResult, error) { return stx.RunQueryResult(idx, wl.KNNQueries[i]) },
		func(i int, res stx.QueryResult) bool { return SameNeighbors(res.Neighbors, exp.KNN[i]) }); err != nil {
		return err
	}
	return run("trajectory query", len(wl.TrajQueries),
		func(i int) (stx.QueryResult, error) { return stx.RunQueryResult(idx, wl.TrajQueries[i]) },
		func(i int, res stx.QueryResult) bool { return SameTrajectories(res.Trajectories, exp.Traj[i]) })
}

func injectedCount(stores *[]*FaultStore) uint64 {
	var n uint64
	for _, fs := range *stores {
		n += fs.Injected()
	}
	return n
}

func readCount(stores *[]*FaultStore) uint64 {
	var n uint64
	for _, fs := range *stores {
		r, _, _ := fs.Ops()
		n += r
	}
	return n
}

// VerifyBufferFaults drives the Buffer directly over a FaultStore,
// through the write-path rules the query-only matrix cannot reach, and
// asserts the exact failure semantics the Buffer documents: a failed
// write leaves the buffered copy and the stats untouched, a torn write is
// visible on re-read exactly as the torn image (never the stale pre-tear
// decode), a failed read leaves nothing resident — also the image-less
// read of a page whose decode is cached — and a failing Close propagates.
// The write-path cases run on File, the only store that takes writes; the
// image-less read runs on File and again over a saved extent opened
// through the pread window and the mapping, so it also has a file under
// it.
func VerifyBufferFaults() error {
	if err := verifyWriteFaults(); err != nil {
		return fmt.Errorf("check: buffer faults: %w", err)
	}
	const pageSize = 128
	f := pagefile.New(pageSize)
	r := f.Allocate()
	if err := f.WritePage(r, bytes.Repeat([]byte{0xA1}, pageSize)); err != nil {
		return err
	}
	if err := verifyImagelessReadFault(f, r); err != nil {
		return fmt.Errorf("check: buffer faults on mem: %w", err)
	}
	for _, flavour := range []pagefile.Backend{pagefile.BackendDisk, pagefile.BackendMmap} {
		if err := imagelessReadFaultOnExtent(f, r, flavour); err != nil {
			return fmt.Errorf("check: buffer faults on extent (%s): %w", flavour, err)
		}
	}
	return nil
}

func verifyWriteFaults() error {
	const pageSize = 128
	pageA := bytes.Repeat([]byte{0xA1}, pageSize)
	pageB := bytes.Repeat([]byte{0xB2}, pageSize)

	// Failed write: write@2 fails the second write before the store sees
	// it; the first page's image and the write stats must be untouched.
	fs := NewFaultStore(pagefile.New(pageSize), MustSchedule("write@2,close@1"))
	buf := pagefile.NewBuffer(fs, 4)
	a, b := fs.Allocate(), fs.Allocate()
	if err := buf.Write(a, pageA); err != nil {
		return fmt.Errorf("first write: %v", err)
	}
	if err := buf.Write(b, pageB); !errors.Is(err, ErrInjected) {
		return fmt.Errorf("write@2 did not propagate, got %v", err)
	}
	if st := buf.Stats(); st.Writes != 1 {
		return fmt.Errorf("failed write perturbed stats: %+v", st)
	}
	got, err := buf.Read(a)
	if err != nil || !bytes.Equal(got, pageA) {
		return fmt.Errorf("page A corrupted after failed write: %v", err)
	}
	// Failing Close propagates through the wrapper.
	if err := fs.Close(); !errors.Is(err, ErrInjected) {
		return fmt.Errorf("close@1 did not propagate, got %v", err)
	}

	// Torn write: the first half of the new image is persisted, the tail
	// zeroed, the error surfaced — and a fresh read sees exactly the torn
	// image, with the decode cache re-decoding (the version advanced), not
	// serving the pre-tear parse.
	fs2 := NewFaultStore(pagefile.New(pageSize), MustSchedule("torn@2"))
	buf2 := pagefile.NewBuffer(fs2, 4)
	p := fs2.Allocate()
	if err := buf2.Write(p, pageA); err != nil {
		return fmt.Errorf("seed write: %v", err)
	}
	decodes := 0
	decode := func(id pagefile.PageID, data []byte) (any, error) {
		decodes++
		return append([]byte(nil), data...), nil
	}
	if _, err := buf2.ReadDecoded(p, decode); err != nil {
		return fmt.Errorf("seed decode: %v", err)
	}
	if err := buf2.Write(p, pageB); !errors.Is(err, ErrInjected) {
		return fmt.Errorf("torn@2 did not propagate, got %v", err)
	}
	buf2.Reset() // drop the pool so the next read hits the torn disk image
	torn := append(append([]byte(nil), pageB[:pageSize/2]...), make([]byte, pageSize-pageSize/2)...)
	v, err := buf2.ReadDecoded(p, decode)
	if err != nil {
		return fmt.Errorf("read after torn write: %v", err)
	}
	if !bytes.Equal(v.([]byte), torn) {
		return fmt.Errorf("torn page image wrong: got %x... want %x...", v.([]byte)[:8], torn[:8])
	}
	if decodes != 2 {
		return fmt.Errorf("decode cache served a stale pre-tear parse (%d decodes)", decodes)
	}

	// Periodic write failure: write/3 fails writes 3, 6, 9, … and only
	// those; failed reads leave nothing resident (the retry succeeds).
	fs3 := NewFaultStore(pagefile.New(pageSize), MustSchedule("write/3,read@1"))
	buf3 := pagefile.NewBuffer(fs3, 2)
	q := fs3.Allocate()
	failures := 0
	for i := 1; i <= 9; i++ {
		if err := buf3.Write(q, pageA); err != nil {
			if !errors.Is(err, ErrInjected) {
				return fmt.Errorf("write %d: %v", i, err)
			}
			failures++
		}
	}
	if failures != 3 {
		return fmt.Errorf("write/3 fired %d times over 9 writes, want 3", failures)
	}
	buf3.Reset()
	if _, err := buf3.Read(q); !errors.Is(err, ErrInjected) {
		return fmt.Errorf("read@1 did not propagate, got %v", err)
	}
	if got, err := buf3.Read(q); err != nil || !bytes.Equal(got, pageA) {
		return fmt.Errorf("retry after failed read: %v", err)
	}
	return nil
}

// imagelessReadFaultOnExtent saves f as one extent, opens it with the
// flavour and runs verifyImagelessReadFault over it.
func imagelessReadFaultOnExtent(f *pagefile.File, r pagefile.PageID, flavour pagefile.Backend) error {
	tmp, err := os.CreateTemp("", "stcheck-extent-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	size, err := pagefile.WriteExtent(tmp, f, pagefile.LayoutOpaque)
	if err != nil {
		return err
	}
	s, _, err := pagefile.OpenExtent(tmp, 0, size, pagefile.CodecIDCompressed, flavour)
	if err != nil {
		return err
	}
	defer s.Close()
	return verifyImagelessReadFault(s, r)
}

// verifyImagelessReadFault: once a page is decoded, a pool miss reads it
// without asking for its image. A fault on that read propagates, charges
// nothing and leaves nothing resident; the retry reaches the store again
// and answers from the cached decode, not a second parse. Page r of s
// must hold 0xA1 bytes.
func verifyImagelessReadFault(s pagefile.Store, r pagefile.PageID) error {
	fs := NewFaultStore(s, MustSchedule("read@2"))
	buf := pagefile.NewBuffer(fs, 2)
	decodes := 0
	decode := func(id pagefile.PageID, data []byte) (any, error) {
		decodes++
		return append([]byte(nil), data...), nil
	}
	first, err := buf.ReadDecoded(r, decode)
	if err != nil {
		return fmt.Errorf("seed decode: %v", err)
	}
	if !bytes.Equal(first.([]byte), bytes.Repeat([]byte{0xA1}, s.PageSize())) {
		return fmt.Errorf("seed decode read a wrong image")
	}
	buf.Reset()
	if _, err := buf.ReadDecoded(r, decode); !errors.Is(err, ErrInjected) {
		return fmt.Errorf("read@2 under a cached decode did not propagate, got %v", err)
	}
	if st := buf.Stats(); st != (pagefile.Stats{}) {
		return fmt.Errorf("failed image-less read perturbed stats: %+v", st)
	}
	v, err := buf.ReadDecoded(r, decode)
	if err != nil {
		return fmt.Errorf("retry after failed image-less read: %v", err)
	}
	if st := buf.Stats(); st != (pagefile.Stats{Reads: 1}) {
		return fmt.Errorf("retry after failed image-less read charged %+v, want one miss (was the page left resident?)", st)
	}
	if reads, _, _ := fs.Ops(); reads != 3 {
		return fmt.Errorf("%d store reads, want 3 (seed, failed, retry)", reads)
	}
	if decodes != 1 || !bytes.Equal(v.([]byte), first.([]byte)) {
		return fmt.Errorf("retry after failed image-less read decoded again (%d decodes)", decodes)
	}
	return nil
}
