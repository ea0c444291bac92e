// Package check is the correctness harness of the repository: a
// deterministic fault-injecting page store (FaultStore), structural
// invariant walkers for every index kind (CheckInvariants), and a
// differential oracle that cross-checks every index kind, open flavour
// and execution path against a brute-force linear scan (Oracle, Run).
//
// Everything is seeded and reproducible: a failing run prints its
// workload seed and fault schedule, and replaying the same seed and
// schedule replays the exact same faults and queries.
package check

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"stindex/internal/pagefile"
)

// ErrInjected is the root of every fault FaultStore injects; test with
// errors.Is. The concrete error names the rule and the operation count
// that fired, so a failure is reproducible from its message alone.
var ErrInjected = errors.New("check: injected fault")

// Op names a store operation class for fault scheduling.
type Op string

// The schedulable operation classes.
const (
	OpRead  Op = "read"
	OpWrite Op = "write"
	OpClose Op = "close"
)

// ruleKind is what a schedule rule does when it fires.
type ruleKind int

const (
	ruleFail  ruleKind = iota // fail the operation outright
	ruleShort                 // read: deliver a truncated image, then fail
	ruleTorn                  // write: persist a torn image, then fail
	ruleRand                  // fail with probability P, seeded
)

// rule is one clause of a fault schedule.
type rule struct {
	kind  ruleKind
	op    Op
	nth   uint64  // fire on the Nth operation (1-based); 0 = unused
	every uint64  // fire on every Kth operation; 0 = unused
	seed  uint64  // ruleRand: the probability stream seed
	prob  float64 // ruleRand: per-operation failure probability
}

func (r rule) String() string {
	switch r.kind {
	case ruleShort:
		return fmt.Sprintf("short@%d", r.nth)
	case ruleTorn:
		return fmt.Sprintf("torn@%d", r.nth)
	case ruleRand:
		return fmt.Sprintf("rand:%d:%g", r.seed, r.prob)
	}
	if r.every != 0 {
		return fmt.Sprintf("%s/%d", r.op, r.every)
	}
	return fmt.Sprintf("%s@%d", r.op, r.nth)
}

// fires reports whether the rule triggers on the n-th operation of class
// op (n is 1-based).
func (r rule) fires(op Op, n uint64) bool {
	switch r.kind {
	case ruleShort:
		return op == OpRead && n == r.nth
	case ruleTorn:
		return op == OpWrite && n == r.nth
	case ruleRand:
		if op == OpClose {
			return false
		}
		return randUnit(r.seed, op, n) < r.prob
	}
	if r.op != op {
		return false
	}
	if r.every != 0 {
		return n%r.every == 0
	}
	return n == r.nth
}

// randUnit maps (seed, op, n) onto [0, 1) deterministically — a splitmix64
// step over the inputs, so concurrent readers need no shared RNG state.
func randUnit(seed uint64, op Op, n uint64) float64 {
	x := seed ^ (n * 0x9e3779b97f4a7c15)
	if op == OpWrite {
		x ^= 0xbf58476d1ce4e5b9
	}
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Schedule is a parsed fault schedule: a set of deterministic rules over
// the store's per-class operation counters.
//
// The schedule grammar (comma-separated rules):
//
//	read@N    fail the Nth read (1-based)
//	write@N   fail the Nth write
//	close@N   fail the Nth Close
//	read/K    fail every Kth read
//	write/K   fail every Kth write
//	short@N   the Nth read delivers a truncated page image, then fails
//	torn@N    the Nth write persists a torn page image (prefix of the new
//	          data, zeroed tail), then fails
//	rand:S:P  every read and write independently fails with probability P,
//	          deterministically derived from seed S and the operation count
//
// Examples: "read@3", "write/5,short@2", "rand:42:0.05". A Schedule's
// String() round-trips through ParseSchedule, so a printed schedule is
// directly replayable.
type Schedule struct {
	rules []rule
}

// ParseSchedule parses the fault schedule grammar above.
func ParseSchedule(s string) (*Schedule, error) {
	sched := &Schedule{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		sched.rules = append(sched.rules, r)
	}
	if len(sched.rules) == 0 {
		return nil, fmt.Errorf("check: empty fault schedule %q", s)
	}
	return sched, nil
}

// MustSchedule is ParseSchedule for literal schedules; it panics on a
// malformed one.
func MustSchedule(s string) *Schedule {
	sched, err := ParseSchedule(s)
	if err != nil {
		panic(err)
	}
	return sched
}

func parseRule(s string) (rule, error) {
	if rest, ok := strings.CutPrefix(s, "rand:"); ok {
		seedStr, probStr, ok := strings.Cut(rest, ":")
		if !ok {
			return rule{}, fmt.Errorf("check: rule %q wants rand:SEED:P", s)
		}
		seed, err := strconv.ParseUint(seedStr, 10, 64)
		if err != nil {
			return rule{}, fmt.Errorf("check: rule %q: bad seed: %v", s, err)
		}
		prob, err := strconv.ParseFloat(probStr, 64)
		if err != nil || prob < 0 || prob > 1 {
			return rule{}, fmt.Errorf("check: rule %q: probability must be in [0, 1]", s)
		}
		return rule{kind: ruleRand, seed: seed, prob: prob}, nil
	}
	if op, arg, ok := strings.Cut(s, "@"); ok {
		n, err := strconv.ParseUint(arg, 10, 64)
		if err != nil || n == 0 {
			return rule{}, fmt.Errorf("check: rule %q: want a positive operation number", s)
		}
		switch op {
		case "read", "write", "close":
			return rule{kind: ruleFail, op: Op(op), nth: n}, nil
		case "short":
			return rule{kind: ruleShort, op: OpRead, nth: n}, nil
		case "torn":
			return rule{kind: ruleTorn, op: OpWrite, nth: n}, nil
		}
		return rule{}, fmt.Errorf("check: rule %q: unknown operation %q", s, op)
	}
	if op, arg, ok := strings.Cut(s, "/"); ok {
		k, err := strconv.ParseUint(arg, 10, 64)
		if err != nil || k == 0 {
			return rule{}, fmt.Errorf("check: rule %q: want a positive period", s)
		}
		switch op {
		case "read", "write", "close":
			return rule{kind: ruleFail, op: Op(op), every: k}, nil
		}
		return rule{}, fmt.Errorf("check: rule %q: unknown operation %q", s, op)
	}
	return rule{}, fmt.Errorf("check: unparseable rule %q", s)
}

// String renders the schedule in the grammar ParseSchedule accepts.
func (s *Schedule) String() string {
	parts := make([]string, len(s.rules))
	for i, r := range s.rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// decide returns the rule that fires on the n-th operation of class op,
// if any.
func (s *Schedule) decide(op Op, n uint64) (rule, bool) {
	for _, r := range s.rules {
		if r.fires(op, n) {
			return r, true
		}
	}
	return rule{}, false
}

// FaultStore wraps any pagefile.Store and injects deterministic,
// schedule-driven storage errors: failed reads and writes, short reads
// (a truncated page image is delivered alongside the error) and torn
// writes (a prefix of the new image is persisted, the tail zeroed, and
// the error returned — exactly the half-written page of a crashed disk).
//
// Counting is atomic, so a frozen FaultStore is safe for the same
// concurrent-reader usage as the store it wraps; the injected sequence is
// deterministic for a fixed interleaving (and exactly reproducible in
// serial runs). Disarm turns injection off, which is how the harness
// proves a fault leaves no corrupted state behind: re-running the same
// queries after Disarm must give bit-identical, oracle-equal answers.
type FaultStore struct {
	inner    pagefile.Store
	sched    *Schedule
	reads    atomic.Uint64
	writes   atomic.Uint64
	closes   atomic.Uint64
	injected atomic.Uint64
	disarmed atomic.Bool
}

// NewFaultStore wraps inner with the given fault schedule.
func NewFaultStore(inner pagefile.Store, sched *Schedule) *FaultStore {
	return &FaultStore{inner: inner, sched: sched}
}

// Wrapper returns a stindex.StoreWrapper-compatible function installing
// the same schedule over every store it is handed, and a slice that
// collects the created FaultStores (one per container extent).
func Wrapper(sched *Schedule) (func(pagefile.Store) pagefile.Store, *[]*FaultStore) {
	created := &[]*FaultStore{}
	return func(s pagefile.Store) pagefile.Store {
		fs := NewFaultStore(s, sched)
		*created = append(*created, fs)
		return fs
	}, created
}

// Disarm switches injection off; the wrapped store behaves transparently
// from now on.
func (f *FaultStore) Disarm() { f.disarmed.Store(true) }

// Injected returns how many faults have fired so far.
func (f *FaultStore) Injected() uint64 { return f.injected.Load() }

// Ops returns the read, write and close operation counts seen so far.
func (f *FaultStore) Ops() (reads, writes, closes uint64) {
	return f.reads.Load(), f.writes.Load(), f.closes.Load()
}

// Schedule returns the store's fault schedule.
func (f *FaultStore) Schedule() *Schedule { return f.sched }

func (f *FaultStore) inject(r rule, n uint64) error {
	f.injected.Add(1)
	return fmt.Errorf("%w: rule %s fired on %s %d", ErrInjected, r, r.opClass(), n)
}

func (r rule) opClass() Op {
	switch r.kind {
	case ruleShort:
		return OpRead
	case ruleTorn:
		return OpWrite
	case ruleRand:
		return "op"
	}
	return r.op
}

// ReadPage implements pagefile.Store. A plain fail rule fails before
// touching the inner store; a short rule delivers a half page (the rest
// of dst zeroed) together with the error, modelling a partial sector
// read.
func (f *FaultStore) ReadPage(id pagefile.PageID, dst []byte) error {
	n := f.reads.Add(1)
	if f.disarmed.Load() {
		return f.inner.ReadPage(id, dst)
	}
	r, fire := f.sched.decide(OpRead, n)
	if !fire {
		return f.inner.ReadPage(id, dst)
	}
	if r.kind == ruleShort {
		if err := f.inner.ReadPage(id, dst); err != nil {
			return err
		}
		for i := len(dst) / 2; i < len(dst); i++ {
			dst[i] = 0
		}
		return f.inject(r, n)
	}
	return f.inject(r, n)
}

// WritePage implements pagefile.Store. A plain fail rule fails before
// the inner store sees anything; a torn rule persists the first half of
// the image (the inner store zero-pads the tail) and then reports
// failure — the page is now torn on "disk", as after a crash mid-write.
func (f *FaultStore) WritePage(id pagefile.PageID, data []byte) error {
	n := f.writes.Add(1)
	if f.disarmed.Load() {
		return f.inner.WritePage(id, data)
	}
	r, fire := f.sched.decide(OpWrite, n)
	if !fire {
		return f.inner.WritePage(id, data)
	}
	if r.kind == ruleTorn {
		if err := f.inner.WritePage(id, data[:len(data)/2]); err != nil {
			return err
		}
		return f.inject(r, n)
	}
	return f.inject(r, n)
}

// Close implements pagefile.Store.
func (f *FaultStore) Close() error {
	n := f.closes.Add(1)
	if !f.disarmed.Load() {
		if r, fire := f.sched.decide(OpClose, n); fire {
			return f.inject(r, n)
		}
	}
	return f.inner.Close()
}

// The remaining Store methods delegate untouched.

// PageSize implements pagefile.Store.
func (f *FaultStore) PageSize() int { return f.inner.PageSize() }

// NumPages implements pagefile.Store.
func (f *FaultStore) NumPages() int { return f.inner.NumPages() }

// NumAllocated implements pagefile.Store.
func (f *FaultStore) NumAllocated() int { return f.inner.NumAllocated() }

// Bytes implements pagefile.Store.
func (f *FaultStore) Bytes() int64 { return f.inner.Bytes() }

// FreeList implements pagefile.Store.
func (f *FaultStore) FreeList() []pagefile.PageID { return f.inner.FreeList() }

// Allocate implements pagefile.Store.
func (f *FaultStore) Allocate() pagefile.PageID { return f.inner.Allocate() }

// Free implements pagefile.Store.
func (f *FaultStore) Free(id pagefile.PageID) error { return f.inner.Free(id) }

// Check implements pagefile.Store.
func (f *FaultStore) Check(id pagefile.PageID) error { return f.inner.Check(id) }

// Version implements pagefile.Store.
func (f *FaultStore) Version(id pagefile.PageID) uint64 { return f.inner.Version(id) }

// ReadOnly forwards the inner store's read-only flavour, so the facade's
// ErrReadOnly guards keep working through the wrapper.
func (f *FaultStore) ReadOnly() bool {
	ro, ok := f.inner.(interface{ ReadOnly() bool })
	return ok && ro.ReadOnly()
}

var _ pagefile.Store = (*FaultStore)(nil)
