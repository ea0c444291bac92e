package stindex

import "sync"

// Synchronized wraps an index for concurrent use. The underlying
// structures are not safe for concurrent access — even read-only queries
// mutate the shared LRU buffer pool — so the wrapper serialises every
// operation behind one mutex.
func Synchronized(idx Index) *SyncIndex {
	return &SyncIndex{idx: idx}
}

// SyncIndex is a mutex-guarded index. It implements Index.
type SyncIndex struct {
	mu  sync.Mutex
	idx Index
}

// Snapshot implements Index.
func (s *SyncIndex) Snapshot(r Rect, t int64) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Snapshot(r, t)
}

// Range implements Index.
func (s *SyncIndex) Range(r Rect, iv Interval) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Range(r, iv)
}

// Nearest implements Index.
func (s *SyncIndex) Nearest(x, y float64, t int64, k int) ([]Neighbor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Nearest(x, y, t, k)
}

// Trajectory implements Index.
func (s *SyncIndex) Trajectory(r Rect, iv Interval) ([]TrajectoryHit, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Trajectory(r, iv)
}

// ResetBuffer implements Index.
func (s *SyncIndex) ResetBuffer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.ResetBuffer()
}

// IOStats implements Index.
func (s *SyncIndex) IOStats() IOStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.IOStats()
}

// Pages implements Index.
func (s *SyncIndex) Pages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Pages()
}

// Bytes implements Index.
func (s *SyncIndex) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Bytes()
}

// Records implements Index.
func (s *SyncIndex) Records() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Records()
}

// Kind implements Index.
func (s *SyncIndex) Kind() string { return s.idx.Kind() }

var _ Index = (*SyncIndex)(nil)
