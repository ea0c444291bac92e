package datagen

import (
	"testing"

	"stindex/internal/trajectory"
)

func TestRandomDataset(t *testing.T) {
	objs, err := Random(RandomConfig{N: 500, Seed: 7})
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	if len(objs) != 500 {
		t.Fatalf("got %d objects, want 500", len(objs))
	}
	for _, o := range objs {
		if o.Len() < 1 || o.Len() > 100 {
			t.Fatalf("object %d has lifetime %d, want [1,100]", o.ID, o.Len())
		}
		if o.Start() < 0 || o.End() > 1000 {
			t.Fatalf("object %d lifetime %v escapes horizon", o.ID, o.Lifetime())
		}
		segs := len(o.Breakpoints()) + 1
		if segs < 1 || segs > 10 {
			t.Fatalf("object %d has %d segments, want [1,10]", o.ID, segs)
		}
		for i := 0; i < o.Len(); i++ {
			r := o.InstantRect(i)
			if r.MinX < -1e-9 || r.MinY < -1e-9 || r.MaxX > 1+1e-9 || r.MaxY > 1+1e-9 {
				t.Fatalf("object %d instant %d rect %v escapes unit square", o.ID, i, r)
			}
			w, h := r.MaxX-r.MinX, r.MaxY-r.MinY
			if w < 0.001-1e-9 || w > 0.01+1e-9 || h < 0.001-1e-9 || h > 0.01+1e-9 {
				t.Fatalf("object %d instant %d extent %gx%g out of [0.001,0.01]", o.ID, i, w, h)
			}
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, err := Random(RandomConfig{N: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(RandomConfig{N: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Lifetime() != b[i].Lifetime() {
			t.Fatalf("object %d lifetimes differ between runs with same seed", i)
		}
		for j := 0; j < a[i].Len(); j++ {
			if a[i].InstantRect(j) != b[i].InstantRect(j) {
				t.Fatalf("object %d instant %d differs between runs with same seed", i, j)
			}
		}
	}
}

func TestRandomRejectsBadConfig(t *testing.T) {
	cases := []RandomConfig{
		{N: 0},
		{N: 10, MaxLifetime: 2000, Horizon: 1000},
	}
	for i, cfg := range cases {
		if _, err := Random(cfg); err == nil {
			t.Errorf("case %d: Random accepted invalid config %+v", i, cfg)
		}
	}
}

func TestRailwayMapShape(t *testing.T) {
	cities, tracks := RailwayMap()
	if len(cities) != 22 {
		t.Fatalf("map has %d cities, want 22 (paper)", len(cities))
	}
	if len(tracks) != 51 {
		t.Fatalf("map has %d tracks, want 51 (paper)", len(tracks))
	}
	seen := make(map[[2]int]bool)
	for _, tr := range tracks {
		if tr.A == tr.B {
			t.Fatalf("self-loop track at city %d", tr.A)
		}
		if tr.A < 0 || tr.B < 0 || tr.A >= len(cities) || tr.B >= len(cities) {
			t.Fatalf("track %v references missing city", tr)
		}
		key := [2]int{tr.A, tr.B}
		if tr.A > tr.B {
			key = [2]int{tr.B, tr.A}
		}
		if seen[key] {
			t.Fatalf("duplicate track %v", tr)
		}
		seen[key] = true
	}
	// Every city must be reachable (single connected component).
	adj := make([][]int, len(cities))
	for _, tr := range tracks {
		adj[tr.A] = append(adj[tr.A], tr.B)
		adj[tr.B] = append(adj[tr.B], tr.A)
	}
	visited := make([]bool, len(cities))
	stack := []int{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range adj[c] {
			if !visited[nb] {
				visited[nb] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	if count != len(cities) {
		t.Fatalf("railway graph has %d reachable cities of %d", count, len(cities))
	}
}

func TestRailwayDataset(t *testing.T) {
	objs, err := Railway(RailwayConfig{N: 400, Seed: 3})
	if err != nil {
		t.Fatalf("Railway: %v", err)
	}
	if len(objs) != 400 {
		t.Fatalf("got %d trains, want 400", len(objs))
	}
	maxInstants := int64(36/2) + 1
	for _, o := range objs {
		if int64(o.Len()) > maxInstants+int64(o.Len()/2) { // generous: rounding per leg
			t.Fatalf("train %d travels %d instants, exceeding the 36h budget", o.ID, o.Len())
		}
		if o.Start() < 0 || o.End() > 1000 {
			t.Fatalf("train %d lifetime %v escapes horizon", o.ID, o.Lifetime())
		}
		for i := 0; i < o.Len(); i++ {
			r := o.InstantRect(i)
			if r.MinX != r.MaxX || r.MinY != r.MaxY {
				t.Fatalf("train %d is not a point at instant %d: %v", o.ID, i, r)
			}
			if r.MinX < 0 || r.MaxX > 1 || r.MinY < 0 || r.MaxY > 1 {
				t.Fatalf("train %d leaves the unit square at instant %d: %v", o.ID, i, r)
			}
		}
	}
	s := Stats(objs)
	if s.AvgLifetime < 3 || s.AvgLifetime > 19 {
		t.Fatalf("railway avg lifetime %.1f implausible (paper reports 18)", s.AvgLifetime)
	}
}

func TestCommuterDataset(t *testing.T) {
	objs, err := Commuter(CommuterConfig{N: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 300 {
		t.Fatalf("got %d objects", len(objs))
	}
	commuters := 0
	for _, o := range objs {
		if o.Start() < 0 || o.End() > 1000 {
			t.Fatalf("object %d lifetime %v escapes horizon", o.ID, o.Lifetime())
		}
		for i := 0; i < o.Len(); i++ {
			r := o.InstantRect(i)
			if r.MinX < 0 || r.MaxX > 1 || r.MinY < 0 || r.MaxY > 1 {
				t.Fatalf("object %d leaves the unit square: %v", o.ID, r)
			}
		}
		// Commuters have 5 segments (park/transit/park/transit/park).
		if len(o.Breakpoints()) == 4 {
			commuters++
			// Tent shape: first and last instants share a location.
			first, last := o.InstantRect(0), o.InstantRect(o.Len()-1)
			if first != last {
				t.Fatalf("commuter %d does not return home: %v vs %v", o.ID, first, last)
			}
		}
	}
	if commuters < 60 || commuters > 240 {
		t.Fatalf("%d commuters of 300, expected roughly 40%%", commuters)
	}
	if _, err := Commuter(CommuterConfig{N: 0}); err == nil {
		t.Error("Commuter accepted N: 0")
	}
}

func TestQueriesStandardSets(t *testing.T) {
	for _, name := range StandardQuerySets {
		qs, err := StandardQueries(name, 1000, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(qs) != 1000 {
			t.Fatalf("%s: got %d queries, want 1000", name, len(qs))
		}
		cfg, _ := StandardQueryConfig(name, 1000, 5)
		for i, q := range qs {
			w, h := q.Rect.MaxX-q.Rect.MinX, q.Rect.MaxY-q.Rect.MinY
			if w < cfg.MinExtent-1e-12 || w > cfg.MaxExtent+1e-12 ||
				h < cfg.MinExtent-1e-12 || h > cfg.MaxExtent+1e-12 {
				t.Fatalf("%s query %d extent %gx%g outside [%g,%g]", name, i, w, h, cfg.MinExtent, cfg.MaxExtent)
			}
			d := q.Interval.Length()
			if d < cfg.MinDuration || d > cfg.MaxDuration {
				t.Fatalf("%s query %d duration %d outside [%d,%d]", name, i, d, cfg.MinDuration, cfg.MaxDuration)
			}
			if q.Interval.Start < 0 || q.Interval.End > 1000 {
				t.Fatalf("%s query %d interval %v escapes horizon", name, i, q.Interval)
			}
			if q.Rect.MinX < 0 || q.Rect.MaxX > 1 || q.Rect.MinY < 0 || q.Rect.MaxY > 1 {
				t.Fatalf("%s query %d rect %v escapes unit square", name, i, q.Rect)
			}
		}
	}
	if _, err := StandardQueries("nonsense", 1000, 1); err == nil {
		t.Fatal("accepted unknown query set name")
	}
}

func TestStats(t *testing.T) {
	objs, err := Random(RandomConfig{N: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := Stats(objs)
	if s.TotalObjects != 200 {
		t.Fatalf("TotalObjects = %d", s.TotalObjects)
	}
	if s.AvgLifetime < 30 || s.AvgLifetime > 70 {
		t.Fatalf("AvgLifetime = %.1f, expected around 50 for uniform [1,100]", s.AvgLifetime)
	}
	if s.TotalSegments < 200 || s.TotalSegments > 2000 {
		t.Fatalf("TotalSegments = %d out of plausible range", s.TotalSegments)
	}
	if s.ObjectsPerInstant <= 0 {
		t.Fatalf("ObjectsPerInstant = %g", s.ObjectsPerInstant)
	}
	if st := Stats(nil); st.TotalObjects != 0 {
		t.Fatalf("Stats(nil) = %+v", st)
	}
}

func TestRandomFirstID(t *testing.T) {
	// Chunked generation: distinct FirstID offsets partition the id
	// space, and a chunk is fully determined by (Seed, FirstID, N).
	a, err := Random(RandomConfig{N: 50, Seed: 3, Horizon: 400})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(RandomConfig{N: 30, Seed: 4, Horizon: 400, FirstID: 50})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for _, o := range append(append([]*trajectory.Object(nil), a...), b...) {
		if seen[o.ID] {
			t.Fatalf("duplicate id %d across chunks", o.ID)
		}
		seen[o.ID] = true
	}
	for i, o := range a {
		if o.ID != int64(i) {
			t.Fatalf("chunk A id %d at index %d", o.ID, i)
		}
	}
	for i, o := range b {
		if o.ID != 50+int64(i) {
			t.Fatalf("chunk B id %d at index %d, want %d", o.ID, i, 50+i)
		}
	}
	// Same chunk parameters, same objects.
	b2, err := Random(RandomConfig{N: 30, Seed: 4, Horizon: 400, FirstID: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if b[i].ID != b2[i].ID || b[i].Lifetime() != b2[i].Lifetime() {
			t.Fatalf("chunk regeneration differs at %d", i)
		}
	}
}
