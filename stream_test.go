package stindex

import "testing"

func TestStreamIndexFacade(t *testing.T) {
	objs := genObjects(t, 120, 13)
	lambda, err := CalibrateLambda(objs[:40], 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if lambda < 0 {
		t.Fatalf("lambda = %g", lambda)
	}
	six, err := NewStreamIndex(StreamOptions{Lambda: lambda}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Feed the objects in time order.
	type ev struct {
		t     int64
		obj   int
		final bool
	}
	var events []ev
	for i, o := range objs {
		lt := o.Lifetime()
		for tm := lt.Start; tm < lt.End; tm++ {
			events = append(events, ev{t: tm, obj: i})
		}
		events = append(events, ev{t: lt.End, obj: i, final: true})
	}
	sortEvents := func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return events[a].final && !events[b].final
	}
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && sortEvents(j, j-1); j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
	for _, e := range events {
		o := objs[e.obj]
		if e.final {
			if err := six.Finish(o.ID(), e.t); err != nil {
				t.Fatal(err)
			}
			continue
		}
		r, _ := o.At(e.t)
		if err := six.Observe(o.ID(), e.t, r); err != nil {
			t.Fatal(err)
		}
	}
	if six.Live() != 0 {
		t.Fatalf("%d live objects after replay", six.Live())
	}
	if six.Records() < len(objs) {
		t.Fatalf("only %d records for %d objects", six.Records(), len(objs))
	}

	// No false negatives against true geometry.
	six.ResetBuffer()
	q := Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.6}
	got, err := six.Snapshot(q, 500)
	if err != nil {
		t.Fatal(err)
	}
	gotSet := make(map[int64]bool)
	for _, id := range got {
		gotSet[id] = true
	}
	for _, o := range objs {
		if r, ok := o.At(500); ok && r.Intersects(q) && !gotSet[o.ID()] {
			t.Fatalf("object %d missing from streaming snapshot", o.ID())
		}
	}
	if six.IOStats().Reads == 0 {
		t.Fatal("snapshot performed no reads")
	}
	if six.Pages() == 0 || six.Bytes() == 0 {
		t.Fatal("empty footprint")
	}
	if six.Kind() != "stream-ppr" {
		t.Fatalf("Kind = %q", six.Kind())
	}

	if _, err := CalibrateLambda(nil, 2); err == nil {
		t.Fatal("accepted empty calibration sample")
	}
}
