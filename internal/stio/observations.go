package stio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"stindex/internal/geom"
	"stindex/internal/trajectory"
)

// Observation is one event of an online feed: object ObjectID occupies
// Rect at instant T; Final events instead mark the end of the object's
// lifetime at T (its last position was at T-1).
type Observation struct {
	ObjectID int64
	T        int64
	Rect     geom.Rect
	Final    bool
}

// ObservationLine is the wire form of one event, in a feed file and in a
// POST /ingest body alike: what encoding/json decodes an object into, and
// what ScanObservations reads the canonical spelling of directly.
type ObservationLine struct {
	ObjectID int64   `json:"id"`
	T        int64   `json:"t"`
	MinX     float64 `json:"minx,omitempty"`
	MinY     float64 `json:"miny,omitempty"`
	MaxX     float64 `json:"maxx,omitempty"`
	MaxY     float64 `json:"maxy,omitempty"`
	Final    bool    `json:"final,omitempty"`
}

// Observation is the event the line spells; a final event has no
// rectangle, whatever coordinates came with it.
func (l ObservationLine) Observation() Observation {
	o := Observation{ObjectID: l.ObjectID, T: l.T, Final: l.Final}
	if !l.Final {
		o.Rect = geom.Rect{MinX: l.MinX, MinY: l.MinY, MaxX: l.MaxX, MaxY: l.MaxY}
	}
	return o
}

// WriteObservations streams events to w, one JSON object per line.
func WriteObservations(w io.Writer, obs []Observation) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, o := range obs {
		line := ObservationLine{ObjectID: o.ObjectID, T: o.T, Final: o.Final}
		if !o.Final {
			line.MinX, line.MinY, line.MaxX, line.MaxY = o.Rect.MinX, o.Rect.MinY, o.Rect.MaxX, o.Rect.MaxY
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadObservations parses a stream written by WriteObservations.
func ReadObservations(r io.Reader) ([]Observation, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var out []Observation
	for lineNo := 1; ; lineNo++ {
		var line ObservationLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("stio: observation %d: %w", lineNo, err)
		}
		o := line.Observation()
		if !o.Final && !o.Rect.Valid() {
			return nil, fmt.Errorf("stio: observation %d: invalid rect", lineNo)
		}
		out = append(out, o)
	}
	return out, nil
}

// ObservationsFromObjects flattens a dataset into a time-ordered event
// stream: one observation per alive object per instant, plus a final
// event when each object disappears. Within one instant, final events
// come first (delete-before-insert discipline), then observations, each
// kind in object order: the order a stable sort by (T, finals first)
// gives each object's observations and final event, object by object.
// The finals are laid out before the observations, and geom.SortByTime
// orders the two by T in linear time.
func ObservationsFromObjects(objs []*trajectory.Object) []Observation {
	if len(objs) == 0 {
		return nil
	}
	n, lo, hi := len(objs), objs[0].Start(), objs[0].End()
	for _, o := range objs {
		n += int(o.End() - o.Start())
		lo, hi = min(lo, o.Start()), max(hi, o.End())
	}
	out := make([]Observation, len(objs), n)
	for i, o := range objs {
		out[i] = Observation{ObjectID: o.ID, T: o.End(), Final: true}
	}
	for _, o := range objs {
		for t := o.Start(); t < o.End(); t++ {
			out = append(out, Observation{ObjectID: o.ID, T: t, Rect: o.At(t)})
		}
	}
	return geom.SortByTime(out, make([]Observation, n), lo, hi, func(o *Observation) int64 { return o.T })
}
