// Package stio serialises datasets and record sets for the command-line
// tools: JSON-lines streams that survive round trips exactly (coordinates
// are float64 bit patterns in decimal form with full precision).
package stio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"stindex/internal/geom"
	"stindex/internal/trajectory"
)

// objectLine is the wire form of one object: its per-instant rectangles
// as [minX, minY, maxX, maxY] quadruples, plus its motion breakpoints so
// the piecewise baseline survives the round trip.
type objectLine struct {
	ID     int64        `json:"id"`
	Start  int64        `json:"start"`
	Rects  [][4]float64 `json:"rects"`
	Breaks []int        `json:"breaks,omitempty"`
}

// WriteObjects streams the objects to w, one JSON object per line.
func WriteObjects(w io.Writer, objs []*trajectory.Object) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, o := range objs {
		line := objectLine{ID: o.ID, Start: o.Start(), Breaks: o.Breakpoints()}
		line.Rects = make([][4]float64, o.Len())
		for i := 0; i < o.Len(); i++ {
			r := o.InstantRect(i)
			line.Rects[i] = [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY}
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadObjects parses a stream written by WriteObjects.
func ReadObjects(r io.Reader) ([]*trajectory.Object, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var objs []*trajectory.Object
	for lineNo := 1; ; lineNo++ {
		var line objectLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("stio: object %d: %w", lineNo, err)
		}
		o, err := trajectory.FromCorners(line.ID, line.Start, line.Rects)
		if err != nil {
			return nil, fmt.Errorf("stio: object %d: %w", lineNo, err)
		}
		if len(line.Breaks) > 0 {
			o.SetBreakpoints(line.Breaks)
		}
		objs = append(objs, o)
	}
	return objs, nil
}

// recordLine is the wire form of one MBR record.
type recordLine struct {
	ObjectID int64   `json:"id"`
	Start    int64   `json:"start"`
	End      int64   `json:"end"`
	MinX     float64 `json:"minx"`
	MinY     float64 `json:"miny"`
	MaxX     float64 `json:"maxx"`
	MaxY     float64 `json:"maxy"`
}

// Record mirrors the facade's record type without importing it (stio sits
// below the facade).
type Record struct {
	Rect     geom.Rect
	Interval geom.Interval
	ObjectID int64
}

// WriteRecords streams MBR records to w, one JSON object per line.
func WriteRecords(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range records {
		if err := enc.Encode(recordLine{
			ObjectID: rec.ObjectID,
			Start:    rec.Interval.Start, End: rec.Interval.End,
			MinX: rec.Rect.MinX, MinY: rec.Rect.MinY,
			MaxX: rec.Rect.MaxX, MaxY: rec.Rect.MaxY,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadRecords parses a stream written by WriteRecords.
func ReadRecords(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var out []Record
	for lineNo := 1; ; lineNo++ {
		var line recordLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("stio: record %d: %w", lineNo, err)
		}
		rec := Record{
			Rect:     geom.Rect{MinX: line.MinX, MinY: line.MinY, MaxX: line.MaxX, MaxY: line.MaxY},
			Interval: geom.Interval{Start: line.Start, End: line.End},
			ObjectID: line.ObjectID,
		}
		if !rec.Rect.Valid() {
			return nil, fmt.Errorf("stio: record %d: invalid rect", lineNo)
		}
		if !rec.Interval.ValidInterval() {
			return nil, fmt.Errorf("stio: record %d: empty interval", lineNo)
		}
		out = append(out, rec)
	}
	return out, nil
}
