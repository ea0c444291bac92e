package stio

import (
	"bytes"
	"strconv"
)

// ScanObservations reads a feed body in the shape every writer of the
// feed produces — whitespace-separated objects whose keys are byte for
// byte "id", "t", "minx", "miny", "maxx", "maxy" and "final", in any
// order, a repeated key overwriting — without reflection or allocation,
// and appends its events to dst.
//
// It is a shortcut through encoding/json, not a second grammar: ok is
// false (and dst's additions are to be discarded) for any body it does
// not read exactly as decoding each object into ObservationLine would —
// an array, an unknown, case-variant or escaped key, null, a string, a
// fraction or exponent on id or t, a number strconv refuses, bytes after
// the last object — and the caller then decodes the body from its first
// byte with encoding/json, whose leniencies and error texts stay the only
// ones. Numbers are JSON-grammar tokens handed to the strconv functions
// encoding/json itself calls, so an accepted body yields the same bits.
// FuzzScanObservationsMatchesJSON holds the two readings together.
func ScanObservations(dst []Observation, data []byte) (_ []Observation, ok bool) {
	for i := skipSpace(data, 0); i < len(data); i = skipSpace(data, i) {
		var line ObservationLine
		if i = scanLine(data, i, &line); i < 0 {
			return dst, false
		}
		dst = append(dst, line.Observation())
	}
	return dst, true
}

// scanLine reads the object starting at data[i] into line and returns the
// index after its closing brace, or -1 to decline.
func scanLine(data []byte, i int, line *ObservationLine) int {
	if data[i] != '{' {
		return -1
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return i + 1
	}
	for {
		if i == len(data) || data[i] != '"' {
			return -1
		}
		i++
		n := bytes.IndexByte(data[i:], '"')
		if n < 0 {
			return -1
		}
		key := data[i : i+n]
		i = skipSpace(data, i+n+1)
		if i == len(data) || data[i] != ':' {
			return -1
		}
		i = skipSpace(data, i+1)

		switch string(key) {
		case "id":
			i = scanInt(data, i, &line.ObjectID)
		case "t":
			i = scanInt(data, i, &line.T)
		case "minx":
			i = scanFloat(data, i, &line.MinX)
		case "miny":
			i = scanFloat(data, i, &line.MinY)
		case "maxx":
			i = scanFloat(data, i, &line.MaxX)
		case "maxy":
			i = scanFloat(data, i, &line.MaxY)
		case "final":
			switch rest := data[i:]; {
			case bytes.HasPrefix(rest, []byte("true")):
				line.Final, i = true, i+4
			case bytes.HasPrefix(rest, []byte("false")):
				line.Final, i = false, i+5
			default:
				return -1
			}
		default:
			return -1
		}
		if i < 0 {
			return -1
		}

		i = skipSpace(data, i)
		if i == len(data) {
			return -1
		}
		switch data[i] {
		case '}':
			return i + 1
		case ',':
			i = skipSpace(data, i+1)
		default:
			return -1
		}
	}
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

// scanInt stores the integer token at data[i] and returns the index after
// it; -1 for anything but a JSON number without fraction or exponent that
// fits an int64.
func scanInt(data []byte, i int, v *int64) int {
	end, integer := numberEnd(data, i)
	if end < 0 || !integer {
		return -1
	}
	n, err := strconv.ParseInt(string(data[i:end]), 10, 64)
	if err != nil {
		return -1
	}
	*v = n
	return end
}

// scanFloat is scanInt for a coordinate: any JSON number ParseFloat takes
// without a range error.
func scanFloat(data []byte, i int, v *float64) int {
	end, _ := numberEnd(data, i)
	if end < 0 {
		return -1
	}
	f, err := strconv.ParseFloat(string(data[i:end]), 64)
	if err != nil {
		return -1
	}
	*v = f
	return end
}

// numberEnd returns the index after the longest JSON number starting at
// data[i] — -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — and whether it
// is all integer part; -1 when no number starts there. strconv alone
// would also take "+1", "01", ".5", "1.", "0x1p4", "1_0", "inf" and "nan".
func numberEnd(data []byte, i int) (end int, integer bool) {
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i == len(data):
		return -1, false
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		i = digitsEnd(data, i+1)
	default:
		return -1, false
	}
	integer = true
	if i < len(data) && data[i] == '.' {
		integer = false
		frac := i + 1
		if i = digitsEnd(data, frac); i == frac {
			return -1, false
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		integer = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		exp := i
		if i = digitsEnd(data, exp); i == exp {
			return -1, false
		}
	}
	return i, integer
}

func digitsEnd(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}
