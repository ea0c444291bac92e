// Package trajectory models spatiotemporal objects that move and change
// extent with general motion, following §II-A of the paper: an object is a
// set of tuples ([t_a, t_b), Fx(t), Fy(t)) where Fx, Fy are polynomial
// functions of time describing the movement of the object's reference
// point, plus (optionally) polynomials describing its extent along each
// axis. For the splitting algorithms the object is rasterised into a
// sequence of per-time-instant spatial rectangles; the algorithms
// themselves are oblivious to how the sequence was produced, so arbitrary
// (non-polynomial) motions can be supplied directly as instant sequences.
package trajectory

import (
	"errors"
	"fmt"
)

// Polynomial is a real polynomial c[0] + c[1]*t + c[2]*t² + ... evaluated
// with Horner's rule. The zero value is the constant 0.
type Polynomial struct {
	Coeffs []float64
}

// NewPolynomial returns the polynomial with the given coefficients in
// ascending-degree order.
func NewPolynomial(coeffs ...float64) Polynomial {
	return Polynomial{Coeffs: coeffs}
}

// Eval evaluates the polynomial at t.
func (p Polynomial) Eval(t float64) float64 {
	v := 0.0
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		v = v*t + p.Coeffs[i]
	}
	return v
}

func (p Polynomial) String() string {
	if len(p.Coeffs) == 0 {
		return "0"
	}
	s := ""
	for i, c := range p.Coeffs {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%g*t^%d", c, i)
	}
	return s
}

// Segment is one tuple of the paper's object representation: over the
// half-open interval [Start, End) of discrete time, the object's center
// follows (X(t), Y(t)) and its half-extents along each axis follow
// (HalfW(t), HalfH(t)). Polynomials are evaluated at the *local* time
// t - Start, which keeps coefficients small for long evolutions.
type Segment struct {
	Start, End   int64
	X, Y         Polynomial
	HalfW, HalfH Polynomial
}

// Validate reports structural problems with the segment.
func (s Segment) Validate() error {
	if s.Start >= s.End {
		return fmt.Errorf("trajectory: segment interval [%d,%d) is empty", s.Start, s.End)
	}
	return nil
}

// ErrNoSegments is returned when an object is constructed without segments.
var ErrNoSegments = errors.New("trajectory: object has no segments")

// ErrGap is returned when an object's segments do not tile the lifetime
// contiguously.
var ErrGap = errors.New("trajectory: segments are not contiguous")
