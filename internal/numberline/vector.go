package numberline

import (
	"errors"
	"fmt"
)

// ErrEmptyVector is returned when an operation receives a zero-length vector.
var ErrEmptyVector = errors.New("numberline: empty vector")

// Vector is an n-dimensional point with every coordinate on a number line.
// It is the canonical encoding of a biometric template in this library.
type Vector []int64

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Equal reports whether v and w have identical length and coordinates.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// ValidateVector checks that every coordinate of v is a canonical point of
// the line and that v is non-empty.
func (l *Line) ValidateVector(v Vector) error {
	if len(v) == 0 {
		return ErrEmptyVector
	}
	for i, x := range v {
		if !l.Contains(x) {
			return fmt.Errorf("coordinate %d = %d: %w", i, x, ErrPointOutOfRange)
		}
	}
	return nil
}

// ChebyshevDist returns the circular Chebyshev (L-infinity) distance between
// x and y: max_i circ_dist(x_i, y_i). The vectors must have equal length.
func (l *Line) ChebyshevDist(x, y Vector) (int64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("numberline: dimension mismatch %d != %d", len(x), len(y))
	}
	if len(x) == 0 {
		return 0, ErrEmptyVector
	}
	var maxD int64
	for i := range x {
		if d := l.Dist(x[i], y[i]); d > maxD {
			maxD = d
		}
	}
	return maxD, nil
}

// Close reports whether dis(x, y) <= t under the circular Chebyshev metric.
func (l *Line) Close(x, y Vector) (bool, error) {
	d, err := l.ChebyshevDist(x, y)
	if err != nil {
		return false, err
	}
	return d <= l.params.T, nil
}
