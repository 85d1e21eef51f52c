package sketch

import (
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"

	"fuzzyid/internal/numberline"
)

// ErrTampered is returned by Robust.Recover when the helper data fails its
// integrity check — the active-adversary detection of the Boyen et al.
// robust-sketch construction (§IV-C).
var ErrTampered = errors.New("sketch: helper data failed integrity check (tampered or wrong input)")

// DigestSize is the size in bytes of the robust sketch digest (SHA-256).
const DigestSize = sha256.Size

// RobustSketch is the helper data of the robust secure sketch:
// s = (s', h) with h = H(x, s').
type RobustSketch struct {
	// Sketch is the inner Chebyshev sketch s'.
	Sketch *Sketch
	// Digest is h = SHA-256(x, s'), binding the helper data to the input.
	Digest [DigestSize]byte
}

// Clone returns an independent copy.
func (r *RobustSketch) Clone() *RobustSketch {
	if r == nil {
		return nil
	}
	return &RobustSketch{Sketch: r.Sketch.Clone(), Digest: r.Digest}
}

// Dimension returns the number of coordinates n.
func (r *RobustSketch) Dimension() int { return r.Sketch.Dimension() }

// Robust wraps a Chebyshev sketcher with the generic robust-sketch
// construction of Boyen et al. (random-oracle model): SS(x) additionally
// publishes h = H(x, s'), and Rec verifies the digest after recovery so any
// modification of the helper data (or recovery of a wrong value) is
// detected.
type Robust struct {
	inner *Chebyshev
}

// NewRobust constructs the robust wrapper around inner.
func NewRobust(inner *Chebyshev) *Robust {
	return &Robust{inner: inner}
}

// Inner returns the wrapped Chebyshev sketcher.
func (r *Robust) Inner() *Chebyshev { return r.inner }

// Line returns the underlying number line.
func (r *Robust) Line() *numberline.Line { return r.inner.Line() }

// Sketch implements the robust SS: s' <- SS'(x); h = H(x, s'); output (s', h).
func (r *Robust) Sketch(x numberline.Vector) (*RobustSketch, error) {
	inner, err := r.inner.Sketch(x)
	if err != nil {
		return nil, err
	}
	return &RobustSketch{Sketch: inner, Digest: digest(x, inner)}, nil
}

// digest computes h = H(x, s) = SHA-256 of the canonical encoding of (x, s).
func digest(x numberline.Vector, s *Sketch) [DigestSize]byte {
	h := sha256.New()
	writeForHash(h, x, s) // a hash.Hash Write never fails
	var d [DigestSize]byte
	h.Sum(d[:0])
	return d
}

// Recover implements the robust Rec: x' <- Rec'(y, s'); reject unless
// H(x', s') equals the published digest.
func (r *Robust) Recover(y numberline.Vector, rs *RobustSketch) (numberline.Vector, error) {
	return r.RecoverInto(nil, y, rs)
}

// RecoverInto is Recover writing the recovered vector into dst's capacity
// (see Chebyshev.RecoverInto).
func (r *Robust) RecoverInto(dst, y numberline.Vector, rs *RobustSketch) (numberline.Vector, error) {
	if rs == nil || rs.Sketch == nil {
		return nil, fmt.Errorf("%w: nil robust sketch", ErrInvalidSketch)
	}
	x, err := r.inner.RecoverInto(dst, y, rs.Sketch)
	if err != nil {
		return nil, err
	}
	want := digest(x, rs.Sketch)
	if subtle.ConstantTimeCompare(want[:], rs.Digest[:]) != 1 {
		return nil, ErrTampered
	}
	return x, nil
}

// Match delegates to the inner sketcher's constant-cost comparison; the
// digest plays no role in matching (it binds x, which the server never
// sees).
func (r *Robust) Match(s *RobustSketch, probe *Sketch) (bool, error) {
	if s == nil || s.Sketch == nil {
		return false, fmt.Errorf("%w: nil robust sketch", ErrInvalidSketch)
	}
	return r.inner.Match(s.Sketch, probe)
}
