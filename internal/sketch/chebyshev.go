// Package sketch implements the secure sketches of the paper: the
// Chebyshev-metric (maximum norm) sketch of §IV-B and its robust wrapper of
// §IV-C (Boyen et al. generic construction).
//
// A secure sketch is a pair of procedures (SS, Rec): SS(x) emits public
// helper data s that leaks little about x, and Rec(y, s) recovers x exactly
// from any y with dis(x, y) <= t (Theorem 1).
package sketch

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"fuzzyid/internal/numberline"
)

// Errors returned by sketching and recovery.
var (
	// ErrNotClose is returned by Recover when the probe is farther than the
	// threshold t from the sketched input (the paper's ⊥ output).
	ErrNotClose = errors.New("sketch: input not within threshold of sketched value")
	// ErrDimensionMismatch is returned when a vector and a sketch disagree
	// on dimension.
	ErrDimensionMismatch = errors.New("sketch: dimension mismatch")
	// ErrInvalidSketch is returned when a sketch contains out-of-range
	// movements.
	ErrInvalidSketch = errors.New("sketch: movement outside legal range")
)

// Sketch is the public helper string s = (s_1, ..., s_n) produced by SS:
// per-coordinate signed movements to the nearest interval identifier.
type Sketch struct {
	// Movements holds s_i = I_i - x_i with |s_i| <= k*a/2.
	Movements []int64
}

// Clone returns an independent copy of s.
func (s *Sketch) Clone() *Sketch {
	if s == nil {
		return nil
	}
	m := make([]int64, len(s.Movements))
	copy(m, s.Movements)
	return &Sketch{Movements: m}
}

// Dimension returns the number of coordinates n.
func (s *Sketch) Dimension() int { return len(s.Movements) }

// Chebyshev implements the maximum-norm secure sketch of §IV-B over a
// number line La.
type Chebyshev struct {
	line  *numberline.Line
	coins io.Reader
}

// Option configures a Chebyshev sketcher.
type Option interface {
	apply(*Chebyshev)
}

type coinsOption struct{ r io.Reader }

func (o coinsOption) apply(c *Chebyshev) { c.coins = o.r }

// WithCoins sets the randomness source used for the boundary-point coin
// flips (special cases 1 and 2 of the sketch algorithm). The default is
// crypto/rand. Tests inject a deterministic reader here.
func WithCoins(r io.Reader) Option { return coinsOption{r: r} }

// NewChebyshev constructs a sketcher over the given line.
func NewChebyshev(line *numberline.Line, opts ...Option) *Chebyshev {
	c := &Chebyshev{line: line, coins: rand.Reader}
	for _, o := range opts {
		o.apply(c)
	}
	return c
}

// Line returns the underlying number line.
func (c *Chebyshev) Line() *numberline.Line { return c.line }

// Sketch implements SS(x): every coordinate is moved to the identifier of
// its interval; boundary points are moved left or right by a fair coin.
func (c *Chebyshev) Sketch(x numberline.Vector) (*Sketch, error) {
	movements, err := c.SketchInto(nil, x)
	if err != nil {
		return nil, err
	}
	return &Sketch{Movements: movements}, nil
}

// SketchInto is Sketch writing the movements into dst's capacity; it
// returns them, and allocates only when dst is shorter than x.
func (c *Chebyshev) SketchInto(dst []int64, x numberline.Vector) ([]int64, error) {
	if err := c.line.ValidateVector(x); err != nil {
		return nil, fmt.Errorf("sketch input: %w", err)
	}
	movements := slices.Grow(dst[:0], len(x))[:len(x)]
	for i, xi := range x {
		u := c.line.EdgeOffset(xi)
		coin := false
		if u == 0 {
			b, err := flipCoin(c.coins)
			if err != nil {
				return nil, fmt.Errorf("sketch coin flip: %w", err)
			}
			coin = b
		}
		movements[i] = c.line.Movement(u, coin)
	}
	return movements, nil
}

// Recover implements Rec(y, s): shift y by the recorded movements, locate
// the containing interval identifiers, reject if any coordinate lands more
// than t away from its identifier, and undo the movements.
func (c *Chebyshev) Recover(y numberline.Vector, s *Sketch) (numberline.Vector, error) {
	return c.RecoverInto(nil, y, s)
}

// RecoverInto is Recover writing the recovered vector into dst's capacity;
// it allocates only when dst is shorter than y.
//
// Per coordinate this is one pass and one reduction: y_i on the line, s_i
// in range, and the distance. With w = y + s and offset = EdgeOffset(w) -
// ka/2 the signed offset of w from its identifier id, the paper's output
// id - s equals w - offset - s = y - offset on the ring.
func (c *Chebyshev) RecoverInto(dst, y numberline.Vector, s *Sketch) (numberline.Vector, error) {
	if s == nil || len(y) == 0 || len(y) != len(s.Movements) {
		return nil, c.recoverError(y, s, 0, 0)
	}
	l := c.line
	t := l.Threshold()
	half := l.IntervalSpan() / 2
	lo, hi := l.MovementRange()
	z := slices.Grow(dst[:0], len(y))[:len(y)]
	for i, yi := range y {
		m := s.Movements[i]
		if !l.Contains(yi) || m < lo || m > hi {
			return nil, c.recoverError(y, s, 0, 0)
		}
		offset := l.EdgeOffset(l.Add(yi, m)) - half
		if offset > t || offset < -t {
			return nil, c.recoverError(y, s, i, offset)
		}
		z[i] = l.Add(yi, -offset)
	}
	return z, nil
}

// recoverError names why Rec(y, s) failed, keeping the precedence of the
// checks RecoverInto folds into one pass: an off-line y anywhere, then an
// invalid sketch anywhere, then a dimension mismatch, and only then
// coordinate i's distance.
func (c *Chebyshev) recoverError(y numberline.Vector, s *Sketch, i int, offset int64) error {
	if err := c.line.ValidateVector(y); err != nil {
		return fmt.Errorf("recover input: %w", err)
	}
	if err := c.ValidateSketch(s); err != nil {
		return err
	}
	if len(y) != len(s.Movements) {
		return fmt.Errorf("%w: vector %d vs sketch %d", ErrDimensionMismatch, len(y), len(s.Movements))
	}
	return fmt.Errorf("coordinate %d: distance %d > t=%d: %w", i, abs64(offset), c.line.Threshold(), ErrNotClose)
}

// ValidateSketch checks structural validity: non-empty and every movement
// within [-k*a/2, k*a/2].
func (c *Chebyshev) ValidateSketch(s *Sketch) error {
	if s == nil || len(s.Movements) == 0 {
		return fmt.Errorf("%w: empty sketch", ErrInvalidSketch)
	}
	lo, hi := c.line.MovementRange()
	for i, m := range s.Movements {
		if m < lo || m > hi {
			return fmt.Errorf("%w: coordinate %d movement %d outside [%d, %d]",
				ErrInvalidSketch, i, m, lo, hi)
		}
	}
	return nil
}

// Match reports whether two sketches could originate from close biometric
// inputs, per Theorem 2: for every coordinate the circular distance between
// s_i and s'_i modulo the interval span ka is at most t. This is the
// constant-cost comparison the identification protocol's database search is
// built on.
func (c *Chebyshev) Match(s, probe *Sketch) (bool, error) {
	if err := c.ValidateSketch(s); err != nil {
		return false, err
	}
	if err := c.ValidateSketch(probe); err != nil {
		return false, err
	}
	if len(s.Movements) != len(probe.Movements) {
		return false, fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(s.Movements), len(probe.Movements))
	}
	span := c.line.IntervalSpan()
	t := c.line.Threshold()
	for i := range s.Movements {
		if circularDist(s.Movements[i], probe.Movements[i], span) > t {
			return false, nil
		}
	}
	return true, nil
}

// MatchConditions is the literal four-condition matcher of §V, retained to
// cross-validate Match (their equivalence is property-tested). Conditions:
//
//	(1) s_i > 0, s'_i > 0:  |s_i - s'_i| in [0, t]
//	(2) s_i <= 0, s'_i <= 0: |s_i - s'_i| in [0, t]
//	(3) s_i > 0, s'_i <= 0:  |s_i - s'_i - ka| not in (t, ka-t)
//	(4) s_i <= 0, s'_i > 0:  |s_i - s'_i + ka| not in (t, ka-t)
func (c *Chebyshev) MatchConditions(s, probe *Sketch) (bool, error) {
	if len(s.Movements) != len(probe.Movements) {
		return false, fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(s.Movements), len(probe.Movements))
	}
	ka := c.line.IntervalSpan()
	t := c.line.Threshold()
	for i := range s.Movements {
		si, pi := s.Movements[i], probe.Movements[i]
		var ok bool
		switch {
		case si > 0 && pi > 0, si <= 0 && pi <= 0:
			ok = abs64(si-pi) <= t
		case si > 0 && pi <= 0:
			d := abs64(si - pi - ka)
			ok = !(d > t && d < ka-t)
		default: // si <= 0 && pi > 0
			d := abs64(si - pi + ka)
			ok = !(d > t && d < ka-t)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Residue maps a movement s_i onto its canonical residue in [0, ka). Because
// every interval identifier is congruent to ka/2 modulo ka, the residue is a
// deterministic function of the underlying point even across the coin-flipped
// special cases, which makes it usable as a database index key.
func (c *Chebyshev) Residue(movement int64) int64 {
	span := c.line.IntervalSpan()
	r := movement % span
	if r < 0 {
		r += span
	}
	return r
}

// ResidueDist returns the circular distance between two movements modulo the
// interval span — the quantity the match conditions bound by t.
func (c *Chebyshev) ResidueDist(a, b int64) int64 {
	return circularDist(a, b, c.line.IntervalSpan())
}

// writeForHash writes the canonical encoding of a vector and a sketch, the
// input of the robust wrapper's digest H(x, s): length-prefixed big-endian
// int64s, which is injective. It streams through a fixed buffer, so hashing
// an n = 5000 pair never builds the 80 KB encoding.
func writeForHash(w io.Writer, x numberline.Vector, s *Sketch) {
	var buf [1024]byte
	n := 0
	put := func(v int64) {
		if n == len(buf) {
			w.Write(buf[:])
			n = 0
		}
		binary.BigEndian.PutUint64(buf[n:], uint64(v))
		n += 8
	}
	put(int64(len(x)))
	for _, xi := range x {
		put(xi)
	}
	put(int64(len(s.Movements)))
	for _, si := range s.Movements {
		put(si)
	}
	w.Write(buf[:n])
}

func circularDist(a, b, modulus int64) int64 {
	d := (a - b) % modulus
	if d < 0 {
		d += modulus
	}
	if d > modulus-d {
		d = modulus - d
	}
	return d
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func flipCoin(r io.Reader) (bool, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return false, err
	}
	return b[0]&1 == 1, nil
}
