package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"fuzzyid/internal/numberline"
)

// constReader yields an endless stream of a fixed byte, pinning coin flips.
type constReader byte

func (c constReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}

// smallLine is tiny enough for exhaustive enumeration: span 4, ring 32, t=1.
func smallLine(t *testing.T) *numberline.Line {
	t.Helper()
	l, err := numberline.New(numberline.Params{A: 1, K: 4, V: 8, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func paperLine(t *testing.T) *numberline.Line {
	t.Helper()
	l, err := numberline.New(numberline.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSketchMovementsInRange(t *testing.T) {
	l := paperLine(t)
	c := NewChebyshev(l)
	rng := rand.New(rand.NewSource(31))
	x := randomVector(rng, l, 256)
	s, err := c.Sketch(x)
	if err != nil {
		t.Fatalf("Sketch: %v", err)
	}
	if s.Dimension() != 256 {
		t.Fatalf("Dimension = %d, want 256", s.Dimension())
	}
	if err := c.ValidateSketch(s); err != nil {
		t.Fatalf("ValidateSketch: %v", err)
	}
	// Every shifted coordinate must land exactly on an identifier.
	for i := range x {
		shifted := l.Add(x[i], s.Movements[i])
		_, dist := l.ContainingIdentifier(shifted)
		if dist != 0 {
			t.Fatalf("coordinate %d: x + s = %d is not an identifier", i, shifted)
		}
	}
}

func TestSketchRejectsInvalidInput(t *testing.T) {
	c := NewChebyshev(smallLine(t))
	if _, err := c.Sketch(nil); err == nil {
		t.Error("empty vector accepted")
	}
	if _, err := c.Sketch(numberline.Vector{999}); err == nil {
		t.Error("out-of-range vector accepted")
	}
}

// TestTheorem1Exhaustive verifies the correctness theorem on the small line
// for every point, every coin choice, and every probe value: recovery
// succeeds and returns x exactly when dis(x, y) <= t; beyond the threshold
// it either rejects or returns a value different from x (never x itself, per
// the only-if direction of Theorem 1).
func TestTheorem1Exhaustive(t *testing.T) {
	l := smallLine(t)
	thr := l.Threshold()
	for _, coin := range []byte{0, 1} {
		c := NewChebyshev(l, WithCoins(constReader(coin)))
		for x := l.Min(); x <= l.Max(); x++ {
			xv := numberline.Vector{x}
			s, err := c.Sketch(xv)
			if err != nil {
				t.Fatalf("Sketch(%d): %v", x, err)
			}
			for y := l.Min(); y <= l.Max(); y++ {
				yv := numberline.Vector{y}
				d := l.Dist(x, y)
				z, err := c.Recover(yv, s)
				if d <= thr {
					if err != nil {
						t.Fatalf("coin=%d x=%d y=%d (dist %d <= t): Recover failed: %v", coin, x, y, d, err)
					}
					if !z.Equal(xv) {
						t.Fatalf("coin=%d x=%d y=%d: recovered %v, want %v", coin, x, y, z, xv)
					}
					continue
				}
				if err == nil && z.Equal(xv) {
					t.Fatalf("coin=%d x=%d y=%d (dist %d > t): recovered original x", coin, x, y, d)
				}
				if err != nil && !errors.Is(err, ErrNotClose) {
					t.Fatalf("coin=%d x=%d y=%d: unexpected error %v", coin, x, y, err)
				}
			}
		}
	}
}

func TestTheorem1RandomPaperParams(t *testing.T) {
	l := paperLine(t)
	c := NewChebyshev(l)
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 50; trial++ {
		x := randomVector(rng, l, 64)
		s, err := c.Sketch(x)
		if err != nil {
			t.Fatal(err)
		}
		// Genuine probe: bounded noise.
		y := perturb(rng, l, x, l.Threshold())
		z, err := c.Recover(y, s)
		if err != nil {
			t.Fatalf("genuine probe rejected: %v", err)
		}
		if !z.Equal(x) {
			t.Fatal("genuine probe recovered wrong vector")
		}
		// Impostor probe: push one coordinate beyond t but keep it within
		// the interval-span safety margin so recovery must reject rather
		// than silently mis-recover.
		far := y.Clone()
		far[0] = l.Add(x[0], l.Threshold()+1)
		if _, err := c.Recover(far, s); err == nil {
			t.Fatal("probe beyond threshold accepted")
		}
	}
}

func TestRecoverWraparound(t *testing.T) {
	// A point at the top of the line and a probe wrapped to the bottom are
	// close on the ring; recovery must succeed across the seam.
	l := paperLine(t)
	c := NewChebyshev(l, WithCoins(constReader(0)))
	x := numberline.Vector{l.Max() - 1}
	s, err := c.Sketch(x)
	if err != nil {
		t.Fatal(err)
	}
	y := numberline.Vector{l.Normalize(l.Max() + 50)} // wraps to negative end
	if d := l.Dist(x[0], y[0]); d > l.Threshold() {
		t.Fatalf("test setup: dist = %d", d)
	}
	z, err := c.Recover(y, s)
	if err != nil {
		t.Fatalf("wraparound recovery failed: %v", err)
	}
	if !z.Equal(x) {
		t.Fatalf("wraparound recovered %v, want %v", z, x)
	}
}

func TestRecoverValidation(t *testing.T) {
	l := smallLine(t)
	c := NewChebyshev(l)
	x := numberline.Vector{1, 2}
	s, err := c.Sketch(x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(numberline.Vector{1}, s); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("dimension mismatch err = %v", err)
	}
	if _, err := c.Recover(numberline.Vector{1, 999}, s); err == nil {
		t.Error("out-of-range probe accepted")
	}
	bad := s.Clone()
	bad.Movements[0] = l.IntervalSpan() // beyond k*a/2
	if _, err := c.Recover(x, bad); !errors.Is(err, ErrInvalidSketch) {
		t.Errorf("invalid sketch err = %v", err)
	}
	if _, err := c.Recover(x, &Sketch{}); !errors.Is(err, ErrInvalidSketch) {
		t.Errorf("empty sketch err = %v", err)
	}
}

// TestTheorem2MatchOnCloseInputs: sketches of close inputs must always
// match, independent of coin flips (the if-direction of Theorem 2).
func TestTheorem2MatchOnCloseInputs(t *testing.T) {
	l := smallLine(t)
	for _, coinA := range []byte{0, 1} {
		for _, coinB := range []byte{0, 1} {
			ca := NewChebyshev(l, WithCoins(constReader(coinA)))
			cb := NewChebyshev(l, WithCoins(constReader(coinB)))
			for x := l.Min(); x <= l.Max(); x++ {
				sx, err := ca.Sketch(numberline.Vector{x})
				if err != nil {
					t.Fatal(err)
				}
				for dy := -l.Threshold(); dy <= l.Threshold(); dy++ {
					y := l.Add(x, dy)
					sy, err := cb.Sketch(numberline.Vector{y})
					if err != nil {
						t.Fatal(err)
					}
					ok, err := ca.Match(sx, sy)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Fatalf("coins=(%d,%d) x=%d y=%d: close inputs did not match", coinA, coinB, x, y)
					}
				}
			}
		}
	}
}

// TestMatchEquivalentToConditions: the circular-distance matcher and the
// paper's literal four-condition matcher agree on every movement pair.
func TestMatchEquivalentToConditions(t *testing.T) {
	l := smallLine(t)
	c := NewChebyshev(l)
	lo, hi := l.MovementRange()
	for a := lo; a <= hi; a++ {
		for b := lo; b <= hi; b++ {
			s := &Sketch{Movements: []int64{a}}
			p := &Sketch{Movements: []int64{b}}
			m1, err := c.Match(s, p)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := c.MatchConditions(s, p)
			if err != nil {
				t.Fatal(err)
			}
			if m1 != m2 {
				t.Fatalf("movements (%d, %d): Match=%v MatchConditions=%v", a, b, m1, m2)
			}
		}
	}
}

func TestMatchValidation(t *testing.T) {
	c := NewChebyshev(smallLine(t))
	s := &Sketch{Movements: []int64{0}}
	if _, err := c.Match(s, &Sketch{Movements: []int64{0, 0}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("dimension mismatch err = %v", err)
	}
	if _, err := c.Match(nil, s); !errors.Is(err, ErrInvalidSketch) {
		t.Errorf("nil sketch err = %v", err)
	}
}

// TestResidueDeterministicAcrossCoins: the mod-ka residue of a sketch
// movement depends only on the input point, never on the boundary coin —
// the property that makes sketches usable as index keys.
func TestResidueDeterministicAcrossCoins(t *testing.T) {
	l := smallLine(t)
	c0 := NewChebyshev(l, WithCoins(constReader(0)))
	c1 := NewChebyshev(l, WithCoins(constReader(1)))
	for x := l.Min(); x <= l.Max(); x++ {
		s0, err := c0.Sketch(numberline.Vector{x})
		if err != nil {
			t.Fatal(err)
		}
		s1, err := c1.Sketch(numberline.Vector{x})
		if err != nil {
			t.Fatal(err)
		}
		r0 := c0.Residue(s0.Movements[0])
		r1 := c1.Residue(s1.Movements[0])
		if r0 != r1 {
			t.Fatalf("x=%d: residues differ across coins: %d vs %d", x, r0, r1)
		}
		if r0 < 0 || r0 >= l.IntervalSpan() {
			t.Fatalf("residue %d outside [0, span)", r0)
		}
	}
}

func TestResidueDistSymmetricBounded(t *testing.T) {
	l := paperLine(t)
	c := NewChebyshev(l)
	rng := rand.New(rand.NewSource(33))
	lo, hi := l.MovementRange()
	for i := 0; i < 1000; i++ {
		a := lo + rng.Int63n(hi-lo+1)
		b := lo + rng.Int63n(hi-lo+1)
		d1 := c.ResidueDist(a, b)
		d2 := c.ResidueDist(b, a)
		if d1 != d2 {
			t.Fatalf("ResidueDist not symmetric for (%d, %d)", a, b)
		}
		if d1 < 0 || d1 > l.IntervalSpan()/2 {
			t.Fatalf("ResidueDist(%d, %d) = %d outside [0, span/2]", a, b, d1)
		}
	}
}

func TestSketchCloneIndependent(t *testing.T) {
	s := &Sketch{Movements: []int64{1, 2}}
	cl := s.Clone()
	cl.Movements[0] = 9
	if s.Movements[0] != 1 {
		t.Error("Clone aliases Movements")
	}
	var nilS *Sketch
	if nilS.Clone() != nil {
		t.Error("Clone(nil) != nil")
	}
}

func encodeForHash(x numberline.Vector, s *Sketch) []byte {
	var b bytes.Buffer
	writeForHash(&b, x, s)
	return b.Bytes()
}

// TestEncodeForHashInjective checks the streamed digest encoding: it is
// length-prefixed big-endian int64s whatever the buffer boundaries, and
// therefore injective.
func TestEncodeForHashInjective(t *testing.T) {
	// Distinct (x, s) pairs with identical concatenations must encode
	// differently thanks to the length prefixes.
	a := encodeForHash(numberline.Vector{1, 2}, &Sketch{Movements: []int64{3}})
	b := encodeForHash(numberline.Vector{1}, &Sketch{Movements: []int64{2, 3}})
	if bytes.Equal(a, b) {
		t.Error("encoding collided on shifted split")
	}
	c := encodeForHash(numberline.Vector{1, 2}, &Sketch{Movements: []int64{3}})
	if !bytes.Equal(a, c) {
		t.Error("encoding not deterministic")
	}
	// Lengths around and across the writer's buffer flushes encode exactly
	// as the flat layout.
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{0, 1, 126, 127, 128, 129, 255, 256, 300} {
		x := make(numberline.Vector, n)
		m := make([]int64, n/2+1)
		for i := range x {
			x[i] = rng.Int63() - rng.Int63()
		}
		for i := range m {
			m[i] = rng.Int63() - rng.Int63()
		}
		var want []byte
		for _, part := range [][]int64{x, m} {
			want = binary.BigEndian.AppendUint64(want, uint64(len(part)))
			for _, v := range part {
				want = binary.BigEndian.AppendUint64(want, uint64(v))
			}
		}
		if got := encodeForHash(x, &Sketch{Movements: m}); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: streamed encoding differs from the flat layout", n)
		}
	}
}

// randomVector draws n uniform points on l.
func randomVector(rng *rand.Rand, l *numberline.Line, n int) numberline.Vector {
	v := make(numberline.Vector, n)
	for i := range v {
		v[i] = l.Normalize(rng.Int63n(l.RingSize()) - l.RingSize()/2)
	}
	return v
}

// perturb returns a copy of x with every coordinate moved by at most maxD on
// the ring.
func perturb(rng *rand.Rand, l *numberline.Line, x numberline.Vector, maxD int64) numberline.Vector {
	y := make(numberline.Vector, len(x))
	for i := range x {
		y[i] = l.Add(x[i], rng.Int63n(2*maxD+1)-maxD)
	}
	return y
}
