package sketch

import (
	"errors"
	"testing"

	"fuzzyid/internal/numberline"
)

// FuzzRecover feeds adversarial probe vectors and sketch movements to the
// recovery procedure. Invariants: no panic; the verdict, the recovered
// vector and the error text agree with the reference Add →
// ContainingIdentifier → Sub chain; any successful recovery returns a
// vector on the line whose shifted coordinates sit on interval identifiers.
func FuzzRecover(f *testing.F) {
	line := numberline.MustNew(numberline.Params{A: 3, K: 4, V: 6, T: 2})
	c := NewChebyshev(line)
	ref := newRefLine(line.Params())
	f.Add(int64(0), int64(0), int64(1), int64(-1))
	f.Add(int64(35), int64(-35), int64(6), int64(-6))
	f.Add(int64(999), int64(-999), int64(999), int64(-999))
	f.Fuzz(func(t *testing.T, y0, y1, m0, m1 int64) {
		y := numberline.Vector{y0, y1}
		s := &Sketch{Movements: []int64{m0, m1}}
		z, err := c.Recover(y, s)
		if line.ValidateVector(y) == nil {
			var want numberline.Vector
			var werr error
			for _, m := range s.Movements { // Rec validates the whole sketch first
				if m < -ref.half || m > ref.half {
					werr = ErrInvalidSketch
				}
			}
			if werr == nil {
				for i := range y {
					var zi int64
					if zi, werr = ref.recover(i, y[i], s.Movements[i]); werr != nil {
						break
					}
					want = append(want, zi)
				}
			}
			switch {
			case werr == nil && (err != nil || !z.Equal(want)):
				t.Fatalf("Recover(%v, %v) = (%v, %v), reference %v", y, s.Movements, z, err, want)
			case errors.Is(werr, ErrInvalidSketch) && !errors.Is(err, ErrInvalidSketch):
				t.Fatalf("Recover(%v, %v) err = %v, want ErrInvalidSketch", y, s.Movements, err)
			case errors.Is(werr, ErrNotClose) && (err == nil || err.Error() != werr.Error()):
				t.Fatalf("Recover(%v, %v) err = %v, reference %v", y, s.Movements, err, werr)
			}
		}
		if err != nil {
			return
		}
		if err := line.ValidateVector(z); err != nil {
			t.Fatalf("recovered invalid vector %v: %v", z, err)
		}
		for i := range z {
			shifted := line.Add(z[i], s.Movements[i])
			if _, dist := line.ContainingIdentifier(shifted); dist != 0 {
				t.Fatalf("z + s not on an identifier at coordinate %d", i)
			}
		}
	})
}

// FuzzMatchAgreement checks the circular-distance matcher against the
// paper-literal four-condition matcher on arbitrary movement pairs.
func FuzzMatchAgreement(f *testing.F) {
	line := numberline.MustNew(numberline.PaperParams())
	c := NewChebyshev(line)
	f.Add(int64(0), int64(0))
	f.Add(int64(200), int64(-200))
	f.Add(int64(-150), int64(51))
	f.Fuzz(func(t *testing.T, a, b int64) {
		lo, hi := line.MovementRange()
		if a < lo || a > hi || b < lo || b > hi {
			return
		}
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
			t.Fatalf("matchers disagree on (%d, %d): %v vs %v", a, b, m1, m2)
		}
	})
}
