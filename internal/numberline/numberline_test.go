package numberline

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func testLine(t *testing.T, p Params) *Line {
	t.Helper()
	l, err := New(p)
	if err != nil {
		t.Fatalf("New(%+v): %v", p, err)
	}
	return l
}

// small returns a tiny line that can be exhaustively enumerated in tests:
// a=1, k=4, v=8 => interval span 4, ring size 32, points (-16, 16].
func small(t *testing.T) *Line {
	return testLine(t, Params{A: 1, K: 4, V: 8, T: 1})
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name string
		give Params
		want error
	}{
		{name: "paper params", give: PaperParams(), want: nil},
		{name: "small valid", give: Params{A: 1, K: 2, V: 2, T: 0}, want: nil},
		{name: "zero unit", give: Params{A: 0, K: 4, V: 8, T: 1}, want: ErrUnitNotPositive},
		{name: "negative unit", give: Params{A: -5, K: 4, V: 8, T: 1}, want: ErrUnitNotPositive},
		{name: "odd k", give: Params{A: 1, K: 3, V: 8, T: 1}, want: ErrUnitsOdd},
		{name: "k too small", give: Params{A: 1, K: 0, V: 8, T: 1}, want: ErrUnitsOdd},
		{name: "v too small", give: Params{A: 1, K: 4, V: 1, T: 1}, want: ErrIntervalCount},
		{name: "threshold negative", give: Params{A: 1, K: 4, V: 8, T: -1}, want: ErrThresholdRange},
		{name: "threshold at half interval", give: Params{A: 1, K: 4, V: 8, T: 2}, want: ErrThresholdRange},
		{name: "threshold above half interval", give: Params{A: 100, K: 4, V: 8, T: 200}, want: ErrThresholdRange},
		{name: "overflow", give: Params{A: 1 << 40, K: 1 << 10, V: 1 << 20, T: 1}, want: ErrOverflow},
		// k*a wraps to 4 in int64, which once passed both the threshold
		// check and the ring-size guard.
		{name: "overflow wrapped span", give: Params{A: 1<<62 + 1, K: 4, V: 500, T: 1}, want: ErrOverflow},
		{name: "overflow span alone", give: Params{A: 1 << 61, K: 2, V: 2, T: 1}, want: ErrOverflow},
		{name: "largest ring", give: Params{A: 1 << 58, K: 2, V: 4, T: 1}, want: nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.give.Validate()
			if !errors.Is(err, tt.want) {
				t.Errorf("Validate() = %v, want %v", err, tt.want)
			}
			if _, newErr := New(tt.give); !errors.Is(newErr, tt.want) {
				t.Errorf("New() error = %v, want %v", newErr, tt.want)
			}
		})
	}
}

// TestEdgeOffsetReduction searches random lines for a point where
// EdgeOffset's multiply-high reduction (rings below 2^32) or its % fallback
// (larger rings) disagrees with a plain (x + kav/2) mod ka, and pins where
// the fast path switches on.
func TestEdgeOffsetReduction(t *testing.T) {
	for _, c := range []struct {
		p    Params
		fast bool
	}{
		{PaperParams(), true},
		{Params{A: 3, K: 2, V: 715827882, T: 1}, true}, // kav = 2^32 - 4
		{Params{A: 1, K: 4, V: 1 << 30, T: 1}, false},  // kav = 2^32
	} {
		if got := testLine(t, c.p).spanRecip != 0; got != c.fast {
			t.Errorf("%v: multiply-high path = %v, want %v", c.p, got, c.fast)
		}
	}
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 400; i++ {
		a := 1 + rng.Int63n(1<<uint(rng.Intn(31)))
		k := 2 * (1 + rng.Int63n(3))
		maxV := int64(1<<32-1) / (a * k) // fast path for the first half
		if i%2 == 1 {
			maxV = (int64(1) << 61) / (a * k)
		}
		if maxV < 2 {
			continue
		}
		l := testLine(t, Params{A: a, K: k, V: 2 + rng.Int63n(maxV-1), T: 0})
		xs := []int64{l.Min(), l.Min() + 1, -1, 0, 1, l.Max() - 1, l.Max()}
		for j := 0; j < 200; j++ {
			xs = append(xs, l.Min()+rng.Int63n(l.RingSize()))
		}
		for _, x := range xs {
			if got, want := l.EdgeOffset(x), (x+l.halfRing)%l.intervalSpan; got != want {
				t.Fatalf("%v: EdgeOffset(%d) = %d, want %d", l.params, x, got, want)
			}
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with invalid params did not panic")
		}
	}()
	MustNew(Params{})
}

func TestPaperParamsGeometry(t *testing.T) {
	l := testLine(t, PaperParams())
	if got, want := l.IntervalSpan(), int64(400); got != want {
		t.Errorf("IntervalSpan() = %d, want %d", got, want)
	}
	if got, want := l.RingSize(), int64(200000); got != want {
		t.Errorf("RingSize() = %d, want %d", got, want)
	}
	if got, want := l.Max(), int64(100000); got != want {
		t.Errorf("Max() = %d, want %d", got, want)
	}
	if got, want := l.Min(), int64(-99999); got != want {
		t.Errorf("Min() = %d, want %d", got, want)
	}
	if got, want := l.Threshold(), int64(100); got != want {
		t.Errorf("Threshold() = %d, want %d", got, want)
	}
}

func TestNormalize(t *testing.T) {
	l := small(t) // ring size 32, canonical range (-16, 16]
	tests := []struct {
		give, want int64
	}{
		{0, 0},
		{16, 16},
		{-16, 16}, // ring closure: -kav/2 == kav/2
		{17, -15},
		{-17, 15},
		{32, 0},
		{-32, 0},
		{33, 1},
		{48, 16},
		{-48, 16},
		{100, 4},
		{-100, -4},
	}
	for _, tt := range tests {
		if got := l.Normalize(tt.give); got != tt.want {
			t.Errorf("Normalize(%d) = %d, want %d", tt.give, got, tt.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	l := small(t)
	f := func(x int64) bool {
		n := l.Normalize(x)
		return l.Contains(n) && l.Normalize(n) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingArithmetic(t *testing.T) {
	l := small(t)
	if got := l.Add(16, 1); got != -15 {
		t.Errorf("Add(16, 1) = %d, want -15", got)
	}
	if got := l.Sub(-15, 16); got != 1 {
		t.Errorf("Sub(-15, 16) = %d, want 1", got)
	}
	if got := l.Dist(-15, 16); got != 1 {
		t.Errorf("Dist(-15, 16) = %d, want 1 (wraparound)", got)
	}
	if got := l.Dist(16, -15); got != 1 {
		t.Errorf("Dist(16, -15) = %d, want 1 (symmetry)", got)
	}
	if got := l.Dist(0, 16); got != 16 {
		t.Errorf("Dist(0, 16) = %d, want 16 (antipodal)", got)
	}
}

func TestDistMetricProperties(t *testing.T) {
	l := small(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		x := rng.Int63n(l.RingSize()) - l.RingSize()/2
		y := rng.Int63n(l.RingSize()) - l.RingSize()/2
		z := rng.Int63n(l.RingSize()) - l.RingSize()/2
		dxy, dyx := l.Dist(x, y), l.Dist(y, x)
		if dxy != dyx {
			t.Fatalf("Dist not symmetric: Dist(%d,%d)=%d Dist(%d,%d)=%d", x, y, dxy, y, x, dyx)
		}
		if dxy < 0 || dxy > l.RingSize()/2 {
			t.Fatalf("Dist(%d,%d)=%d outside [0, ring/2]", x, y, dxy)
		}
		if (dxy == 0) != (l.Normalize(x) == l.Normalize(y)) {
			t.Fatalf("Dist(%d,%d)=0 iff equal violated", x, y)
		}
		if dxz := l.Dist(x, z); dxz > dxy+l.Dist(y, z) {
			t.Fatalf("triangle inequality violated for %d,%d,%d", x, y, z)
		}
	}
}

func TestIntervalIndexExhaustiveSmall(t *testing.T) {
	l := small(t) // span 4, intervals cover (edge, edge+4) with edges at -16,-12,...
	// Enumerate all canonical points and verify interval bookkeeping.
	boundaries := 0
	for x := l.Min(); x <= l.Max(); x++ {
		idx, offset, boundary := l.IntervalIndex(x)
		if idx < 0 || idx >= l.Params().V {
			t.Fatalf("IntervalIndex(%d) idx = %d out of range", x, idx)
		}
		if boundary {
			boundaries++
			if offset != -l.IntervalSpan()/2 {
				t.Fatalf("boundary point %d offset = %d, want %d", x, offset, -l.IntervalSpan()/2)
			}
			// Boundary points are the interval edges: shifted coordinate
			// multiple of span. On the small line these are -16, -12, ..., 12.
			if (x+16)%4 != 0 {
				t.Fatalf("point %d flagged boundary unexpectedly", x)
			}
			continue
		}
		id := l.Identifier(idx)
		if got := l.Sub(x, id); got != offset {
			t.Fatalf("point %d: offset = %d but x - Identifier(%d) = %d", x, offset, idx, got)
		}
		if d := l.Dist(x, id); d >= l.IntervalSpan()/2 {
			t.Fatalf("point %d: distance %d to own identifier not < span/2", x, d)
		}
	}
	if boundaries != int(l.Params().V) {
		t.Errorf("found %d boundary points, want %d (one per interval)", boundaries, l.Params().V)
	}
}

func TestIdentifiersAreOddPoints(t *testing.T) {
	// Per Definition 4, identifiers are the interval midpoints. On the
	// shifted line they sit at span/2 + j*span, i.e. all identifiers are
	// congruent modulo the interval span.
	l := testLine(t, Params{A: 3, K: 4, V: 5, T: 2})
	span := l.IntervalSpan()
	want := l.Normalize(l.Min() - 1 + span/2) // first edge + half span
	_ = want
	var residue int64 = -1
	for j := int64(0); j < l.Params().V; j++ {
		id := l.Identifier(j)
		r := ((id % span) + span) % span
		if residue == -1 {
			residue = r
		} else if r != residue {
			t.Fatalf("Identifier(%d) = %d has residue %d mod %d, want %d", j, id, r, span, residue)
		}
	}
}

func TestNearestIdentifier(t *testing.T) {
	l := small(t)
	for x := l.Min(); x <= l.Max(); x++ {
		for _, coin := range []bool{false, true} {
			id, mv := l.NearestIdentifier(x, coin)
			if l.Add(x, mv) != id {
				t.Fatalf("x=%d coin=%v: x + movement = %d, want identifier %d", x, coin, l.Add(x, mv), id)
			}
			if mv < -l.IntervalSpan()/2 || mv > l.IntervalSpan()/2 {
				t.Fatalf("x=%d: movement %d outside [-span/2, span/2]", x, mv)
			}
			// The chosen identifier must be a real identifier.
			found := false
			for j := int64(0); j < l.Params().V; j++ {
				if l.Identifier(j) == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("x=%d: NearestIdentifier returned %d which is not an identifier", x, id)
			}
			// No other identifier may be strictly closer.
			d := l.Dist(x, id)
			for j := int64(0); j < l.Params().V; j++ {
				if other := l.Dist(x, l.Identifier(j)); other < d {
					t.Fatalf("x=%d: identifier %d at distance %d closer than chosen %d at %d",
						x, l.Identifier(j), other, id, d)
				}
			}
		}
	}
}

func TestNearestIdentifierCoinOnlyMattersAtBoundary(t *testing.T) {
	l := small(t)
	for x := l.Min(); x <= l.Max(); x++ {
		idL, mvL := l.NearestIdentifier(x, false)
		idR, mvR := l.NearestIdentifier(x, true)
		if l.IsBoundary(x) {
			if idL == idR {
				t.Fatalf("boundary x=%d: both coins map to identifier %d", x, idL)
			}
			if mvL != -l.IntervalSpan()/2 || mvR != l.IntervalSpan()/2 {
				t.Fatalf("boundary x=%d: movements (%d, %d), want (-span/2, span/2)", x, mvL, mvR)
			}
		} else if idL != idR || mvL != mvR {
			t.Fatalf("interior x=%d: coin changed result (%d,%d) vs (%d,%d)", x, idL, mvL, idR, mvR)
		}
	}
}

func TestContainingIdentifier(t *testing.T) {
	l := small(t)
	for x := l.Min(); x <= l.Max(); x++ {
		id, dist := l.ContainingIdentifier(x)
		if got := l.Dist(x, id); got != dist {
			t.Fatalf("x=%d: reported dist %d, actual %d", x, dist, got)
		}
		if l.IsBoundary(x) {
			if dist != l.IntervalSpan()/2 {
				t.Fatalf("boundary x=%d: dist to identifier = %d, want span/2", x, dist)
			}
		} else if dist >= l.IntervalSpan()/2 {
			t.Fatalf("interior x=%d: dist %d >= span/2", x, dist)
		}
	}
}

func TestMovementRange(t *testing.T) {
	l := testLine(t, PaperParams())
	lo, hi := l.MovementRange()
	if lo != -200 || hi != 200 {
		t.Errorf("MovementRange() = (%d, %d), want (-200, 200)", lo, hi)
	}
}

func TestStringIncludesParams(t *testing.T) {
	l := small(t)
	s := l.String()
	if s == "" {
		t.Fatal("String() returned empty")
	}
}
