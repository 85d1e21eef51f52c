package sketch

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"fuzzyid/internal/numberline"
)

// refLine is the interval arithmetic the line and the sketch used before
// both were rebuilt on numberline.Line.EdgeOffset: a full % reduction in
// Normalize, a division and a second % in IntervalIndex, and the
// Add → ContainingIdentifier → Sub chain in Rec. It exists only as the
// reference the one-reduction kernel is checked against.
type refLine struct {
	p                           numberline.Params
	ka, ring, half, halfRing, t int64
}

func newRefLine(p numberline.Params) refLine {
	ka := p.A * p.K
	return refLine{p: p, ka: ka, ring: ka * p.V, half: ka / 2, halfRing: ka * p.V / 2, t: p.T}
}

func (r refLine) normalize(x int64) int64 {
	v := x % r.ring
	if v <= -r.halfRing {
		v += r.ring
	} else if v > r.halfRing {
		v -= r.ring
	}
	return v
}

func (r refLine) intervalIndex(x int64) (idx, offset int64, boundary bool) {
	shifted := r.normalize(x) + r.halfRing
	if shifted == r.ring {
		shifted = 0
	}
	idx = shifted / r.ka
	within := shifted % r.ka
	if within == 0 {
		return idx, -r.half, true
	}
	return idx, within - r.half, false
}

func (r refLine) identifier(idx int64) int64 {
	return r.normalize(-r.halfRing + idx*r.ka + r.half)
}

func (r refLine) nearestIdentifier(x int64, coin bool) (id, movement int64) {
	idx, offset, boundary := r.intervalIndex(x)
	if boundary {
		if coin {
			return r.identifier(idx), r.half
		}
		return r.identifier((idx - 1 + r.p.V) % r.p.V), -r.half
	}
	return r.identifier(idx), -offset
}

func (r refLine) containingIdentifier(x int64) (id, dist int64) {
	idx, offset, _ := r.intervalIndex(x)
	if offset < 0 {
		offset = -offset
	}
	return r.identifier(idx), offset
}

// sketch is the reference SS for one coordinate: a coin is read only at an
// interval edge.
func (r refLine) sketch(x int64, coins io.Reader) (int64, error) {
	coin := false
	if _, _, boundary := r.intervalIndex(x); boundary {
		b, err := flipCoin(coins)
		if err != nil {
			return 0, err
		}
		coin = b
	}
	_, mv := r.nearestIdentifier(x, coin)
	return mv, nil
}

// recover is the reference Rec for coordinate i. It returns the error the
// real Recover must return when this coordinate is the first to fail, or nil.
func (r refLine) recover(i int, y, m int64) (int64, error) {
	if m < -r.half || m > r.half {
		return 0, ErrInvalidSketch
	}
	id, dist := r.containingIdentifier(r.normalize(y + m))
	if dist > r.t {
		return 0, fmt.Errorf("coordinate %d: distance %d > t=%d: %w", i, dist, r.t, ErrNotClose)
	}
	return r.normalize(id - m), nil
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// checkPointEquivalent checks every per-coordinate result at the point x
// against the reference: the Line's interval methods, SS under both coins
// and its coin consumption, and Rec at every movement in [-ka/2, ka/2]
// plus one illegal movement on each side.
func checkPointEquivalent(t *testing.T, l *numberline.Line, ref refLine, x int64) {
	t.Helper()
	for _, in := range []int64{x, x + ref.ring, x - ref.ring, x + 3*ref.ring} {
		gi, gOff, gb := l.IntervalIndex(in)
		wi, wOff, wb := ref.intervalIndex(in)
		if gi != wi || gOff != wOff || gb != wb {
			t.Fatalf("%v: IntervalIndex(%d) = (%d, %d, %v), reference (%d, %d, %v)", ref.p, in, gi, gOff, gb, wi, wOff, wb)
		}
		if l.IsBoundary(in) != wb {
			t.Fatalf("%v: IsBoundary(%d) = %v, reference %v", ref.p, in, !wb, wb)
		}
		for _, coin := range []bool{false, true} {
			gid, gmv := l.NearestIdentifier(in, coin)
			wid, wmv := ref.nearestIdentifier(in, coin)
			if gid != wid || gmv != wmv {
				t.Fatalf("%v: NearestIdentifier(%d, %v) = (%d, %d), reference (%d, %d)", ref.p, in, coin, gid, gmv, wid, wmv)
			}
		}
		gid, gd := l.ContainingIdentifier(in)
		wid, wd := ref.containingIdentifier(in)
		if gid != wid || gd != wd {
			t.Fatalf("%v: ContainingIdentifier(%d) = (%d, %d), reference (%d, %d)", ref.p, in, gid, gd, wid, wd)
		}
	}

	for _, coin := range []byte{0, 1} {
		got := &countingReader{r: constReader(coin)}
		want := &countingReader{r: constReader(coin)}
		s, err := NewChebyshev(l, WithCoins(got)).Sketch(numberline.Vector{x})
		if err != nil {
			t.Fatalf("%v: Sketch(%d): %v", ref.p, x, err)
		}
		mv, _ := ref.sketch(x, want)
		if s.Movements[0] != mv || got.n != want.n {
			t.Fatalf("%v: Sketch(%d) coin %d = %d reading %d coins, reference %d reading %d",
				ref.p, x, coin, s.Movements[0], got.n, mv, want.n)
		}
	}

	c := NewChebyshev(l)
	for m := -ref.half - 1; m <= ref.half+1; m++ {
		z, err := c.Recover(numberline.Vector{x}, &Sketch{Movements: []int64{m}})
		wz, werr := ref.recover(0, x, m)
		switch {
		case werr == nil && (err != nil || z[0] != wz):
			t.Fatalf("%v: Recover(%d, %d) = (%v, %v), reference (%d, nil)", ref.p, x, m, z, err, wz)
		case errors.Is(werr, ErrInvalidSketch) && !errors.Is(err, ErrInvalidSketch):
			t.Fatalf("%v: Recover(%d, %d) err = %v, want ErrInvalidSketch", ref.p, x, m, err)
		case errors.Is(werr, ErrNotClose) && (err == nil || err.Error() != werr.Error()):
			t.Fatalf("%v: Recover(%d, %d) err = %v, reference %v", ref.p, x, m, err, werr)
		}
	}
}

// TestKernelEquivalentExhaustiveSmallLines runs every canonical point of
// small lines that cover the corner parameters: k = 2, odd a, v = 2, odd v,
// t = 0 and t = ka/2 - 1.
func TestKernelEquivalentExhaustiveSmallLines(t *testing.T) {
	for _, p := range []numberline.Params{
		{A: 1, K: 2, V: 2, T: 0},
		{A: 1, K: 4, V: 8, T: 1},
		{A: 3, K: 2, V: 5, T: 2},
		{A: 3, K: 4, V: 7, T: 5},
		{A: 5, K: 6, V: 3, T: 0},
		{A: 7, K: 2, V: 9, T: 6},
		{A: 2, K: 4, V: 2, T: 3},
	} {
		l := numberline.MustNew(p)
		ref := newRefLine(p)
		for x := l.Min(); x <= l.Max(); x++ {
			checkPointEquivalent(t, l, ref, x)
		}
	}
}

// TestKernelEquivalentLargeLines checks windows of lines whose rings sit on
// either side of 2^32, where EdgeOffset switches from the multiply-high
// reduction to %, plus the paper's line and a 2^42-point ring. The windows
// cover both ends of the line, the middle, and random interior points.
func TestKernelEquivalentLargeLines(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, p := range []numberline.Params{
		{A: 3, K: 2, V: 715827882, T: 2}, // kav = 2^32 - 4: largest multiply-high ring
		{A: 3, K: 2, V: 715827883, T: 1}, // kav = 2^32 + 2: % fallback
		{A: 1, K: 4, V: 1 << 40, T: 1},   // kav = 2^42: % fallback
		numberline.PaperParams(),
	} {
		l := numberline.MustNew(p)
		ref := newRefLine(p)
		w := 2 * ref.ka
		if w > 100 {
			w = 100
		}
		starts := []int64{l.Min(), l.Max() - w, -w / 2}
		for i := 0; i < 4; i++ {
			starts = append(starts, l.Min()+rng.Int63n(l.RingSize()-w))
		}
		for _, s := range starts {
			for x := s; x <= s+w; x++ {
				checkPointEquivalent(t, l, ref, x)
			}
		}
	}
}
