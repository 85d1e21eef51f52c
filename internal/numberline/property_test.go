package numberline

import (
	"math/rand"
	"testing"
)

// TestIntervalGeometryRandomLines checks the interval bookkeeping on random
// line geometries at random points — the large-parameter complement of the
// exhaustive small-line tests.
func TestIntervalGeometryRandomLines(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	for trial := 0; trial < 200; trial++ {
		p := Params{
			A: 1 + rng.Int63n(500),
			K: 2 * (1 + rng.Int63n(8)),
			V: 2 + rng.Int63n(1000),
		}
		p.T = rng.Int63n(p.K * p.A / 2)
		l, err := New(p)
		if err != nil {
			t.Fatalf("params %v: %v", p, err)
		}
		for probe := 0; probe < 50; probe++ {
			x := l.Normalize(rng.Int63n(l.RingSize()) - l.RingSize()/2)
			idx, offset, boundary := l.IntervalIndex(x)
			if idx < 0 || idx >= p.V {
				t.Fatalf("params %v x=%d: idx %d out of range", p, x, idx)
			}
			id := l.Identifier(idx)
			if boundary {
				// Boundary points sit exactly half an interval from both
				// neighbouring identifiers.
				if d := l.Dist(x, id); d != l.IntervalSpan()/2 {
					t.Fatalf("params %v boundary x=%d: dist to right identifier = %d", p, x, d)
				}
				continue
			}
			if got := l.Sub(x, id); got != offset {
				t.Fatalf("params %v x=%d: offset %d but Sub = %d", p, x, offset, got)
			}
			// NearestIdentifier must invert the offset for interior points.
			nid, mv := l.NearestIdentifier(x, rng.Intn(2) == 1)
			if nid != id || mv != -offset {
				t.Fatalf("params %v x=%d: NearestIdentifier (%d, %d), want (%d, %d)",
					p, x, nid, mv, id, -offset)
			}
			// Round trip through ring arithmetic.
			if l.Add(x, mv) != nid {
				t.Fatalf("params %v x=%d: x + movement != identifier", p, x)
			}
		}
		// Identifiers are evenly spaced by the interval span.
		j := rng.Int63n(p.V)
		next := (j + 1) % p.V
		if d := l.Dist(l.Identifier(j), l.Identifier(next)); d != l.IntervalSpan() && p.V > 2 {
			t.Fatalf("params %v: identifiers %d and %d at distance %d, want %d",
				p, j, next, d, l.IntervalSpan())
		}
	}
}
