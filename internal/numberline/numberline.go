// Package numberline implements the discrete number line La of Definition 4
// in "Fuzzy Extractors for Biometric Identification" (Li et al., ICDCS 2017).
//
// The line consists of k*a*v consecutive integer points arranged on a ring.
// It is partitioned into v intervals of k*a points each; every interval is
// identified by its midpoint. Biometric feature vectors are encoded so that
// each coordinate is a point of La; the secure sketch of the paper records,
// per coordinate, the signed movement from the point to the identifier of the
// interval that contains it.
//
// Ring convention. The paper states that "La can be considered as a ring"
// (special case 2 of the sketch algorithm) but its Rec normalisation step
// reduces overflow by a single interval width ka. That is insufficient when a
// point wraps across the end of the line; we therefore perform all arithmetic
// modulo the full ring size kav, with centred representatives in
// (-kav/2, kav/2]. DESIGN.md documents this erratum.
package numberline

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Common parameter-validation errors. They are exported so that callers can
// match the failure reason with errors.Is.
var (
	ErrUnitNotPositive     = errors.New("numberline: unit a must be positive")
	ErrUnitsOdd            = errors.New("numberline: units per interval k must be even and >= 2")
	ErrIntervalCount       = errors.New("numberline: interval count v must be > 1")
	ErrThresholdRange      = errors.New("numberline: threshold t must satisfy 0 <= t < k*a/2")
	ErrPointOutOfRange     = errors.New("numberline: point outside the line range")
	ErrOverflow            = errors.New("numberline: parameters overflow int64 range")
	ErrDimensionOutOfRange = errors.New("numberline: dimension n must be positive")
)

// Params describes a number line La together with the acceptance threshold t.
// The set of points is {-kav/2 + 1, ..., kav/2} with -kav/2 identified with
// kav/2 (the ring closure of Definition 4).
type Params struct {
	// A is the unit length a of the line. Must be positive.
	A int64
	// K is the number of units per interval. Must be even and >= 2.
	K int64
	// V is the number of intervals on the line. Must be > 1.
	V int64
	// T is the maximum acceptable Chebyshev distance (threshold); it must
	// satisfy 0 <= T < K*A/2 for Theorem 1 to hold.
	T int64
}

// String implements fmt.Stringer.
func (p Params) String() string {
	return fmt.Sprintf("a=%d,k=%d,v=%d,t=%d", p.A, p.K, p.V, p.T)
}

// PaperParams returns the parameter set of Table II of the paper:
// a = 100, k = 4, v = 500, t = 100, representation range [-100000, 100000].
func PaperParams() Params {
	return Params{A: 100, K: 4, V: 500, T: 100}
}

// Validate reports whether the parameters describe a well-formed line.
func (p Params) Validate() error {
	// Guard against int64 overflow of the ring size and of the distance
	// arithmetic (which may add two in-range values). Both products are
	// bounded by division before either is formed, so a wrapped k*a can
	// neither pass the threshold check nor size the ring.
	const maxRing = int64(1) << 61
	switch {
	case p.A <= 0:
		return ErrUnitNotPositive
	case p.K < 2 || p.K%2 != 0:
		return ErrUnitsOdd
	case p.V <= 1:
		return ErrIntervalCount
	case p.A > maxRing/p.K || p.A*p.K > maxRing/p.V:
		return ErrOverflow
	case p.T < 0 || p.T >= p.K*p.A/2:
		return ErrThresholdRange
	}
	return nil
}

// Line is an immutable, validated number line.
type Line struct {
	params       Params
	intervalSpan int64 // k*a, the number of points per interval
	ringSize     int64 // k*a*v, the total number of points
	halfInterval int64 // k*a/2, distance from interval edge to identifier
	halfRing     int64 // k*a*v/2, the largest point on the line
	// spanRecip is ceil(2^64 / ka) when kav < 2^32, letting EdgeOffset
	// reduce modulo ka with two multiplies instead of a division (Lemire,
	// Kaser & Kurz, "Faster Remainder by Direct Computation", 2019). It is
	// zero on larger rings, where EdgeOffset falls back to %.
	spanRecip uint64
}

// New validates p and constructs the corresponding line.
func New(p Params) (*Line, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	iw := p.A * p.K
	ring := iw * p.V
	l := &Line{
		params:       p,
		intervalSpan: iw,
		ringSize:     ring,
		halfInterval: iw / 2,
		halfRing:     ring / 2,
	}
	if ring < 1<<32 {
		l.spanRecip = math.MaxUint64/uint64(iw) + 1
	}
	return l, nil
}

// MustNew is New for parameters known to be valid at program start-up, such
// as compile-time constants; it panics on invalid parameters.
func MustNew(p Params) *Line {
	l, err := New(p)
	if err != nil {
		panic(fmt.Sprintf("numberline.MustNew(%+v): %v", p, err))
	}
	return l
}

// Params returns the parameters the line was built from.
func (l *Line) Params() Params { return l.params }

// IntervalSpan returns k*a, the number of points in one interval.
func (l *Line) IntervalSpan() int64 { return l.intervalSpan }

// RingSize returns k*a*v, the total number of points on the line.
func (l *Line) RingSize() int64 { return l.ringSize }

// Threshold returns the maximum acceptable Chebyshev distance t.
func (l *Line) Threshold() int64 { return l.params.T }

// Min returns the smallest representable point, -kav/2 + 1. The point -kav/2
// itself is identified with Max (ring closure) and is normalised to Max.
func (l *Line) Min() int64 { return -l.halfRing + 1 }

// Max returns the largest representable point, kav/2.
func (l *Line) Max() int64 { return l.halfRing }

// Contains reports whether x is a canonical point of the line.
func (l *Line) Contains(x int64) bool { return x > -l.halfRing && x <= l.halfRing }

// Normalize reduces an arbitrary integer onto the line's canonical
// representative range (-kav/2, kav/2] using ring arithmetic. A point
// already on the line is returned as is.
func (l *Line) Normalize(x int64) int64 {
	if l.Contains(x) {
		return x
	}
	return l.reduce(x)
}

// reduce is Normalize for a point off the canonical range.
func (l *Line) reduce(x int64) int64 {
	r := x % l.ringSize
	if r <= -l.halfRing {
		r += l.ringSize
	} else if r > l.halfRing {
		r -= l.ringSize
	}
	return r
}

// EdgeOffset returns (x + kav/2) mod ka for a canonical point x (one with
// Contains(x); Normalize others first): how far x lies to the right of the
// interval edge at or before it, in [0, ka). It is 0 exactly at interval
// edges and ka/2 at identifiers, so x's signed offset from its interval's
// identifier is EdgeOffset(x) - ka/2. Every interval computation of the
// line and of the Chebyshev sketch is built on this one reduction.
func (l *Line) EdgeOffset(x int64) int64 {
	// n is in [1, kav]; the edge kav ≡ 0 (mod ka) maps to 0 like the rest.
	n := uint64(x + l.halfRing)
	if l.spanRecip != 0 {
		// n < 2^32 and ka < 2^32: the fractional part of n/ka, scaled by
		// 2^64, times ka, is exactly n mod ka in the high word.
		hi, _ := bits.Mul64(l.spanRecip*n, uint64(l.intervalSpan))
		return int64(hi)
	}
	return int64(n % uint64(l.intervalSpan))
}

// Add returns x + d on the ring.
func (l *Line) Add(x, d int64) int64 { return l.Normalize(x + d) }

// Sub returns x - y on the ring, as a centred representative. The result is
// the signed displacement from y to x along the shorter direction.
func (l *Line) Sub(x, y int64) int64 { return l.Normalize(x - y) }

// Dist returns the circular distance |x - y| on the ring (the length of the
// shorter arc between the two points).
func (l *Line) Dist(x, y int64) int64 {
	d := l.Sub(x, y)
	if d < 0 {
		// The centred representative kav/2 is its own negation, so the
		// absolute value is always representable.
		d = -d
	}
	return d
}

// IntervalIndex returns the index in [0, v) of the interval containing x,
// along with the signed offset of x from that interval's identifier.
// Boundary points (interval edges) belong to no interval per Definition 4;
// for them the function returns the interval to the point's right and
// offset -k*a/2, and boundary == true.
func (l *Line) IntervalIndex(x int64) (idx int64, offset int64, boundary bool) {
	// Interval j covers the open range (j*ka, (j+1)*ka) of x + kav/2, whose
	// edges are the multiples of ka; the edge at kav is the one at 0.
	x = l.Normalize(x)
	u := l.EdgeOffset(x)
	idx = (x + l.halfRing - u) / l.intervalSpan
	if idx == l.params.V {
		idx = 0
	}
	return idx, u - l.halfInterval, u == 0
}

// Identifier returns the identifier (midpoint) of interval idx in [0, v).
func (l *Line) Identifier(idx int64) int64 {
	lo := -l.halfRing + idx*l.intervalSpan // edge point of interval idx
	return l.Normalize(lo + l.halfInterval)
}

// NearestIdentifier returns the identifier closest to x and the signed
// movement s with x + s = identifier (ring arithmetic), |s| <= k*a/2.
// Boundary points are equidistant from the two neighbouring identifiers; the
// choice is made by the coin argument (false = left identifier, true =
// right), implementing special cases 1 and 2 of the sketch algorithm.
func (l *Line) NearestIdentifier(x int64, coin bool) (id, movement int64) {
	x = l.Normalize(x)
	movement = l.Movement(l.EdgeOffset(x), coin)
	return l.Add(x, movement), movement
}

// Movement returns the sketch movement of a point whose EdgeOffset is u:
// ka/2 - u, the signed step to its interval's identifier. At an edge
// (u == 0) the coin picks the direction: true moves right by ka/2, false
// moves left by ka/2. The coin is ignored everywhere else.
func (l *Line) Movement(u int64, coin bool) int64 {
	if u == 0 && !coin {
		return -l.halfInterval
	}
	return l.halfInterval - u
}

// IsBoundary reports whether x is an interval edge (belongs to no interval).
func (l *Line) IsBoundary(x int64) bool { return l.EdgeOffset(l.Normalize(x)) == 0 }

// ContainingIdentifier returns the identifier of the interval containing x
// and the circular distance from x to that identifier. For boundary points
// the distance to either neighbour identifier is exactly k*a/2 > t, so the
// recovery procedure of the paper rejects them regardless of which side is
// reported; we report the right-hand interval.
func (l *Line) ContainingIdentifier(x int64) (id, dist int64) {
	x = l.Normalize(x)
	offset := l.EdgeOffset(x) - l.halfInterval
	id = l.Add(x, -offset)
	if offset < 0 {
		return id, -offset
	}
	return id, offset
}

// MovementRange returns the inclusive range of legal sketch movements,
// [-k*a/2, k*a/2].
func (l *Line) MovementRange() (lo, hi int64) {
	return -l.halfInterval, l.halfInterval
}

// String implements fmt.Stringer.
func (l *Line) String() string {
	return fmt.Sprintf("La(a=%d, k=%d, v=%d, t=%d, range=(%d, %d])",
		l.params.A, l.params.K, l.params.V, l.params.T, -l.halfRing, l.halfRing)
}
