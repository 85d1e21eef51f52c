// Package core implements the paper's primary contribution: the succinct
// fuzzy extractor of §IV-C, obtained from the Chebyshev-metric robust secure
// sketch via the generic secure-sketch + strong-extractor construction:
//
//	Gen(x)    = (R, P) with P = (s, r), s <- robustSS(x), R = Ext(x; r)
//	Rep(y, P) = Ext(robustRec(y, s); r) whenever dis(x, y) <= t
//
// The package also provides the closed-form security accounting of
// Theorem 3: min-entropy, residual (average min-)entropy, entropy loss,
// sketch storage and the false-close probability bound of §V.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"fuzzyid/internal/extract"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sketch"
)

// Defaults for Gen.
const (
	// DefaultKeyLen is the extracted key length in bytes (256 bits; the
	// paper's SHA-256 extractor output).
	DefaultKeyLen = 32
	// DefaultSeedLen is the extractor seed length in bytes.
	DefaultSeedLen = 32
)

// Errors returned by the fuzzy extractor.
var (
	ErrDimension  = errors.New("core: input dimension does not match configured dimension")
	ErrNilHelper  = errors.New("core: nil helper data")
	ErrBadKeyLen  = errors.New("core: key length must be positive")
	ErrBadSeedLen = errors.New("core: seed length must be positive")
)

// Params configures a fuzzy extractor.
type Params struct {
	// Line holds the number-line parameters (a, k, v, t) of Definition 4.
	Line numberline.Params
	// Dimension is the expected number of coordinates n. If zero, any
	// dimension is accepted.
	Dimension int
	// KeyLen is the extracted key length in bytes; 0 means DefaultKeyLen.
	KeyLen int
	// SeedLen is the extractor seed length in bytes; 0 means DefaultSeedLen.
	SeedLen int
}

// PaperParams returns the configuration of Table II: the paper's line
// (a=100, k=4, v=500, t=100) with n = 5000 and a 256-bit key.
func PaperParams() Params {
	return Params{Line: numberline.PaperParams(), Dimension: 5000}
}

// SecurityReport holds the closed-form security accounting of Theorem 3 and
// the §V false-close analysis for a given dimension n.
type SecurityReport struct {
	// N is the vector dimension the report is computed for.
	N int
	// MinEntropyBits is m = n*log2(k*a*v), the min-entropy of a uniform
	// input.
	MinEntropyBits float64
	// ResidualEntropyBits is m̃ = n*log2(v), the average min-entropy of the
	// input given the sketch (Theorem 3).
	ResidualEntropyBits float64
	// EntropyLossBits is m - m̃ = n*log2(k*a).
	EntropyLossBits float64
	// SketchStorageBits is n*log2(k*a + 1), the information content of the
	// stored sketch.
	SketchStorageBits float64
	// FalseCloseExponent is log2 of the §V bound Pr[E] < ((2t+1)/(k*a))^n;
	// the probability bound itself is 2^FalseCloseExponent.
	FalseCloseExponent float64
}

// Report computes the security accounting for dimension n under the
// line parameters.
func (p Params) Report(n int) SecurityReport {
	ka := float64(p.Line.K * p.Line.A)
	kav := ka * float64(p.Line.V)
	fn := float64(n)
	return SecurityReport{
		N:                   n,
		MinEntropyBits:      fn * math.Log2(kav),
		ResidualEntropyBits: fn * math.Log2(float64(p.Line.V)),
		EntropyLossBits:     fn * math.Log2(ka),
		SketchStorageBits:   fn * math.Log2(ka+1),
		FalseCloseExponent:  fn * math.Log2(float64(2*p.Line.T+1)/ka),
	}
}

// HelperData is the public value P = (s, r) of Gen: the robust sketch plus
// the extractor seed. It may be stored and transmitted in the clear; the
// robust digest detects modification.
type HelperData struct {
	// Sketch is the robust secure sketch s.
	Sketch *sketch.RobustSketch
	// Seed is the strong-extractor seed r.
	Seed []byte
}

// Clone returns an independent copy of h.
func (h *HelperData) Clone() *HelperData {
	if h == nil {
		return nil
	}
	seed := make([]byte, len(h.Seed))
	copy(seed, h.Seed)
	return &HelperData{Sketch: h.Sketch.Clone(), Seed: seed}
}

// Dimension returns the number of sketch coordinates n.
func (h *HelperData) Dimension() int {
	if h == nil || h.Sketch == nil {
		return 0
	}
	return h.Sketch.Dimension()
}

// FuzzyExtractor is the succinct fuzzy extractor. It is safe for concurrent
// use: all state is immutable after construction.
type FuzzyExtractor struct {
	params  Params
	line    *numberline.Line
	robust  *sketch.Robust
	ext     extract.Extractor
	keyLen  int
	seedLen int
	seedSrc func(int) ([]byte, error)
}

// Option configures the fuzzy extractor.
type Option interface {
	apply(*FuzzyExtractor)
}

type optionFunc func(*FuzzyExtractor)

func (f optionFunc) apply(fe *FuzzyExtractor) { f(fe) }

// WithExtractor selects the strong extractor (default extract.HMAC).
func WithExtractor(e extract.Extractor) Option {
	return optionFunc(func(fe *FuzzyExtractor) { fe.ext = e })
}

// WithCoins sets the randomness source for the sketch boundary coin flips;
// tests use this for determinism.
func WithCoins(r io.Reader) Option {
	return optionFunc(func(fe *FuzzyExtractor) {
		fe.robust = sketch.NewRobust(sketch.NewChebyshev(fe.line, sketch.WithCoins(r)))
	})
}

// WithSeedSource overrides the extractor-seed generator (default
// extract.NewSeed); tests use this for determinism.
func WithSeedSource(src func(int) ([]byte, error)) Option {
	return optionFunc(func(fe *FuzzyExtractor) { fe.seedSrc = src })
}

// New validates p and constructs a fuzzy extractor.
func New(p Params, opts ...Option) (*FuzzyExtractor, error) {
	line, err := numberline.New(p.Line)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if p.KeyLen < 0 {
		return nil, ErrBadKeyLen
	}
	if p.SeedLen < 0 {
		return nil, ErrBadSeedLen
	}
	fe := &FuzzyExtractor{
		params:  p,
		line:    line,
		robust:  sketch.NewRobust(sketch.NewChebyshev(line)),
		ext:     extract.HMAC{},
		keyLen:  p.KeyLen,
		seedLen: p.SeedLen,
		seedSrc: extract.NewSeed,
	}
	if fe.keyLen == 0 {
		fe.keyLen = DefaultKeyLen
	}
	if fe.seedLen == 0 {
		fe.seedLen = DefaultSeedLen
	}
	for _, o := range opts {
		o.apply(fe)
	}
	return fe, nil
}

// MustNew is New for compile-time-constant parameters; it panics on error.
func MustNew(p Params, opts ...Option) *FuzzyExtractor {
	fe, err := New(p, opts...)
	if err != nil {
		panic(fmt.Sprintf("core.MustNew: %v", err))
	}
	return fe
}

// Params returns the construction parameters.
func (fe *FuzzyExtractor) Params() Params { return fe.params }

// Line returns the underlying number line.
func (fe *FuzzyExtractor) Line() *numberline.Line { return fe.line }

// Sketcher returns the robust sketcher, for callers (the identification
// protocol) that need sketch-only operations.
func (fe *FuzzyExtractor) Sketcher() *sketch.Robust { return fe.robust }

// KeyLen returns the extracted key length in bytes.
func (fe *FuzzyExtractor) KeyLen() int { return fe.keyLen }

// Report returns the security accounting for the configured dimension (or
// for n if the configured dimension is zero).
func (fe *FuzzyExtractor) Report(n int) SecurityReport {
	if fe.params.Dimension != 0 {
		n = fe.params.Dimension
	}
	return fe.params.Report(n)
}

// Gen implements the generation procedure: Gen(x) -> (R, P).
func (fe *FuzzyExtractor) Gen(x numberline.Vector) (key []byte, helper *HelperData, err error) {
	if err := fe.checkDimension(len(x)); err != nil {
		return nil, nil, err
	}
	rs, err := fe.robust.Sketch(x)
	if err != nil {
		return nil, nil, fmt.Errorf("core: gen sketch: %w", err)
	}
	seed, err := fe.seedSrc(fe.seedLen)
	if err != nil {
		return nil, nil, fmt.Errorf("core: gen seed: %w", err)
	}
	key, err = fe.extract(seed, x)
	if err != nil {
		return nil, nil, fmt.Errorf("core: gen extract: %w", err)
	}
	return key, &HelperData{Sketch: rs, Seed: seed}, nil
}

// Rep implements the reproduction procedure: Rep(y, P) -> R for any y within
// Chebyshev distance t of the value x that generated P. Failure modes:
// sketch.ErrNotClose when y is too far, sketch.ErrTampered when the helper
// data was modified.
func (fe *FuzzyExtractor) Rep(y numberline.Vector, helper *HelperData) ([]byte, error) {
	if helper == nil || helper.Sketch == nil || len(helper.Seed) == 0 {
		return nil, ErrNilHelper
	}
	if err := fe.checkDimension(len(y)); err != nil {
		return nil, err
	}
	xp := recovered.Get().(*numberline.Vector)
	defer putCleared(&recovered, xp)
	x, err := fe.robust.RecoverInto(*xp, y, helper.Sketch)
	if err != nil {
		return nil, fmt.Errorf("core: rep recover: %w", err)
	}
	*xp = x
	key, err := fe.extract(helper.Seed, x)
	if err != nil {
		return nil, fmt.Errorf("core: rep extract: %w", err)
	}
	return key, nil
}

// SketchOnly runs the plain (non-robust) sketch algorithm on x. The
// identification protocol's probe message is such a sketch: it must not be
// robust because the server never learns x.
func (fe *FuzzyExtractor) SketchOnly(x numberline.Vector) (*sketch.Sketch, error) {
	movements, err := fe.SketchOnlyInto(nil, x)
	if err != nil {
		return nil, err
	}
	return &sketch.Sketch{Movements: movements}, nil
}

// SketchOnlyInto is SketchOnly writing the probe's movements into dst's
// capacity; it returns them, and allocates only when dst is shorter than x.
func (fe *FuzzyExtractor) SketchOnlyInto(dst []int64, x numberline.Vector) ([]int64, error) {
	if err := fe.checkDimension(len(x)); err != nil {
		return nil, err
	}
	return fe.robust.Inner().SketchInto(dst, x)
}

func (fe *FuzzyExtractor) checkDimension(n int) error {
	if fe.params.Dimension != 0 && n != fe.params.Dimension {
		return fmt.Errorf("%w: got %d, want %d", ErrDimension, n, fe.params.Dimension)
	}
	return nil
}

// Rep's recovered x and the extractor input of Gen and Rep are 40 KB each
// at n = 5000 and die with the call: neither is handed on (Extractor.Extract
// must not retain its input). Both are recycled, and cleared first because
// they hold the biometric.
var (
	recovered = sync.Pool{New: func() any { return new(numberline.Vector) }}
	encoded   = sync.Pool{New: func() any { return new([]byte) }}
)

func putCleared[S ~[]E, E any](p *sync.Pool, buf *S) {
	clear(*buf)
	p.Put(buf)
}

// extract runs the extractor on the canonical encoding of x.
func (fe *FuzzyExtractor) extract(seed []byte, x numberline.Vector) ([]byte, error) {
	bp := encoded.Get().(*[]byte)
	defer putCleared(&encoded, bp)
	*bp = encodeVector((*bp)[:0], x)
	return fe.ext.Extract(seed, *bp, fe.keyLen)
}

// encodeVector renders a vector into canonical bytes for extraction:
// length-prefixed big-endian int64s, written into dst's capacity.
func encodeVector(dst []byte, x numberline.Vector) []byte {
	buf := slices.Grow(dst[:0], 8*(1+len(x)))[:8*(1+len(x))]
	binary.BigEndian.PutUint64(buf, uint64(len(x)))
	for i, xi := range x {
		binary.BigEndian.PutUint64(buf[8*(i+1):], uint64(xi))
	}
	return buf
}
