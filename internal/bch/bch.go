// Package bch implements binary primitive BCH codes over GF(2^m) with
// systematic encoding and syndrome decoding (Berlekamp–Massey + Chien
// search). A BCH(n = 2^m - 1, k, t) code corrects up to t bit errors.
//
// Within this repository the codec backs the Hamming-metric code-offset
// secure sketch (Juels–Wattenberg style), which DESIGN.md uses as the
// comparator baseline for the paper's Chebyshev-metric construction.
package bch

import (
	"errors"
	"fmt"

	"fuzzyid/internal/gf"
)

// Errors returned by the codec.
var (
	ErrBadT          = errors.New("bch: correction capacity t must be >= 1")
	ErrRateTooLow    = errors.New("bch: no message bits left for these parameters")
	ErrLength        = errors.New("bch: input has wrong length")
	ErrUncorrectable = errors.New("bch: error pattern exceeds correction capacity")
)

// Bits is an unpacked bit string; every element must be 0 or 1.
type Bits []byte

// Clone returns an independent copy of b.
func (b Bits) Clone() Bits {
	if b == nil {
		return nil
	}
	out := make(Bits, len(b))
	copy(out, b)
	return out
}

// Weight returns the Hamming weight of b.
func (b Bits) Weight() int {
	w := 0
	for _, bit := range b {
		if bit != 0 {
			w++
		}
	}
	return w
}

// Xor returns the coordinate-wise XOR of b and o; the inputs must have equal
// length.
func (b Bits) Xor(o Bits) (Bits, error) {
	if len(b) != len(o) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLength, len(b), len(o))
	}
	out := make(Bits, len(b))
	for i := range b {
		out[i] = (b[i] ^ o[i]) & 1
	}
	return out, nil
}

// Code is a binary primitive BCH code of length n = 2^m - 1.
type Code struct {
	field *gf.Field
	n     int  // code length 2^m - 1
	k     int  // message length
	t     int  // designed correction capacity
	gen   Bits // generator polynomial over GF(2), degree n-k, gen[i] = coeff of x^i
}

// New constructs the binary BCH code of length 2^m - 1 correcting t errors.
// The generator polynomial is the least common multiple of the minimal
// polynomials of alpha^1 ... alpha^2t.
func New(m uint, t int) (*Code, error) {
	if t < 1 {
		return nil, ErrBadT
	}
	field, err := gf.New(m)
	if err != nil {
		return nil, err
	}
	n := int(field.N())
	gen := multiplyMinimalPolynomials(field, t)
	deg := polyDegBits(gen)
	k := n - deg
	if k <= 0 {
		return nil, fmt.Errorf("%w: m=%d t=%d leaves k=%d", ErrRateTooLow, m, t, k)
	}
	return &Code{field: field, n: n, k: k, t: t, gen: gen}, nil
}

// MustNew is New for compile-time-constant parameters; it panics on error.
func MustNew(m uint, t int) *Code {
	c, err := New(m, t)
	if err != nil {
		panic(fmt.Sprintf("bch.MustNew(%d, %d): %v", m, t, err))
	}
	return c
}

// N returns the codeword length in bits.
func (c *Code) N() int { return c.n }

// K returns the message length in bits.
func (c *Code) K() int { return c.k }

// T returns the designed error-correction capacity in bits.
func (c *Code) T() int { return c.t }

// Encode systematically encodes a k-bit message into an n-bit codeword.
// Layout: codeword[0 : n-k] holds the parity bits, codeword[n-k : n] holds
// the message verbatim.
func (c *Code) Encode(msg Bits) (Bits, error) {
	if len(msg) != c.k {
		return nil, fmt.Errorf("%w: message is %d bits, want %d", ErrLength, len(msg), c.k)
	}
	nk := c.n - c.k
	// Dividend: x^(n-k) * m(x).
	dividend := make(Bits, c.n)
	for i, b := range msg {
		dividend[nk+i] = b & 1
	}
	parity := polyModBits(dividend, c.gen)
	cw := make(Bits, c.n)
	copy(cw, parity)
	copy(cw[nk:], dividend[nk:])
	return cw, nil
}

// IsCodeword reports whether the n-bit word has all-zero syndromes.
func (c *Code) IsCodeword(word Bits) (bool, error) {
	if len(word) != c.n {
		return false, fmt.Errorf("%w: word is %d bits, want %d", ErrLength, len(word), c.n)
	}
	syn, zero := c.syndromes(word)
	_ = syn
	return zero, nil
}

// Decode corrects up to t bit errors in the received n-bit word. It returns
// the corrected codeword, the extracted k-bit message and the number of bits
// corrected. If the error pattern is beyond the correction capacity it
// returns ErrUncorrectable.
func (c *Code) Decode(received Bits) (codeword, msg Bits, corrected int, err error) {
	if len(received) != c.n {
		return nil, nil, 0, fmt.Errorf("%w: received %d bits, want %d", ErrLength, len(received), c.n)
	}
	word := received.Clone()
	for i := range word {
		word[i] &= 1
	}
	syn, zero := c.syndromes(word)
	if !zero {
		locator := c.field.BerlekampMassey(syn)
		degree := gf.PolyDeg(locator)
		if degree < 0 || degree > c.t {
			return nil, nil, 0, ErrUncorrectable
		}
		positions, ok := c.chienSearch(locator, degree)
		if !ok {
			return nil, nil, 0, ErrUncorrectable
		}
		for _, p := range positions {
			word[p] ^= 1
		}
		corrected = len(positions)
		// Re-verify: a miscorrection beyond capacity must not escape.
		if _, z := c.syndromes(word); !z {
			return nil, nil, 0, ErrUncorrectable
		}
	}
	msg = make(Bits, c.k)
	copy(msg, word[c.n-c.k:])
	return word, msg, corrected, nil
}

// syndromes evaluates the received polynomial at alpha^1 .. alpha^2t and
// reports whether all syndromes are zero.
func (c *Code) syndromes(word Bits) ([]gf.Elem, bool) {
	syn := make([]gf.Elem, 2*c.t)
	zero := true
	for j := 0; j < 2*c.t; j++ {
		var s gf.Elem
		for i, bit := range word {
			if bit != 0 {
				s ^= c.field.Alpha((j + 1) * i)
			}
		}
		syn[j] = s
		if s != 0 {
			zero = false
		}
	}
	return syn, zero
}

// chienSearch finds the error positions: i is an error location iff
// sigma(alpha^{-i}) = 0. It returns ok = false when the number of distinct
// roots does not match the locator degree (uncorrectable pattern).
func (c *Code) chienSearch(sigma []gf.Elem, degree int) ([]int, bool) {
	f := c.field
	var positions []int
	for i := 0; i < c.n; i++ {
		if f.PolyEval(sigma, f.Alpha(-i)) == 0 {
			positions = append(positions, i)
			if len(positions) > degree {
				return nil, false
			}
		}
	}
	if len(positions) != degree {
		return nil, false
	}
	return positions, true
}

// multiplyMinimalPolynomials computes the generator polynomial as the LCM of
// the minimal polynomials of alpha^1 .. alpha^2t (product over distinct
// cyclotomic cosets).
func multiplyMinimalPolynomials(field *gf.Field, t int) Bits {
	n := int(field.N())
	seen := make(map[int]bool, n)
	gen := Bits{1}
	for i := 1; i <= 2*t; i++ {
		c := i % n
		if seen[c] {
			continue
		}
		// Mark the whole cyclotomic coset of i.
		for x := c; !seen[x]; x = (x * 2) % n {
			seen[x] = true
		}
		packed := field.MinPolynomial(i)
		minPoly := unpackBits(packed)
		gen = polyMulBits(gen, minPoly)
	}
	return gen
}

func unpackBits(p uint64) Bits {
	var out Bits
	for j := 0; j < 64; j++ {
		if p&(1<<uint(j)) != 0 {
			for len(out) <= j {
				out = append(out, 0)
			}
			out[j] = 1
		}
	}
	return out
}

func polyMulBits(a, b Bits) Bits {
	out := make(Bits, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] ^= bj
		}
	}
	return out
}

// polyModBits returns dividend mod divisor over GF(2); the divisor must be
// non-zero. The result has len(divisor)-1 coefficients.
func polyModBits(dividend, divisor Bits) Bits {
	rem := dividend.Clone()
	dd := polyDegBits(divisor)
	for i := len(rem) - 1; i >= dd; i-- {
		if rem[i] == 0 {
			continue
		}
		for j := 0; j <= dd; j++ {
			rem[i-dd+j] ^= divisor[j]
		}
	}
	out := make(Bits, dd)
	copy(out, rem[:dd])
	return out
}

func polyDegBits(p Bits) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}
