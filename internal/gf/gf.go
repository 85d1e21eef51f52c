// Package gf implements arithmetic in the binary extension fields GF(2^m)
// for 2 <= m <= 16, using log/antilog tables over a primitive polynomial.
// It is the substrate for the BCH codec in internal/bch, which in turn backs
// the Hamming-metric code-offset fuzzy extractor used as a comparator
// against the paper's Chebyshev construction (DESIGN.md §2).
package gf

import (
	"errors"
	"fmt"
)

// Errors returned by field construction and arithmetic.
var (
	ErrBadExtension  = errors.New("gf: extension degree m must be in [2, 16]")
	ErrDivideByZero  = errors.New("gf: division by zero")
	ErrNotPrimitive  = errors.New("gf: polynomial is not primitive")
	ErrElementRange  = errors.New("gf: element outside field")
	ErrNoSuchLog     = errors.New("gf: logarithm of zero is undefined")
	ErrInverseOfZero = errors.New("gf: zero has no multiplicative inverse")
)

// defaultPrimitive maps extension degree m to a primitive polynomial over
// GF(2), written with the x^m term included (bit m set). These are the
// conventional polynomials used by CCITT/BCH standards.
var defaultPrimitive = map[uint]uint32{
	2:  0x7,     // x^2 + x + 1
	3:  0xb,     // x^3 + x + 1
	4:  0x13,    // x^4 + x + 1
	5:  0x25,    // x^5 + x^2 + 1
	6:  0x43,    // x^6 + x + 1
	7:  0x89,    // x^7 + x^3 + 1
	8:  0x11d,   // x^8 + x^4 + x^3 + x^2 + 1
	9:  0x211,   // x^9 + x^4 + 1
	10: 0x409,   // x^10 + x^3 + 1
	11: 0x805,   // x^11 + x^2 + 1
	12: 0x1053,  // x^12 + x^6 + x^4 + x + 1
	13: 0x201b,  // x^13 + x^4 + x^3 + x + 1
	14: 0x4443,  // x^14 + x^10 + x^6 + x + 1
	15: 0x8003,  // x^15 + x + 1
	16: 0x1100b, // x^16 + x^12 + x^3 + x + 1
}

// Elem is an element of GF(2^m), represented as a polynomial over GF(2) with
// coefficients packed into the low m bits.
type Elem = uint32

// Field is a finite field GF(2^m). The zero value is not usable; construct
// with New or NewWithPolynomial.
type Field struct {
	m     uint
	size  uint32 // 2^m
	mask  uint32 // 2^m - 1, also the number of non-zero elements
	exp   []Elem // exp[i] = alpha^i for i in [0, 2^m-2], doubled for overflow-free mul
	log   []int  // log[e] = i with alpha^i = e; log[0] unused
	cache map[uint]struct{}
}

// New constructs GF(2^m) with the conventional primitive polynomial.
func New(m uint) (*Field, error) {
	p, ok := defaultPrimitive[m]
	if !ok {
		return nil, ErrBadExtension
	}
	return NewWithPolynomial(m, p)
}

// MustNew is New for a compile-time-constant extension degree; it panics on
// error.
func MustNew(m uint) *Field {
	f, err := New(m)
	if err != nil {
		panic(fmt.Sprintf("gf.MustNew(%d): %v", m, err))
	}
	return f
}

// NewWithPolynomial constructs GF(2^m) using the given primitive polynomial
// (with bit m set). It returns ErrNotPrimitive if the polynomial does not
// generate the full multiplicative group.
func NewWithPolynomial(m uint, poly uint32) (*Field, error) {
	if m < 2 || m > 16 {
		return nil, ErrBadExtension
	}
	if poly>>m != 1 {
		return nil, fmt.Errorf("gf: polynomial %#x does not have degree %d", poly, m)
	}
	size := uint32(1) << m
	mask := size - 1
	f := &Field{
		m:    m,
		size: size,
		mask: mask,
		exp:  make([]Elem, 2*int(mask)),
		log:  make([]int, size),
	}
	x := Elem(1)
	for i := 0; i < int(mask); i++ {
		f.exp[i] = x
		if x == 1 && i > 0 {
			return nil, ErrNotPrimitive
		}
		f.log[x] = i
		// Multiply by alpha (x) and reduce.
		x <<= 1
		if x&size != 0 {
			x ^= poly
		}
	}
	if x != 1 {
		return nil, ErrNotPrimitive
	}
	copy(f.exp[mask:], f.exp[:mask])
	return f, nil
}

// M returns the extension degree m.
func (f *Field) M() uint { return f.m }

// Size returns 2^m, the number of field elements.
func (f *Field) Size() uint32 { return f.size }

// N returns 2^m - 1, the order of the multiplicative group (and the natural
// BCH code length).
func (f *Field) N() uint32 { return f.mask }

// Contains reports whether e is a valid element of the field.
func (f *Field) Contains(e Elem) bool { return e < f.size }

// Add returns a + b (= a - b in characteristic 2).
func (f *Field) Add(a, b Elem) Elem { return a ^ b }

// Mul returns a * b.
func (f *Field) Mul(a, b Elem) Elem {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Div returns a / b, or an error if b is zero.
func (f *Field) Div(a, b Elem) (Elem, error) {
	if b == 0 {
		return 0, ErrDivideByZero
	}
	if a == 0 {
		return 0, nil
	}
	d := f.log[a] - f.log[b]
	if d < 0 {
		d += int(f.mask)
	}
	return f.exp[d], nil
}

// Inv returns the multiplicative inverse of a, or an error for a = 0.
func (f *Field) Inv(a Elem) (Elem, error) {
	if a == 0 {
		return 0, ErrInverseOfZero
	}
	if a == 1 {
		return 1, nil
	}
	return f.exp[int(f.mask)-f.log[a]], nil
}

// Pow returns a^e. 0^0 is defined as 1.
func (f *Field) Pow(a Elem, e int) Elem {
	if a == 0 {
		if e == 0 {
			return 1
		}
		return 0
	}
	le := (f.log[a] * (e % int(f.mask))) % int(f.mask)
	if le < 0 {
		le += int(f.mask)
	}
	return f.exp[le]
}

// Alpha returns alpha^i, the i-th power of the primitive element.
func (f *Field) Alpha(i int) Elem {
	i %= int(f.mask)
	if i < 0 {
		i += int(f.mask)
	}
	return f.exp[i]
}

// Log returns the discrete logarithm of a to base alpha.
func (f *Field) Log(a Elem) (int, error) {
	if a == 0 {
		return 0, ErrNoSuchLog
	}
	return f.log[a], nil
}

// PolyEval evaluates the polynomial with coefficients coeffs (coeffs[i] is
// the coefficient of x^i) at the point x, using Horner's rule.
func (f *Field) PolyEval(coeffs []Elem, x Elem) Elem {
	var acc Elem
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = f.Mul(acc, x) ^ coeffs[i]
	}
	return acc
}

// PolyMul multiplies two polynomials over the field.
func (f *Field) PolyMul(a, b []Elem) []Elem {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]Elem, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] ^= f.Mul(ai, bj)
		}
	}
	return out
}

// PolyDeg returns the degree of the polynomial, or -1 for the zero
// polynomial.
func PolyDeg(p []Elem) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// MinPolynomial returns the minimal polynomial over GF(2) of alpha^i as a
// bit-packed GF(2) polynomial (bit j = coefficient of x^j). It is computed
// as the product of (x - alpha^(i*2^j)) over the cyclotomic coset of i.
func (f *Field) MinPolynomial(i int) uint64 {
	n := int(f.mask)
	i = ((i % n) + n) % n
	// Collect the cyclotomic coset of i modulo 2^m - 1.
	coset := []int{}
	seen := map[int]bool{}
	for c := i; !seen[c]; c = (c * 2) % n {
		seen[c] = true
		coset = append(coset, c)
	}
	// Multiply (x + alpha^c) for c in coset, over GF(2^m).
	poly := []Elem{1} // constant 1
	for _, c := range coset {
		poly = f.PolyMul(poly, []Elem{f.Alpha(c), 1})
	}
	// All coefficients must now be 0 or 1 (the polynomial is over GF(2)).
	var packed uint64
	for j, coeff := range poly {
		switch coeff {
		case 0:
		case 1:
			packed |= 1 << uint(j)
		default:
			// By Galois theory this cannot happen for a correct coset.
			panic(fmt.Sprintf("gf: minimal polynomial of alpha^%d has non-binary coefficient %#x", i, coeff))
		}
	}
	return packed
}
