// Package extract implements the strong randomness extractors used by the
// generic secure-sketch-to-fuzzy-extractor conversion of §II and §IV-C.
//
// A strong extractor Ext(x; r) maps a high-min-entropy input x and a public
// uniform seed r to an output that is statistically close to uniform even
// given r. Three constructions are provided:
//
//   - Hash: R = SHA-256(r || x), expanded in counter mode. This is the
//     construction the paper's implementation uses (Table II, "Random
//     Extractor: SHA256"), modelled as a random oracle.
//   - HMAC: R = HMAC-SHA256(r, x) with counter-mode expansion — the standard
//     computational extractor (HKDF-extract style).
//   - Toeplitz: a true 2-universal hash over GF(2) (leftover-hash-lemma
//     extractor). The seed must supply inBits + outBits - 1 bits; a shorter
//     seed is expanded with counter-mode SHA-256, which downgrades the
//     guarantee from information-theoretic to computational (documented).
package extract

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by the extractors.
var (
	ErrOutputLength = errors.New("extract: output length must be positive")
	ErrEmptyInput   = errors.New("extract: empty input")
	ErrEmptySeed    = errors.New("extract: empty seed")
)

// DefaultOutputLen is the default extracted-key length in bytes (256 bits,
// matching the SHA-256 extractor of Table II).
const DefaultOutputLen = 32

// Extractor is a strong randomness extractor.
type Extractor interface {
	// Name identifies the construction (stable; used in benchmarks and
	// experiment output).
	Name() string
	// Extract derives outLen bytes from input x under public seed r.
	// The same (seed, x, outLen) always yields the same output. Extract
	// must not retain x after it returns: core reuses that buffer for the
	// next call.
	Extract(seed, x []byte, outLen int) ([]byte, error)
}

// NewSeed returns n cryptographically random bytes for use as an extractor
// seed (the public value r in Gen).
func NewSeed(n int) ([]byte, error) {
	if n <= 0 {
		return nil, ErrOutputLength
	}
	seed := make([]byte, n)
	if _, err := rand.Read(seed); err != nil {
		return nil, fmt.Errorf("extract: read random seed: %w", err)
	}
	return seed, nil
}

// Hash is the SHA-256 random-oracle extractor of the paper's implementation.
type Hash struct{}

// Name implements Extractor.
func (Hash) Name() string { return "sha256" }

// Extract implements Extractor: counter-mode SHA-256 over (counter||seed||x).
func (Hash) Extract(seed, x []byte, outLen int) ([]byte, error) {
	if err := checkArgs(seed, x, outLen); err != nil {
		return nil, err
	}
	return counterExpand(outLen, func(ctr uint32) []byte {
		h := sha256.New()
		var c [4]byte
		binary.BigEndian.PutUint32(c[:], ctr)
		h.Write(c[:])
		h.Write(seed)
		h.Write(x)
		return h.Sum(nil)
	}), nil
}

// HMAC is the HMAC-SHA256 computational extractor.
type HMAC struct{}

// Name implements Extractor.
func (HMAC) Name() string { return "hmac-sha256" }

// Extract implements Extractor: HMAC(seed, counter||x) in counter mode.
func (HMAC) Extract(seed, x []byte, outLen int) ([]byte, error) {
	if err := checkArgs(seed, x, outLen); err != nil {
		return nil, err
	}
	return counterExpand(outLen, func(ctr uint32) []byte {
		mac := hmac.New(sha256.New, seed)
		var c [4]byte
		binary.BigEndian.PutUint32(c[:], ctr)
		mac.Write(c[:])
		mac.Write(x)
		return mac.Sum(nil)
	}), nil
}

// Toeplitz is the 2-universal-hash extractor: output bit i is the GF(2)
// inner product of the input bits with row i of a Toeplitz matrix whose
// diagonals are the seed bits. With a full-length truly random seed this is
// an information-theoretic strong extractor by the leftover hash lemma.
type Toeplitz struct{}

// Name implements Extractor.
func (Toeplitz) Name() string { return "toeplitz" }

// SeedBits returns the number of seed bits required for an information-
// theoretic extraction of outLen bytes from an input of inLen bytes.
func (Toeplitz) SeedBits(inLen, outLen int) int {
	return inLen*8 + outLen*8 - 1
}

// Extract implements Extractor. If the seed is shorter than
// SeedBits(len(x), outLen)/8 (rounded up) it is expanded with counter-mode
// SHA-256 first (computational security only).
func (Toeplitz) Extract(seed, x []byte, outLen int) ([]byte, error) {
	if err := checkArgs(seed, x, outLen); err != nil {
		return nil, err
	}
	needBits := len(x)*8 + outLen*8 - 1
	needBytes := (needBits + 7) / 8
	diag := seed
	if len(diag) < needBytes {
		diag = counterExpand(needBytes, func(ctr uint32) []byte {
			h := sha256.New()
			var c [4]byte
			binary.BigEndian.PutUint32(c[:], ctr)
			h.Write([]byte("toeplitz-seed-expand"))
			h.Write(c[:])
			h.Write(seed)
			return h.Sum(nil)
		})
	}
	inBits := len(x) * 8
	outBits := outLen * 8
	out := make([]byte, outLen)
	// Row i of the Toeplitz matrix is diag[i], diag[i+1], ..., read along
	// the anti-diagonal layout: entry (i, j) = diag bit (i + j).
	for i := 0; i < outBits; i++ {
		var bit byte
		for j := 0; j < inBits; j++ {
			xb := (x[j>>3] >> uint(7-j&7)) & 1
			if xb == 0 {
				continue
			}
			d := i + j
			bit ^= (diag[d>>3] >> uint(7-d&7)) & 1
		}
		if bit != 0 {
			out[i>>3] |= 1 << uint(7-i&7)
		}
	}
	return out, nil
}

// ByName returns the extractor registered under name, matching the values
// accepted by the CLI tools: "sha256", "hmac-sha256", "toeplitz".
func ByName(name string) (Extractor, error) {
	switch name {
	case "sha256":
		return Hash{}, nil
	case "hmac-sha256", "hmac":
		return HMAC{}, nil
	case "toeplitz":
		return Toeplitz{}, nil
	default:
		return nil, fmt.Errorf("extract: unknown extractor %q", name)
	}
}

// All returns every available extractor, for benchmark sweeps.
func All() []Extractor {
	return []Extractor{Hash{}, HMAC{}, Toeplitz{}}
}

func checkArgs(seed, x []byte, outLen int) error {
	if outLen <= 0 {
		return ErrOutputLength
	}
	if len(x) == 0 {
		return ErrEmptyInput
	}
	if len(seed) == 0 {
		return ErrEmptySeed
	}
	return nil
}

// counterExpand concatenates block(0), block(1), ... until outLen bytes are
// available.
func counterExpand(outLen int, block func(uint32) []byte) []byte {
	out := make([]byte, 0, outLen)
	for ctr := uint32(0); len(out) < outLen; ctr++ {
		out = append(out, block(ctr)...)
	}
	return out[:outLen]
}
