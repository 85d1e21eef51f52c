package sketch

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"math/big"

	"fuzzyid/internal/gf"
)

// Fuzzy-vault errors.
var (
	ErrVaultParams   = errors.New("sketch: invalid fuzzy-vault parameters")
	ErrVaultSet      = errors.New("sketch: vault feature set invalid")
	ErrVaultNoUnlock = errors.New("sketch: could not unlock vault (insufficient overlap)")
)

// VaultPoint is one (x, y) point of a locked vault — either genuine
// (y = p(x)) or chaff.
type VaultPoint struct {
	X gf.Elem
	Y gf.Elem
}

// Vault is the public, locked state of the Juels–Sudan fuzzy vault (§VIII
// [17]): genuine evaluations of a secret polynomial hidden among chaff
// points, unlockable by any feature set with enough overlap.
type Vault struct {
	// Points holds genuine and chaff points in shuffled order.
	Points []VaultPoint
	// Check commits to the secret so unlocking can verify candidates.
	Check [sha256.Size]byte
}

// FuzzyVault locks secrets under *unordered feature sets* — the
// set-difference-metric construction of Juels and Sudan that the paper's
// related work (§VIII) builds on. A secret polynomial of degree k-1 over
// GF(2^m) is evaluated on the genuine features and buried in chaff;
// unlocking requires at least k overlapping features. Together with the
// code-offset sketch (Hamming) and PinSketch (set difference, syndrome
// form) this completes the classical-construction substrate the Chebyshev
// scheme is compared against.
type FuzzyVault struct {
	field  *gf.Field
	degree int // secret polynomial degree = SecretLen-1
	chaff  int
}

// NewFuzzyVault builds a vault over GF(2^m) with secrets of secretLen field
// elements (polynomial degree secretLen-1) and the given number of chaff
// points. Chaff and shuffles draw from crypto/rand.
func NewFuzzyVault(m uint, secretLen, chaff int) (*FuzzyVault, error) {
	if secretLen < 1 {
		return nil, fmt.Errorf("%w: secret length %d", ErrVaultParams, secretLen)
	}
	if chaff < 0 {
		return nil, fmt.Errorf("%w: chaff %d", ErrVaultParams, chaff)
	}
	field, err := gf.New(m)
	if err != nil {
		return nil, err
	}
	return &FuzzyVault{field: field, degree: secretLen - 1, chaff: chaff}, nil
}

// SecretLen returns the secret length in field elements.
func (v *FuzzyVault) SecretLen() int { return v.degree + 1 }

// MinOverlap returns the number of overlapping features required to unlock.
func (v *FuzzyVault) MinOverlap() int { return v.degree + 1 }

// Lock hides secret under the feature set. The set must contain at least
// SecretLen distinct non-zero elements; every secret element must be a
// valid field element.
func (v *FuzzyVault) Lock(features []gf.Elem, secret []gf.Elem) (*Vault, error) {
	if len(secret) != v.SecretLen() {
		return nil, fmt.Errorf("%w: secret has %d elements, want %d", ErrVaultParams, len(secret), v.SecretLen())
	}
	for _, s := range secret {
		if !v.field.Contains(s) {
			return nil, fmt.Errorf("%w: secret element %d", ErrVaultParams, s)
		}
	}
	if len(features) < v.MinOverlap() {
		return nil, fmt.Errorf("%w: %d features, need >= %d", ErrVaultSet, len(features), v.MinOverlap())
	}
	used := make(map[gf.Elem]struct{}, len(features)+v.chaff)
	for _, x := range features {
		if x == 0 || !v.field.Contains(x) {
			return nil, fmt.Errorf("%w: element %d", ErrVaultSet, x)
		}
		if _, ok := used[x]; ok {
			return nil, fmt.Errorf("%w: duplicate element %d", ErrVaultSet, x)
		}
		used[x] = struct{}{}
	}
	if int(v.field.N()) < len(features)+v.chaff {
		return nil, fmt.Errorf("%w: universe too small for %d features + %d chaff",
			ErrVaultParams, len(features), v.chaff)
	}
	points := make([]VaultPoint, 0, len(features)+v.chaff)
	for _, x := range features {
		points = append(points, VaultPoint{X: x, Y: v.field.PolyEval(secret, x)})
	}
	// Chaff: fresh x values with y deliberately off the polynomial, so a
	// chaff point can never masquerade as genuine.
	for len(points) < len(features)+v.chaff {
		x, err := v.randomElem()
		if err != nil {
			return nil, err
		}
		if x == 0 {
			continue
		}
		if _, ok := used[x]; ok {
			continue
		}
		used[x] = struct{}{}
		onPoly := v.field.PolyEval(secret, x)
		y, err := v.randomElem()
		if err != nil {
			return nil, err
		}
		if y == onPoly {
			y = onPoly ^ 1 // any value off the polynomial
		}
		points = append(points, VaultPoint{X: x, Y: y})
	}
	if err := v.shuffle(points); err != nil {
		return nil, err
	}
	return &Vault{Points: points, Check: checkDigest(secret)}, nil
}

// Unlock recovers the secret from a probe feature set that overlaps the
// locking set in at least SecretLen genuine elements. It interpolates
// candidate subsets of the matched points and verifies against the vault's
// commitment; with fewer overlapping features it fails with
// ErrVaultNoUnlock.
func (v *FuzzyVault) Unlock(features []gf.Elem, vault *Vault) ([]gf.Elem, error) {
	if vault == nil || len(vault.Points) == 0 {
		return nil, fmt.Errorf("%w: empty vault", ErrVaultParams)
	}
	index := make(map[gf.Elem]gf.Elem, len(vault.Points))
	for _, pt := range vault.Points {
		index[pt.X] = pt.Y
	}
	var xs, ys []gf.Elem
	seen := make(map[gf.Elem]struct{}, len(features))
	for _, x := range features {
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		if y, ok := index[x]; ok {
			xs = append(xs, x)
			ys = append(ys, y)
		}
	}
	k := v.SecretLen()
	if len(xs) < k {
		return nil, fmt.Errorf("%w: %d candidate points, need %d", ErrVaultNoUnlock, len(xs), k)
	}
	// Candidate subsets: a sliding window over the matched points followed
	// by bounded random subsets. With realistic chaff rates nearly all
	// candidates are genuine, so the first window almost always succeeds;
	// the random phase handles the occasional chaff hit.
	for start := 0; start+k <= len(xs); start++ {
		if secret, ok := v.tryDecode(xs[start:start+k], ys[start:start+k], vault.Check); ok {
			return secret, nil
		}
	}
	const randomAttempts = 64
	for attempt := 0; attempt < randomAttempts; attempt++ {
		subX, subY, err := v.randomSubset(xs, ys, k)
		if err != nil {
			return nil, err
		}
		if secret, ok := v.tryDecode(subX, subY, vault.Check); ok {
			return secret, nil
		}
	}
	return nil, ErrVaultNoUnlock
}

func (v *FuzzyVault) tryDecode(xs, ys []gf.Elem, check [sha256.Size]byte) ([]gf.Elem, bool) {
	secret, err := v.field.Interpolate(xs, ys)
	if err != nil {
		return nil, false
	}
	// Interpolate returns k coefficients; high coefficients may be zero.
	for len(secret) < v.SecretLen() {
		secret = append(secret, 0)
	}
	digest := checkDigest(secret)
	if subtle.ConstantTimeCompare(digest[:], check[:]) != 1 {
		return nil, false
	}
	return secret, true
}

func (v *FuzzyVault) randomElem() (gf.Elem, error) {
	max := big.NewInt(int64(v.field.Size()))
	n, err := cryptoInt(max)
	if err != nil {
		return 0, fmt.Errorf("sketch: vault randomness: %w", err)
	}
	return gf.Elem(n), nil
}

func (v *FuzzyVault) shuffle(points []VaultPoint) error {
	for i := len(points) - 1; i > 0; i-- {
		n, err := cryptoInt(big.NewInt(int64(i + 1)))
		if err != nil {
			return fmt.Errorf("sketch: vault shuffle: %w", err)
		}
		j := int(n)
		points[i], points[j] = points[j], points[i]
	}
	return nil
}

func (v *FuzzyVault) randomSubset(xs, ys []gf.Elem, k int) ([]gf.Elem, []gf.Elem, error) {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		n, err := cryptoInt(big.NewInt(int64(len(idx) - i)))
		if err != nil {
			return nil, nil, err
		}
		j := i + int(n)
		idx[i], idx[j] = idx[j], idx[i]
	}
	subX := make([]gf.Elem, k)
	subY := make([]gf.Elem, k)
	for i := 0; i < k; i++ {
		subX[i] = xs[idx[i]]
		subY[i] = ys[idx[i]]
	}
	return subX, subY, nil
}

func checkDigest(secret []gf.Elem) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte("fuzzyid-vault-check"))
	for _, s := range secret {
		h.Write([]byte{byte(s >> 24), byte(s >> 16), byte(s >> 8), byte(s)})
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// cryptoInt draws a uniform integer in [0, max) from crypto/rand.
func cryptoInt(max *big.Int) (int64, error) {
	n, err := rand.Int(rand.Reader, max)
	if err != nil {
		return 0, err
	}
	return n.Int64(), nil
}
