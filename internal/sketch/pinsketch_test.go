package sketch

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"fuzzyid/internal/gf"
)

func newPinSketch(t *testing.T, m uint, tol int) *PinSketch {
	t.Helper()
	p, err := NewPinSketch(m, tol)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randomSet draws a set of exactly size distinct non-zero elements.
func randomSet(rng *rand.Rand, universe uint32, size int) []gf.Elem {
	perm := rng.Perm(int(universe))
	set := make([]gf.Elem, size)
	for i := 0; i < size; i++ {
		set[i] = gf.Elem(perm[i] + 1) // non-zero
	}
	return set
}

// perturbSet removes `removals` elements and adds `additions` fresh ones.
func perturbSet(rng *rand.Rand, universe uint32, set []gf.Elem, removals, additions int) []gf.Elem {
	out := append([]gf.Elem(nil), set...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	out = out[:len(out)-removals]
	in := make(map[gf.Elem]struct{}, len(set))
	for _, x := range set {
		in[x] = struct{}{} // exclude removed elements too: re-adding one
		// would change the difference size
	}
	target := len(out) + additions
	for len(out) < target {
		x := gf.Elem(rng.Intn(int(universe)) + 1)
		if _, ok := in[x]; !ok {
			in[x] = struct{}{}
			out = append(out, x)
		}
	}
	return out
}

// differenceSize counts the elements in exactly one of the two sets.
func differenceSize(a, b []gf.Elem) int {
	in := make(map[gf.Elem]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	d := len(a) + len(b)
	for _, x := range b {
		if in[x] {
			d -= 2
		}
	}
	return d
}

func setsEqualSorted(a, b []gf.Elem) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]gf.Elem(nil), a...)
	bs := append([]gf.Elem(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestPinSketchConstruction(t *testing.T) {
	if _, err := NewPinSketch(8, 0); !errors.Is(err, ErrSetTooLarge) {
		t.Errorf("t=0 err = %v", err)
	}
	if _, err := NewPinSketch(1, 3); err == nil {
		t.Error("bad field degree accepted")
	}
	if _, err := NewPinSketch(3, 7); !errors.Is(err, ErrSetTooLarge) {
		t.Errorf("t >= universe err = %v", err)
	}
	p := newPinSketch(t, 8, 5)
	if p.T() != 5 || p.Universe() != 255 || p.SketchLen() != 10 {
		t.Errorf("(T, Universe, SketchLen) = (%d, %d, %d)", p.T(), p.Universe(), p.SketchLen())
	}
}

func TestPinSketchExactProbe(t *testing.T) {
	p := newPinSketch(t, 8, 4)
	rng := rand.New(rand.NewSource(81))
	w := randomSet(rng, p.Universe(), 20)
	s, err := p.Sketch(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Recover(w, s)
	if err != nil {
		t.Fatalf("Recover(exact): %v", err)
	}
	if !setsEqualSorted(got, w) {
		t.Fatal("exact probe did not recover the set")
	}
}

func TestPinSketchRecoversWithinCapacity(t *testing.T) {
	p := newPinSketch(t, 8, 5)
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 50; trial++ {
		w := randomSet(rng, p.Universe(), 25)
		s, err := p.Sketch(w)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d <= p.T(); d++ {
			removals := rng.Intn(d + 1)
			additions := d - removals
			probe := perturbSet(rng, p.Universe(), w, removals, additions)
			// Confirm the workload: symmetric difference is exactly d.
			if got := differenceSize(w, probe); got != d {
				t.Fatalf("test setup: set difference %d, want %d", got, d)
			}
			recovered, err := p.Recover(probe, s)
			if err != nil {
				t.Fatalf("Recover with |diff|=%d: %v", d, err)
			}
			if !setsEqualSorted(recovered, w) {
				t.Fatalf("wrong set recovered with |diff|=%d", d)
			}
		}
	}
}

func TestPinSketchRejectsBeyondCapacity(t *testing.T) {
	p := newPinSketch(t, 8, 3)
	rng := rand.New(rand.NewSource(83))
	rejectedOrWrong := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		w := randomSet(rng, p.Universe(), 20)
		s, err := p.Sketch(w)
		if err != nil {
			t.Fatal(err)
		}
		probe := perturbSet(rng, p.Universe(), w, 4, 4) // |diff| = 8 > 2t = 6
		got, err := p.Recover(probe, s)
		if err != nil {
			if !errors.Is(err, ErrNotClose) {
				t.Fatalf("unexpected error: %v", err)
			}
			rejectedOrWrong++
			continue
		}
		if !setsEqualSorted(got, w) {
			rejectedOrWrong++ // decoding to a different set is acceptable
		}
	}
	if rejectedOrWrong != trials {
		t.Errorf("beyond-capacity probe recovered the original in %d/%d trials",
			trials-rejectedOrWrong, trials)
	}
}

func TestPinSketchEmptyDifferenceBranches(t *testing.T) {
	p := newPinSketch(t, 6, 2)
	rng := rand.New(rand.NewSource(84))
	// Empty original set: all-zero sketch; probe with <= t elements is the
	// difference itself.
	s, err := p.Sketch(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Recover(nil, s)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty/empty = (%v, %v)", got, err)
	}
	w := randomSet(rng, p.Universe(), 2)
	got, err = p.Recover(w, s)
	if err != nil {
		t.Fatalf("Recover(probe, empty sketch): %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("recovered %v, want empty set", got)
	}
}

func TestPinSketchValidation(t *testing.T) {
	p := newPinSketch(t, 6, 2)
	if _, err := p.Sketch([]gf.Elem{0}); !errors.Is(err, ErrSetElement) {
		t.Errorf("zero element err = %v", err)
	}
	if _, err := p.Sketch([]gf.Elem{5, 5}); !errors.Is(err, ErrSetElement) {
		t.Errorf("duplicate err = %v", err)
	}
	if _, err := p.Sketch([]gf.Elem{1 << 10}); !errors.Is(err, ErrSetElement) {
		t.Errorf("out-of-universe err = %v", err)
	}
	if _, err := p.Recover([]gf.Elem{1}, []gf.Elem{0}); !errors.Is(err, ErrBadSyndromes) {
		t.Errorf("short sketch err = %v", err)
	}
}

func TestPinSketchLargeField(t *testing.T) {
	// m=12: 4095-element universe, realistic fuzzy-vault scale.
	p := newPinSketch(t, 12, 8)
	rng := rand.New(rand.NewSource(85))
	w := randomSet(rng, p.Universe(), 40)
	s, err := p.Sketch(w)
	if err != nil {
		t.Fatal(err)
	}
	probe := perturbSet(rng, p.Universe(), w, 4, 4)
	got, err := p.Recover(probe, s)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !setsEqualSorted(got, w) {
		t.Fatal("wrong set recovered")
	}
}
