package experiment

import (
	"fmt"
	"math"
	"strconv"

	"fuzzyid/internal/entropy"
	"fuzzyid/internal/numberline"
)

// Reuse measures the reusability of the proposed sketch — the attack
// surface Boyen (CCS'04) raised and the paper's §VIII flags for fuzzy
// extractors in general: how much *additional* information a second,
// independently randomised sketch of the same biometric leaks. We enumerate
// the exact joint distribution of (X, S₁, S₂) on small lines (interior
// points sketch deterministically; boundary points flip an independent fair
// coin per enrollment) and compare H̃∞(X | S₁, S₂) with the single-sketch
// residual entropy log₂ v of Theorem 3.
//
// Expected outcome: equality. The movement is a deterministic function of
// the point except for the boundary coin, and the coin's outcome only
// reveals "x is a boundary point" — which the movement magnitude ka/2
// already reveals. The proposed construction therefore loses nothing under
// repeated enrollment of the same template (with respect to its own sketch
// distribution), unlike generic code-offset constructions with fresh
// codewords.
func Reuse(cfg Config) (*Table, error) {
	tbl := &Table{
		ID:     "reuse",
		Title:  "Sketch reusability: exact H̃∞(X | S1, S2) vs single-sketch Theorem 3 value",
		Header: []string{"line", "H~(X|S1)", "H~(X|S1,S2)", "theory log2(v)", "extra leakage bits"},
	}
	configs := []numberline.Params{
		{A: 1, K: 4, V: 8, T: 1},
		{A: 2, K: 4, V: 5, T: 3},
		{A: 3, K: 6, V: 7, T: 8},
	}
	if cfg.Quick {
		configs = configs[:2]
	}
	for _, p := range configs {
		line, err := numberline.New(p)
		if err != nil {
			return nil, err
		}
		single := entropy.NewJoint()
		double := entropy.NewJoint()
		px := 1 / float64(line.RingSize())
		for x := line.Min(); x <= line.Max(); x++ {
			xKey := strconv.FormatInt(x, 10)
			if line.IsBoundary(x) {
				_, mvL := line.NearestIdentifier(x, false)
				_, mvR := line.NearestIdentifier(x, true)
				single.Add(mvKey(mvL), xKey, px/2)
				single.Add(mvKey(mvR), xKey, px/2)
				// Two independent coins: four equally likely pairs.
				for _, m1 := range []int64{mvL, mvR} {
					for _, m2 := range []int64{mvL, mvR} {
						double.Add(mvKey(m1)+"|"+mvKey(m2), xKey, px/4)
					}
				}
				continue
			}
			_, mv := line.NearestIdentifier(x, false)
			single.Add(mvKey(mv), xKey, px)
			double.Add(mvKey(mv)+"|"+mvKey(mv), xKey, px)
		}
		h1, err := single.AverageMinEntropy()
		if err != nil {
			return nil, err
		}
		h2, err := double.AverageMinEntropy()
		if err != nil {
			return nil, err
		}
		theory := math.Log2(float64(p.V))
		leak := h1 - h2
		tbl.AddRow(p.String(), h1, h2, theory, leak)
		if math.Abs(h2-theory) > 1e-9 {
			return nil, fmt.Errorf("line %v: H~(X|S1,S2) = %v differs from log2(v) = %v", p, h2, theory)
		}
	}
	tbl.AddNote("a second enrollment sketch leaks zero additional bits: the movement is a deterministic " +
		"function of the point, and the boundary coin only re-reveals what |s| = ka/2 already said.")
	tbl.AddNote("contrast: a fresh-codeword code-offset sketch (the comparator table frozen in EXPERIMENTS.md) leaks anew per enrollment.")
	return tbl, nil
}

func mvKey(mv int64) string { return strconv.FormatInt(mv, 10) }
