package experiment

import (
	"fmt"
	"math"
	"math/rand"

	"fuzzyid/internal/core"
	"fuzzyid/internal/extract"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sigscheme"
)

// Ablate measures the design choices DESIGN.md calls out:
//
//   - interval shape k (§VII notes k=2 "cannot achieve constant
//     identification": the false-close factor (2t+1)/ka rises to ~1, so
//     sketch search stops discriminating);
//   - strong-extractor choice (Gen-side extraction latency);
//   - signature scheme (sign+verify latency, the constant crypto term of
//     the proposed protocol).
func Ablate(cfg Config) (*Table, error) {
	tbl := &Table{
		ID:     "ablate",
		Title:  "Design-choice ablations",
		Header: []string{"axis", "setting", "metric", "value"},
	}
	if err := ablateK(cfg, tbl); err != nil {
		return nil, err
	}
	if err := ablateExtractors(cfg, tbl); err != nil {
		return nil, err
	}
	if err := ablateSchemes(cfg, tbl); err != nil {
		return nil, err
	}
	tbl.AddNote("k=2 drives the per-coordinate false-close factor to ~1: sketch comparison stops " +
		"discriminating and identification degenerates to exhaustive search, as §VII warns.")
	return tbl, nil
}

// ablateK varies k while holding the interval span ka and threshold t
// fixed, reporting the per-coordinate false-close factor and the measured
// false-close rate at n=8.
func ablateK(cfg Config, tbl *Table) error {
	samples := 50000
	if cfg.Quick {
		samples = 5000
	}
	type kcase struct {
		p numberline.Params
	}
	cases := []kcase{
		{p: numberline.Params{A: 100, K: 2, V: 500, T: 99}}, // t must be < ka/2 = 100
		{p: numberline.Params{A: 100, K: 4, V: 500, T: 100}},
		{p: numberline.Params{A: 100, K: 6, V: 500, T: 100}},
		{p: numberline.Params{A: 100, K: 8, V: 500, T: 100}},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, c := range cases {
		line, err := numberline.New(c.p)
		if err != nil {
			return err
		}
		factor := float64(2*c.p.T+1) / float64(line.IntervalSpan())
		tbl.AddRow("interval shape", c.p.String(), "(2t+1)/ka", factor)
		matches := 0
		fe, err := core.New(core.Params{Line: c.p})
		if err != nil {
			return err
		}
		for i := 0; i < samples; i++ {
			x := uniformVector(rng, line, 8)
			y := uniformVector(rng, line, 8)
			sx, err := fe.SketchOnly(x)
			if err != nil {
				return err
			}
			sy, err := fe.SketchOnly(y)
			if err != nil {
				return err
			}
			ok, err := fe.Sketcher().Inner().Match(sx, sy)
			if err != nil {
				return err
			}
			if ok {
				matches++
			}
		}
		rate := float64(matches) / float64(samples)
		tbl.AddRow("interval shape", c.p.String(), "Pr[random sketch match] n=8", rate)
		expect := math.Pow(factor, 8)
		if rate > expect*1.2+5/float64(samples) {
			return fmt.Errorf("k=%d: rate %v above bound %v", c.p.K, rate, expect)
		}
	}
	return nil
}

// ablateExtractors times Gen with each strong extractor.
func ablateExtractors(cfg Config, tbl *Table) error {
	dim := 1000
	runs := 20
	if cfg.Quick {
		dim, runs = 128, 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, e := range extract.All() {
		fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: dim},
			core.WithExtractor(e))
		if err != nil {
			return err
		}
		x := uniformVector(rng, fe.Line(), dim)
		ms, err := timeIt(runs, func() error {
			_, _, err := fe.Gen(x)
			return err
		})
		if err != nil {
			return err
		}
		tbl.AddRow("strong extractor", e.Name(), fmt.Sprintf("Gen ms (n=%d)", dim), ms)
	}
	return nil
}

// ablateSchemes times key derivation + sign + verify for each signature
// scheme — the constant crypto cost of one identification.
func ablateSchemes(cfg Config, tbl *Table) error {
	runs := 50
	if cfg.Quick {
		runs = 10
	}
	seed := make([]byte, 32)
	for i := range seed {
		seed[i] = byte(i*17 + 3)
	}
	msg := sigscheme.ChallengeMessage([]byte("challenge"), []byte("nonce"))
	for _, s := range sigscheme.All() {
		ms, err := timeIt(runs, func() error {
			priv, pub, err := s.DeriveKeyPair(seed)
			if err != nil {
				return err
			}
			sig, err := s.Sign(priv, msg)
			if err != nil {
				return err
			}
			if !s.Verify(pub, msg, sig) {
				return fmt.Errorf("%s: verification failed", s.Name())
			}
			return nil
		})
		if err != nil {
			return err
		}
		tbl.AddRow("signature scheme", s.Name(), "keygen+sign+verify ms", ms)
	}
	return nil
}
