package experiment

import (
	"errors"
	"fmt"
	"math"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/store"
)

// OpenSet measures open-set identification: probes from people who were
// never enrolled must be rejected by the whole population. Per §V the
// probability that one unrelated probe satisfies the match conditions
// against one enrolled sketch is at most p = ((2t+1)/ka)^n, so against a
// population of N templates the false-accept probability per ghost probe is
// bounded by 1-(1-p)^N (union over independent templates). We measure the
// empirical rate at small n where it is observable, then enroll a
// population at the working scale (N = 100,000 full-size) and confirm by
// sampling that every ghost probe is rejected and every genuine probe still
// resolves to its owner (§VII evaluates the same closed/open split on
// simulated data).
func OpenSet(cfg Config) (*Table, error) {
	smallDims := []int{8, 12, 16, 20}
	smallPop := 1000
	smallProbes := 5000
	bigDim := 64
	bigPop := 100000
	ghostProbes := 2000
	genuineProbes := 500
	if cfg.Quick {
		smallDims = []int{8, 12}
		smallPop = 200
		smallProbes = 1000
		bigPop = 2000
		ghostProbes = 200
		genuineProbes = 50
	}

	tbl := &Table{
		ID:     "openset",
		Title:  "Open-set identification: ghost false-accept rate vs population bound 1-(1-p)^N, p=((2t+1)/ka)^n (§V)",
		Header: []string{"n", "N", "empirical Pr[accept]", "bound 1-(1-p)^N", "probes"},
	}

	// Small dimensions: the per-probe false-accept rate is observable, so
	// the population bound can be checked empirically.
	for _, n := range smallDims {
		empirical, bound, err := openSetRate(cfg, n, smallPop, smallProbes)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(n, smallPop, empirical, bound, smallProbes)
		if empirical > bound*1.10+3/float64(smallProbes) {
			return nil, fmt.Errorf("openset n=%d: empirical rate %v exceeds bound %v", n, empirical, bound)
		}
	}

	// Working scale: population of bigPop, sampled ghost and genuine
	// probes. The bound is astronomically small, so a single false accept
	// fails the experiment; genuine probes must keep resolving correctly
	// (Theorem 1 is population-independent).
	fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: bigDim})
	if err != nil {
		return nil, err
	}
	line := fe.Line()
	src, err := biometric.NewSource(line, biometric.Paper(bigDim), cfg.Seed)
	if err != nil {
		return nil, err
	}
	db := store.NewScan(line)
	population := src.Population(bigPop)
	for _, u := range population {
		_, helper, err := fe.Gen(u.Template)
		if err != nil {
			return nil, err
		}
		if err := db.Insert(&store.Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}); err != nil {
			return nil, err
		}
	}
	falseAccepts := 0
	for i := 0; i < ghostProbes; i++ {
		probe, err := fe.SketchOnly(src.ImpostorReading())
		if err != nil {
			return nil, err
		}
		if _, err := db.Identify(probe); err == nil {
			falseAccepts++
		} else if !errors.Is(err, store.ErrNotFound) {
			return nil, err
		}
	}
	perCoord := float64(2*line.Threshold()+1) / float64(line.IntervalSpan())
	p := math.Pow(perCoord, float64(bigDim))
	bigBound := 1 - math.Pow(1-p, float64(bigPop))
	tbl.AddRow(bigDim, bigPop, float64(falseAccepts)/float64(ghostProbes), bigBound, ghostProbes)
	if falseAccepts != 0 {
		return nil, fmt.Errorf("openset: %d ghost probes accepted at n=%d, N=%d", falseAccepts, bigDim, bigPop)
	}
	for i := 0; i < genuineProbes; i++ {
		u := population[(i*7919)%len(population)]
		reading, err := src.GenuineReading(u)
		if err != nil {
			return nil, err
		}
		probe, err := fe.SketchOnly(reading)
		if err != nil {
			return nil, err
		}
		rec, err := db.Identify(probe)
		if err != nil {
			return nil, fmt.Errorf("openset: genuine probe for %s rejected: %w", u.ID, err)
		}
		if rec.ID != u.ID {
			return nil, fmt.Errorf("openset: genuine probe for %s resolved to %s", u.ID, rec.ID)
		}
	}

	tbl.AddNote("per-probe factor p = ((2t+1)/ka)^n; a population of N multiplies exposure to 1-(1-p)^N ~= N*p.")
	tbl.AddNote("at n=%d, N=%d the bound is 2^%.0f: no ghost accept is observable, and all %d sampled genuine probes resolved.",
		bigDim, bigPop, math.Log2(float64(bigPop))+float64(bigDim)*math.Log2(perCoord), genuineProbes)
	return tbl, nil
}

// openSetRate enrolls pop sketches at dimension n and measures the fraction
// of ghost probes accepted by any of them, returning the empirical rate and
// the analytic population bound.
func openSetRate(cfg Config, n, pop, probes int) (empirical, bound float64, err error) {
	fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: n})
	if err != nil {
		return 0, 0, err
	}
	line := fe.Line()
	src, err := biometric.NewSource(line, biometric.Paper(n), cfg.Seed+int64(n))
	if err != nil {
		return 0, 0, err
	}
	db := store.NewScan(line)
	for _, u := range src.Population(pop) {
		_, helper, err := fe.Gen(u.Template)
		if err != nil {
			return 0, 0, err
		}
		if err := db.Insert(&store.Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}); err != nil {
			return 0, 0, err
		}
	}
	accepts := 0
	for i := 0; i < probes; i++ {
		probe, err := fe.SketchOnly(src.ImpostorReading())
		if err != nil {
			return 0, 0, err
		}
		if _, err := db.Identify(probe); err == nil {
			accepts++
		} else if !errors.Is(err, store.ErrNotFound) {
			return 0, 0, err
		}
	}
	perCoord := float64(2*line.Threshold()+1) / float64(line.IntervalSpan())
	p := math.Pow(perCoord, float64(n))
	return float64(accepts) / float64(probes), 1 - math.Pow(1-p, float64(pop)), nil
}
