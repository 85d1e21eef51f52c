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

// Accuracy sweeps the capture-noise level across the acceptance threshold t
// and reports the false-reject rate (FRR) of the end-to-end identification
// pipeline, plus the false-accept rate (FAR) for impostor probes. §III/§VI-B
// discuss how recognition accuracy drives biometric decisions; this
// experiment quantifies the construction's sharp threshold: noise <= t is
// always accepted (FRR 0 by Theorem 1), and FRR rises steeply once the
// per-coordinate noise bound crosses t, with the probability any coordinate
// exceeds t given by 1 - (t'/(noise))^... (we report the measured curve and
// the analytic acceptance probability (2t+1 clipped)/(2*noise+1) per
// coordinate to the n-th power).
func Accuracy(cfg Config) (*Table, error) {
	dim := 128
	users := 40
	probesPerLevel := 200
	impostorProbes := 400
	if cfg.Quick {
		dim, users, probesPerLevel, impostorProbes = 64, 10, 40, 80
	}
	fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: dim})
	if err != nil {
		return nil, err
	}
	line := fe.Line()
	src, err := biometric.NewSource(line, biometric.Paper(dim), cfg.Seed)
	if err != nil {
		return nil, err
	}
	db := store.NewScan(line)
	population := src.Population(users)
	for _, u := range population {
		_, helper, err := fe.Gen(u.Template)
		if err != nil {
			return nil, err
		}
		if err := db.Insert(&store.Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}); err != nil {
			return nil, err
		}
	}

	tbl := &Table{
		ID:     "accuracy",
		Title:  "End-to-end accuracy vs capture noise (sharp threshold of Theorem 1)",
		Header: []string{"noise / t", "measured FRR", "analytic FRR", "probes"},
	}
	t := line.Threshold()
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0, 1.05, 1.2, 1.5, 2.0} {
		noise := int64(math.Round(frac * float64(t)))
		rejected := 0
		for i := 0; i < probesPerLevel; i++ {
			u := population[i%len(population)]
			reading, err := src.ReadingWithNoise(u, noise)
			if err != nil {
				return nil, err
			}
			probe, err := fe.SketchOnly(reading)
			if err != nil {
				return nil, err
			}
			rec, err := db.Identify(probe)
			if err != nil {
				if errors.Is(err, store.ErrNotFound) {
					rejected++
					continue
				}
				return nil, err
			}
			if rec.ID != u.ID {
				return nil, fmt.Errorf("noise %d: misidentified %s as %s", noise, u.ID, rec.ID)
			}
		}
		measured := float64(rejected) / float64(probesPerLevel)
		tbl.AddRow(frac, measured, analyticFRR(noise, t, dim), probesPerLevel)
		if noise <= t && rejected != 0 {
			return nil, fmt.Errorf("noise %d <= t yet %d rejects (Theorem 1 violated)", noise, rejected)
		}
	}

	// FAR: impostor probes against the whole population.
	accepted := 0
	for i := 0; i < impostorProbes; i++ {
		probe, err := fe.SketchOnly(src.ImpostorReading())
		if err != nil {
			return nil, err
		}
		if _, err := db.Identify(probe); err == nil {
			accepted++
		}
	}
	tbl.AddRow("impostor", float64(accepted)/float64(impostorProbes), 0.0, impostorProbes)
	tbl.AddNote("FRR is exactly 0 for noise <= t (Theorem 1) and follows 1-((2t+1)/(2*noise+1))^n beyond; " +
		"FAR is 0 at working dimensions (§V bound).")
	if accepted != 0 {
		tbl.AddNote("WARNING: %d impostor probes accepted", accepted)
	}
	return tbl, nil
}

// analyticFRR returns 1 - P[all n coordinates within t] for uniform noise
// in [-noise, noise].
func analyticFRR(noise, t int64, n int) float64 {
	if noise <= t {
		return 0
	}
	perCoord := float64(2*t+1) / float64(2*noise+1)
	return 1 - math.Pow(perCoord, float64(n))
}
