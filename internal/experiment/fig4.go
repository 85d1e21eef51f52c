package experiment

import (
	"fmt"

	"fuzzyid/internal/stats"
)

// Fig4 reproduces Figure 4: identification latency as a function of the
// number of enrolled users N, for
//
//   - the proposed protocol over the scan store (constant crypto cost: one
//     sketch search + one Rep + one signature; the search is linear with a
//     tiny constant), and
//   - the normal approach of Fig. 2 (one Rep attempt per enrolled user).
//
// The paper reports ~110 ms constant for the proposed protocol vs a line
// that grows linearly for the normal approach. The shape to reproduce:
// proposed ≈ flat (growth ratio ~1 over the N range) and close to the
// verification latency; normal ≈ linear (growth ratio ≈ N_max/N_min).
func Fig4(cfg Config) (*Table, error) {
	sizes := []int{100, 200, 400, 800, 1600}
	dim := 1000
	runs := 5
	if cfg.Quick {
		sizes = []int{25, 50, 100}
		dim = 128
		runs = 2
	}
	tbl := &Table{
		ID:    "fig4",
		Title: "Identification latency vs database size N (paper Fig. 4)",
		Header: []string{
			"N", "proposed/scan ms", "normal ms",
		},
	}

	type series struct {
		name string
		xs   []float64
		ys   []float64
	}
	proposed := &series{name: "proposed/scan"}
	normal := &series{name: "normal"}

	for _, n := range sizes {
		msProposed, err := measureIdentify(cfg, dim, n, runs, false)
		if err != nil {
			return nil, fmt.Errorf("N=%d proposed: %w", n, err)
		}
		msNormal, err := measureIdentify(cfg, dim, n, runs, true)
		if err != nil {
			return nil, fmt.Errorf("N=%d normal: %w", n, err)
		}
		tbl.AddRow(n, msProposed, msNormal)
		x := float64(n)
		proposed.xs, proposed.ys = append(proposed.xs, x), append(proposed.ys, msProposed)
		normal.xs, normal.ys = append(normal.xs, x), append(normal.ys, msNormal)
	}

	xMin, xMax := float64(sizes[0]), float64(sizes[len(sizes)-1])
	for _, s := range []*series{proposed, normal} {
		fit, err := stats.LinearFit(s.xs, s.ys)
		if err != nil {
			return nil, err
		}
		tbl.AddNote("%s: slope %.4f ms/user, growth over range %.2fx (R2=%.3f)",
			s.name, fit.Slope, fit.GrowthRatio(xMin, xMax), fit.R2)
	}
	tbl.AddNote("paper shape: proposed constant (~110 ms Python), normal linear in N. " +
		"Growth ratio near 1 for proposed and near N_max/N_min for normal reproduces it.")
	return tbl, nil
}

// measureIdentify builds a fresh environment with N enrolled users and
// measures the mean identification latency for genuine probes. One untimed
// identification runs first, so the process's one-time warm-up does not
// land in whichever cell happens to be measured first.
func measureIdentify(cfg Config, dim, n, runs int, normal bool) (float64, error) {
	e, err := newEnv(dim, cfg.Seed+int64(n))
	if err != nil {
		return 0, err
	}
	defer e.stop()
	users, err := e.enrollPopulation(n)
	if err != nil {
		return 0, err
	}
	i := 0
	identify := func() error {
		u := users[(i*7919)%len(users)] // spread probes across the population
		i++
		reading, err := e.src.GenuineReading(u)
		if err != nil {
			return err
		}
		var id string
		if normal {
			id, err = e.client.IdentifyNormal(reading)
		} else {
			id, err = e.client.Identify(reading)
		}
		if err != nil {
			return err
		}
		if id != u.ID {
			return fmt.Errorf("identified %q, want %q", id, u.ID)
		}
		return nil
	}
	if err := identify(); err != nil {
		return 0, err
	}
	return timeIt(runs, identify)
}
