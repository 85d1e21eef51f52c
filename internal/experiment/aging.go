package experiment

import (
	"errors"
	"fmt"
	"math"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/protocol"
)

// Aging measures template aging and the re-enrollment lifecycle end to end:
// each user's biometric takes a bounded random walk away from the template
// it enrolled as (one step of +-s per coordinate per epoch), verification
// degrades as the walk accumulates, and an atomic re-enrollment (DESIGN.md
// §13) re-anchors the stored template at the current biometric, restoring
// the FRR-0 guarantee of Theorem 1. The analytic column is the exact
// acceptance probability on the discrete line: per coordinate the
// displacement after k steps is the k-fold convolution of uniform [-s, s]
// plus capture noise uniform [-t, t], accepted iff it lands within t, and
// the vector passes iff all n coordinates do.
func Aging(cfg Config) (*Table, error) {
	dim := 64
	users := 24
	probesPerEpoch := 240
	epochs := 8
	if cfg.Quick {
		dim, users, probesPerEpoch, epochs = 48, 8, 80, 5
	}
	e, err := newEnv(dim, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer e.stop()
	population, err := e.enrollPopulation(users)
	if err != nil {
		return nil, err
	}
	line := e.src.Line()
	t := line.Threshold()
	step := t / 4
	if step < 1 {
		step = 1
	}

	tbl := &Table{
		ID:     "aging",
		Title:  "Template aging: verify acceptance vs drift epochs, and recovery via re-enroll (DESIGN.md §13)",
		Header: []string{"epoch", "drift/coord", "measured Pr[accept]", "analytic Pr[accept]", "probes"},
	}

	// current tracks each user's drifted biometric; epoch 0 probes the
	// undrifted population, where Theorem 1 demands acceptance rate 1.
	current := make([]biometric.User, len(population))
	for i, u := range population {
		current[i] = biometric.User{ID: u.ID, Template: append(numberline.Vector(nil), u.Template...)}
	}
	for epoch := 0; epoch <= epochs; epoch++ {
		if epoch > 0 {
			for i := range current {
				drifted, err := e.src.Drift(current[i].Template, step)
				if err != nil {
					return nil, err
				}
				current[i].Template = drifted
			}
		}
		accepts := 0
		for i := 0; i < probesPerEpoch; i++ {
			cu := &current[i%len(current)]
			reading, err := e.src.GenuineReading(cu)
			if err != nil {
				return nil, err
			}
			verr := e.client.Verify(cu.ID, reading)
			switch {
			case verr == nil:
				accepts++
			case protocol.IsRejected(verr) || errors.Is(verr, protocol.ErrNoMatch):
			default:
				return nil, verr
			}
		}
		measured := float64(accepts) / float64(probesPerEpoch)
		tbl.AddRow(epoch, int64(epoch)*step, measured, agingAcceptProb(epoch, step, t, dim), probesPerEpoch)
		if epoch == 0 && accepts != probesPerEpoch {
			return nil, fmt.Errorf("aging: %d/%d undrifted probes rejected (Theorem 1 violated)",
				probesPerEpoch-accepts, probesPerEpoch)
		}
	}

	// Re-enroll every user at their drifted biometric — the device answers
	// the challenge with the enrolled template (an enrollment-grade
	// recapture) and swaps in the current one atomically — then confirm
	// Theorem 1 holds again around the new anchor.
	for i, u := range population {
		if err := e.client.ReEnroll(u.ID, u.Template, current[i].Template); err != nil {
			return nil, fmt.Errorf("aging: re-enroll %s: %w", u.ID, err)
		}
	}
	recovered := 0
	for i := 0; i < probesPerEpoch; i++ {
		cu := &current[i%len(current)]
		reading, err := e.src.GenuineReading(cu)
		if err != nil {
			return nil, err
		}
		if err := e.client.Verify(cu.ID, reading); err == nil {
			recovered++
		} else if !protocol.IsRejected(err) && !errors.Is(err, protocol.ErrNoMatch) {
			return nil, err
		}
	}
	tbl.AddRow("re-enroll", int64(epochs)*step, float64(recovered)/float64(probesPerEpoch), 1.0, probesPerEpoch)
	if recovered != probesPerEpoch {
		return nil, fmt.Errorf("aging: %d/%d probes rejected after re-enroll (atomic replace failed to re-anchor)",
			probesPerEpoch-recovered, probesPerEpoch)
	}
	tbl.AddNote("drift step s = t/4 = %d per coordinate per epoch; capture noise stays uniform [-t, t].", step)
	tbl.AddNote("re-enroll re-anchors the stored template at the drifted biometric, restoring Pr[accept] = 1 (Theorem 1).")
	tbl.AddNote("analytic column ignores ring wrap-around, which is negligible at these drift totals.")
	return tbl, nil
}

// agingAcceptProb returns the exact probability that a probe around a
// biometric drifted for k epochs still verifies against the original
// template: per coordinate, displacement = (k-fold sum of uniform [-s, s])
// + uniform [-t, t] capture noise must land in [-t, t]; the n-dimensional
// probe passes iff every coordinate does.
func agingAcceptProb(k int, s, t int64, n int) float64 {
	pmf := map[int64]float64{0: 1}
	for i := 0; i < k; i++ {
		pmf = convolveUniform(pmf, s)
	}
	pmf = convolveUniform(pmf, t)
	perCoord := 0.0
	for d, p := range pmf {
		if d >= -t && d <= t {
			perCoord += p
		}
	}
	return math.Pow(perCoord, float64(n))
}

// convolveUniform convolves pmf with the uniform distribution on the
// integers [-a, a].
func convolveUniform(pmf map[int64]float64, a int64) map[int64]float64 {
	out := make(map[int64]float64, len(pmf)+int(2*a))
	w := 1 / float64(2*a+1)
	for d, p := range pmf {
		for x := -a; x <= a; x++ {
			out[d+x] += p * w
		}
	}
	return out
}
