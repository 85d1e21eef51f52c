package main

import (
	"fmt"
	"math"
	"os"
)

// aa runs the untraced set twice on the same code, the second set in reverse
// workload order, on -seed and again on -seed+1, and prints for every
// end-to-end metric × workload the relative difference beside its bound. Two
// sets of the same code must agree within the benchmark's own bounds, or a
// later comparison of two commits means nothing.
//
// The per-seed tables compare single runs and are printed for the record; the
// verdict compares each set's mean over the two seeds. The benchmark's rule
// compares medians of runs, and on this box one pair of single-run p95s
// differs by more than 25 % a few times in a hundred.
func (h *harness) aa() (int, error) {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return 0, err
	}
	fmt.Printf("environment: %+v\n", h.env)
	code := 0
	seeds := []int64{h.seed, h.seed + 1}
	sum := [2]map[string]map[string]float64{{}, {}} // set → workload → metric → sum over seeds
	header := func(title string) {
		fmt.Printf("\n%s\n%-16s %-18s %12s %12s %8s %6s\n", title, "workload", "metric", "set 1", "set 2", "diff", "bound")
	}
	row := func(w string, m specMetric, a, b float64) bool {
		diff := math.Abs(b-a) / a
		mark := ""
		if diff > m.Bound {
			mark = "  > bound"
		}
		fmt.Printf("%-16s %-18s %12.4f %12.4f %7.1f%% %5.0f%%%s\n", w, m.Name, a, b, diff*100, m.Bound*100, mark)
		return diff <= m.Bound
	}
	for _, seed := range seeds {
		var sets [2]map[string]metrics
		for set := range sets {
			sets[set] = map[string]metrics{}
			for i := range workloads {
				w := workloads[i]
				if set == 1 {
					w = workloads[len(workloads)-1-i]
				}
				r, err := run(h.config(w, seed, false))
				if err != nil {
					return 0, fmt.Errorf("%s: %w", w.name, err)
				}
				code = max(code, h.verdict(r))
				sets[set][w.name] = endToEnd(r)
				fmt.Fprintf(os.Stderr, "seed %d set %d %s done (%d ops, %.1fs)\n", seed, set+1, w.name, r.ops, r.wall.Seconds())
			}
		}
		header(fmt.Sprintf("seed %d (single runs)", seed))
		for _, w := range workloads {
			for _, m := range spec.EndToEnd {
				a, b := sets[0][w.name][m.Name].Value, sets[1][w.name][m.Name].Value
				row(w.name, m, a, b)
				for set, v := range []float64{a, b} {
					if sum[set][w.name] == nil {
						sum[set][w.name] = map[string]float64{}
					}
					sum[set][w.name][m.Name] += v
				}
			}
		}
	}
	header("both seeds (mean per set; the verdict)")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			n := float64(len(seeds))
			if !row(w.name, m, sum[0][w.name][m.Name]/n, sum[1][w.name][m.Name]/n) {
				code = 1
			}
		}
	}
	if code == 0 {
		fmt.Println("\nA/A: the two sets agree within every end-to-end metric's bound")
	} else {
		fmt.Println("\nA/A: DISAGREE")
	}
	return code, nil
}
