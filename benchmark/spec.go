package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// spec is BENCHMARK.json, the contract the driver reads.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// checkSpec fails if BENCHMARK.json names a workload or metric the harness
// did not emit, or the harness emitted one BENCHMARK.json does not name, or
// a unit or a workload's reason differs.
func checkSpec(s *spec, sum *summary) error {
	var problems []string
	diff := func(what string, want, got map[string]string) {
		for name, w := range want {
			if g, ok := got[name]; !ok {
				problems = append(problems, fmt.Sprintf("%s %q is in BENCHMARK.json but not emitted", what, name))
			} else if g != w {
				problems = append(problems, fmt.Sprintf("%s %q: BENCHMARK.json says %q, harness says %q", what, name, w, g))
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				problems = append(problems, fmt.Sprintf("%s %q is emitted but not in BENCHMARK.json", what, name))
			}
		}
	}
	want, got := map[string]string{}, map[string]string{}
	for _, w := range s.Workloads {
		want[w.Name] = w.Why
	}
	for _, w := range workloads {
		got[w.name] = w.why
	}
	diff("workload", want, got)

	for _, rep := range sum.Workloads {
		for _, part := range []struct {
			what    string
			spec    []specMetric
			emitted metrics
			extra   []metricDef // emitted by the report only, outside the contract
		}{
			{rep.Name + " end-to-end metric", s.EndToEnd, rep.EndToEnd, reportOnlyDefs},
			{rep.Name + " per-layer metric", s.PerLayer, rep.PerLayer, nil},
		} {
			want, got := map[string]string{}, map[string]string{}
			for _, m := range part.spec {
				want[m.Name] = m.Unit
			}
			for name, m := range part.emitted {
				got[name] = m.Unit
			}
			for _, d := range part.extra {
				delete(got, d.name)
			}
			diff(part.what, want, got)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("BENCHMARK.json and the harness disagree:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
