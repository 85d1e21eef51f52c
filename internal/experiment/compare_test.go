package experiment

import (
	"bytes"
	"strings"
	"testing"
)

func perfTables(meanMS, bytes string) []*Table {
	return []*Table{
		{
			ID:     "verify",
			Header: []string{"n", "mean ms/verification", "runs"},
			Rows:   [][]string{{"500", meanMS, "30"}},
		},
		{
			ID:     "comm",
			Header: []string{"message", "n", "N", "bytes"},
			Rows:   [][]string{{"EnrollRequest", "500", "100", bytes}},
		},
		{
			ID:     "entropy",
			Header: []string{"configuration", "measured", "theory", "abs error"},
			Rows:   [][]string{{"paper", "8.9", "8.97", "0.07"}},
		},
	}
}

func TestIsPerfColumn(t *testing.T) {
	for h, want := range map[string]bool{
		"mean ms/verification":     true,
		"proposed/scan ms":         true,
		"sketch ms":                true,
		"bytes":                    true,
		"runs":                     false,
		"abs error":                false,
		"measured":                 false,
		"streams":                  false, // "ms" must be a whole word
		"helper bits":              false,
		"supports identify-lookup": false,
	} {
		if got := IsPerfColumn(h); got != want {
			t.Errorf("IsPerfColumn(%q) = %v, want %v", h, got, want)
		}
	}
}

func TestComparePerfPassesOnEqual(t *testing.T) {
	regs, compared, err := ComparePerf(perfTables("2.0", "132"), perfTables("2.0", "132"), 0.30, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("equal runs flagged: %v", regs)
	}
	if compared != 2 { // the ms cell and the bytes cell; entropy is not perf
		t.Fatalf("compared %d cells, want 2", compared)
	}
}

func TestComparePerfFlagsSlowdown(t *testing.T) {
	// A 2x slowdown on the latency cell must trip a 30% gate.
	regs, _, err := ComparePerf(perfTables("2.0", "132"), perfTables("4.0", "132"), 0.30, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %v", len(regs), regs)
	}
	r := regs[0]
	if r.Table != "verify" || r.Ratio < 1.99 || r.Ratio > 2.01 {
		t.Fatalf("unexpected regression: %+v", r)
	}
	if !strings.Contains(r.String(), "verify") {
		t.Fatalf("report string %q", r.String())
	}
	// Within threshold passes.
	regs, _, err = ComparePerf(perfTables("2.0", "132"), perfTables("2.5", "132"), 0.30, 0.05)
	if err != nil || len(regs) != 0 {
		t.Fatalf("25%% drift flagged: %v, %v", regs, err)
	}
	// A size regression (wire growth) is also gated.
	regs, _, err = ComparePerf(perfTables("2.0", "132"), perfTables("2.0", "300"), 0.30, 0.05)
	if err != nil || len(regs) != 1 {
		t.Fatalf("bytes regression: got %v, %v", regs, err)
	}
}

func TestComparePerfNoiseFloor(t *testing.T) {
	// Sub-minMS latencies are scheduler noise: a huge relative delta on a
	// 3µs baseline must not trip the gate...
	regs, compared, err := ComparePerf(perfTables("0.003", "132"), perfTables("0.02", "132"), 0.30, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("sub-floor latency flagged: %v", regs)
	}
	if compared != 1 { // only the bytes cell was eligible
		t.Fatalf("compared %d cells, want 1", compared)
	}
	// ...but the floor never applies to byte sizes, which are deterministic.
	regs, _, err = ComparePerf(perfTables("0.003", "10"), perfTables("0.003", "14"), 0.30, 0.05)
	if err != nil || len(regs) != 1 {
		t.Fatalf("small bytes regression missed: %v, %v", regs, err)
	}
}

func TestComparePerfShapeChanges(t *testing.T) {
	base := perfTables("2.0", "132")
	// A removed experiment or changed workload point is skipped, not a trip.
	regs, compared, err := ComparePerf(base, perfTables("2.0", "132")[1:], 0.30, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 || compared != 1 {
		t.Fatalf("removed table: regs=%v compared=%d", regs, compared)
	}
	// Reordered columns still compare by header name.
	cand := perfTables("9.9", "132")
	cand[0].Header = []string{"mean ms/verification", "n", "runs"}
	cand[0].Rows = [][]string{{"2.0", "500", "30"}}
	regs, _, err = ComparePerf(base, cand, 0.30, 0.05)
	if err != nil || len(regs) != 0 {
		t.Fatalf("column reorder mis-compared: %v, %v", regs, err)
	}
	if _, _, err := ComparePerf(base, base, 0, 0.05); err == nil {
		t.Fatal("zero threshold accepted")
	}
}

func TestReadJSONTablesRoundTrip(t *testing.T) {
	tables := perfTables("2.0", "132")
	var buf bytes.Buffer
	if err := WriteJSONTables(&buf, tables); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONTables(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tables) || got[0].ID != "verify" || got[0].Rows[0][1] != "2.0" {
		t.Fatalf("round trip mangled tables: %+v", got)
	}
	if _, err := ReadJSONTables(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestMergeMaxTables(t *testing.T) {
	a := perfTables("2.0", "132")
	b := perfTables("3.5", "130")
	c := perfTables("1.5", "132")
	m := MergeMaxTables(a, b, c)
	if len(m) != len(a) {
		t.Fatalf("merged %d tables, want %d", len(m), len(a))
	}
	if got := m[0].Rows[0][1]; got != "3.5" {
		t.Errorf("merged latency cell = %q, want worst run's 3.5", got)
	}
	if got := m[1].Rows[0][3]; got != "132" {
		t.Errorf("merged bytes cell = %q, want worst run's 132", got)
	}
	// Non-perf cells come from the first run, untouched.
	if got := m[2].Rows[0][1]; got != "8.9" {
		t.Errorf("non-perf cell = %q, want first run's 8.9", got)
	}
	// The inputs must not be mutated by the merge.
	if a[0].Rows[0][1] != "2.0" {
		t.Errorf("merge mutated its input: %q", a[0].Rows[0][1])
	}
	// A merged baseline gates exactly like a handwritten one.
	regs, compared, err := ComparePerf(m, perfTables("3.6", "132"), 0.30, 0.05)
	if err != nil || compared == 0 || len(regs) != 0 {
		t.Fatalf("merged baseline vs near candidate: regs=%v compared=%d err=%v", regs, compared, err)
	}
	// Degenerate calls.
	if MergeMaxTables() != nil {
		t.Error("zero-run merge should be nil")
	}
	one := MergeMaxTables(a)
	if len(one) != len(a) || one[0].Rows[0][1] != "2.0" {
		t.Errorf("single-run merge should copy the run: %+v", one[0].Rows)
	}
}
