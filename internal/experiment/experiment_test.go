package experiment

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

func quickConfig() Config { return Config{Quick: true, Seed: 7} }

func TestRegistryAndIDs(t *testing.T) {
	reg := Registry()
	ids := IDs()
	if len(reg) != len(ids) {
		t.Fatalf("registry %d vs ids %d", len(reg), len(ids))
	}
	for _, want := range []string{"table2", "verify", "fig4", "falseclose", "entropy", "robust", "ablate", "reuse", "accuracy", "comm", "openset", "aging"} {
		if _, ok := reg[want]; !ok {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
	// IDs must be sorted and unique.
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Errorf("IDs not strictly sorted: %v", ids)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "demo",
		Title:  "demo table",
		Header: []string{"col-a", "b"},
	}
	tbl.AddRow("x", 3.14159)
	tbl.AddRow(42, "y")
	tbl.AddNote("note %d", 1)
	var text bytes.Buffer
	if err := tbl.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{"demo table", "col-a", "3.142", "42", "note: note 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	var csvBuf bytes.Buffer
	if err := tbl.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 {
		t.Errorf("CSV has %d lines, want 3:\n%s", len(lines), csvBuf.String())
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		give float64
		want string
	}{
		{0, "0"},
		{1234.6, "1235"},
		{12.3456, "12.346"},
		{0.00123456, "0.001235"},
		{-2000, "-2000"},
	}
	for _, tt := range tests {
		if got := formatFloat(tt.give); got != tt.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestFormatInt(t *testing.T) {
	for _, tt := range []struct {
		give int64
		want string
	}{{0, "0"}, {5, "5"}, {-42, "-42"}, {31000, "31000"}} {
		if got := formatInt(tt.give); got != tt.want {
			t.Errorf("formatInt(%d) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestTable2(t *testing.T) {
	tbl, err := Table2(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "table2" || len(tbl.Rows) == 0 {
		t.Fatalf("bad table: %+v", tbl)
	}
	// The m̃ row must carry the closed-form 44829 value.
	found := false
	for _, row := range tbl.Rows {
		if strings.Contains(row[0], "residual entropy") {
			v, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				t.Fatalf("m~ cell %q not numeric", row[2])
			}
			if v < 44820 || v > 44840 {
				t.Errorf("m~ = %v, want ~44829", v)
			}
			found = true
		}
	}
	if !found {
		t.Error("residual entropy row missing")
	}
}

func TestVerificationQuick(t *testing.T) {
	tbl, err := Verification(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 in quick mode", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		ms, err := strconv.ParseFloat(row[1], 64)
		if err != nil || ms <= 0 {
			t.Errorf("latency cell %q invalid", row[1])
		}
	}
}

func TestFig4Quick(t *testing.T) {
	tbl, err := Fig4(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 in quick mode", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		for _, cell := range row[1:] {
			if ms, err := strconv.ParseFloat(cell, 64); err != nil || ms <= 0 {
				t.Errorf("latency cell %q invalid", cell)
			}
		}
	}
	if len(tbl.Notes) < 3 {
		t.Errorf("expected slope-fit notes, got %v", tbl.Notes)
	}

	// The claim Fig. 4 plots: at the largest quick N the normal approach,
	// which tries one Rep per enrolled user, is slower than the proposed
	// protocol, which runs one. Both are sub-millisecond, and each table
	// cell, a median over its own population, still moves with whatever
	// else the machine runs, so the claim compares the fastest of 15
	// interleaved identifications on each side over one population.
	e, err := newEnv(128, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer e.stop()
	users, err := e.enrollPopulation(100)
	if err != nil {
		t.Fatal(err)
	}
	proposed, normal := identifier(e, users, false), identifier(e, users, true)
	fastest := func(identify func() error, best *time.Duration) {
		start := time.Now()
		if err := identify(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); *best == 0 || d < *best {
			*best = d
		}
	}
	var bestProposed, bestNormal time.Duration
	for i := 0; i < 15; i++ {
		fastest(proposed, &bestProposed)
		fastest(normal, &bestNormal)
	}
	t.Logf("fastest of 15: proposed %v, normal %v", bestProposed, bestNormal)
	if bestNormal <= bestProposed {
		t.Errorf("normal (%v) not slower than proposed (%v) at N = 100", bestNormal, bestProposed)
	}
}

func TestFalseCloseQuick(t *testing.T) {
	tbl, err := FalseClose(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 { // dims {1,2,4} + working dimension
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	// Empirical rates must decrease with n.
	prev := 2.0
	for _, row := range tbl.Rows[:3] {
		rate, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if rate >= prev {
			t.Errorf("false-close rate not decreasing: %v then %v", prev, rate)
		}
		prev = rate
	}
	// Zero false accepts at the working dimension.
	if got := tbl.Rows[3][1]; got != "0" {
		t.Errorf("working-dimension false-accept rate = %s, want 0", got)
	}
}

func TestEntropyQuick(t *testing.T) {
	tbl, err := Entropy(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[0], "SD(") {
			absErr, err := strconv.ParseFloat(row[3], 64)
			if err != nil {
				t.Fatalf("abs error cell %q", row[3])
			}
			if absErr > 1e-9 {
				t.Errorf("%s: Theorem 3 mismatch %v", row[0], absErr)
			}
		}
	}
}

func TestRobustQuick(t *testing.T) {
	tbl, err := Robust(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 attack families", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[3] != "1.000" {
			t.Errorf("attack %q detection rate = %s, want 1.000", row[0], row[3])
		}
	}
}

func TestAblateQuick(t *testing.T) {
	tbl, err := Ablate(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	axes := make(map[string]int)
	for _, row := range tbl.Rows {
		axes[row[0]]++
	}
	for _, axis := range []string{"interval shape", "strong extractor", "signature scheme"} {
		if axes[axis] == 0 {
			t.Errorf("axis %q missing from ablation", axis)
		}
	}
}

func TestReuseQuick(t *testing.T) {
	tbl, err := Reuse(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 in quick mode", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		leak, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("leak cell %q", row[4])
		}
		if leak > 1e-9 || leak < -1e-9 {
			t.Errorf("%s: second sketch leaked %v bits, want 0", row[0], leak)
		}
	}
}

func TestAccuracyQuick(t *testing.T) {
	tbl, err := Accuracy(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 { // 8 noise levels + impostor row
		t.Fatalf("rows = %d, want 9", len(tbl.Rows))
	}
	// FRR must be zero at and below the threshold.
	for _, row := range tbl.Rows[:4] {
		if row[1] != "0" {
			t.Errorf("noise %s: FRR = %s, want 0", row[0], row[1])
		}
	}
	// And substantial well beyond it (2.0*t at n>=64 rejects essentially
	// every probe).
	last := tbl.Rows[7]
	frr, err := strconv.ParseFloat(last[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if frr < 0.9 {
		t.Errorf("FRR at 2t = %v, want near 1", frr)
	}
	if tbl.Rows[8][1] != "0" {
		t.Errorf("impostor FAR = %s, want 0", tbl.Rows[8][1])
	}
}

func TestCommQuick(t *testing.T) {
	tbl, err := Comm(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 { // 4 fixed messages + 1 batch row in quick mode
		t.Fatalf("rows = %d, want 5", len(tbl.Rows))
	}
	// The normal-approach batch must dwarf the proposed probe.
	probeBytes, err := strconv.ParseFloat(tbl.Rows[1][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	batchBytes, err := strconv.ParseFloat(tbl.Rows[4][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	if batchBytes < 50*probeBytes {
		t.Errorf("batch %v bytes not >> probe %v bytes", batchBytes, probeBytes)
	}
}

func TestOpenSetQuick(t *testing.T) {
	tbl, err := OpenSet(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 { // dims {8,12} + working scale
		t.Fatalf("rows = %d, want 3 in quick mode", len(tbl.Rows))
	}
	// Ghost acceptance must decrease with n, and every row must sit under
	// its population bound (OpenSet itself errors otherwise; recheck the
	// rendered cells so the table contract stays load-bearing).
	prev := 2.0
	for _, row := range tbl.Rows[:2] {
		rate, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if rate >= prev {
			t.Errorf("ghost accept rate not decreasing: %v then %v", prev, rate)
		}
		if rate > bound*1.2+0.01 {
			t.Errorf("n=%s: rendered rate %v above bound %v", row[0], rate, bound)
		}
		prev = rate
	}
	// Zero ghost accepts at the working scale.
	if got := tbl.Rows[2][2]; got != "0" {
		t.Errorf("working-scale ghost accept rate = %s, want 0", got)
	}
}

func TestAgingQuick(t *testing.T) {
	tbl, err := Aging(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// epochs 0..5 in quick mode plus the re-enroll recovery row.
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 in quick mode", len(tbl.Rows))
	}
	// Epoch 0 (undrifted) and the post-re-enroll row must both sit at
	// acceptance 1 (Theorem 1); the deepest drift epoch must show real
	// degradation.
	if got := tbl.Rows[0][2]; got != "1.000" {
		t.Errorf("epoch-0 accept rate = %s, want 1.000", got)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "re-enroll" || last[2] != "1.000" {
		t.Errorf("recovery row = %v, want re-enroll at accept rate 1.000", last)
	}
	deepest, err := strconv.ParseFloat(tbl.Rows[len(tbl.Rows)-2][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if deepest > 0.5 {
		t.Errorf("deepest-drift accept rate = %v, want well below 1", deepest)
	}
	// Measured and analytic columns must agree within sampling noise.
	for _, row := range tbl.Rows[:len(tbl.Rows)-1] {
		measured, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		analytic, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if diff := measured - analytic; diff < -0.2 || diff > 0.2 {
			t.Errorf("epoch %s: measured %v vs analytic %v", row[0], measured, analytic)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := RunAll(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(IDs()) {
		t.Fatalf("RunAll returned %d tables, want %d", len(tables), len(IDs()))
	}
	var buf bytes.Buffer
	for _, tbl := range tables {
		if err := tbl.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() == 0 {
		t.Error("no rendered output")
	}
}
