package store

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fuzzyid/internal/numberline"
)

// This file property-tests the packed residue matrix of packed.go against
// the int64 reference implementation (matchRow): every storage width and
// coarse-filter setting must produce the exact same match sets, across a
// sweep of ka spans that covers all three widths and the filter's sizing
// edge cases.

// sweepLine is one number-line configuration of the equivalence sweep.
type sweepLine struct {
	name   string
	params numberline.Params
	dim    int
}

// sweepLines covers: all three storage widths (including the 16-bit
// boundary span), the coarse filter at its smallest (B=4) and largest
// (B=16) sizing, a span/t ratio that auto-disables the filter, t=0, and a
// span past maxCoarseSpan that trips the overflow guard. Dimensions are
// chosen to exercise both the full blocks and the scalar tail of
// matchPacked (dim % matchBlock != 0).
func sweepLines() []sweepLine {
	return []sweepLine{
		{"w16-paper-B4", numberline.Params{A: 100, K: 4, V: 500, T: 100}, 19},
		{"w16-ratio-disables", numberline.Params{A: 10, K: 2, V: 10, T: 9}, 8},
		{"w16-t0-B16", numberline.Params{A: 100, K: 2, V: 5, T: 0}, 33},
		{"w16-boundary", numberline.Params{A: 16384, K: 2, V: 2, T: 100}, 12},
		{"w32-B16", numberline.Params{A: 16384, K: 4, V: 4, T: 5}, 19},
		{"w32-B8", numberline.Params{A: 16384, K: 4, V: 4, T: 8191}, 7},
		{"w64", numberline.Params{A: 1 << 30, K: 4, V: 2, T: 99}, 19},
		{"w64-span-guard", numberline.Params{A: 1 << 58, K: 4, V: 2, T: 1000}, 9},
	}
}

// validWidths lists the storage widths (plus 0 = auto) that can hold the
// span.
func validWidths(span int64) []int {
	out := []int{0}
	for _, w := range []int{Width16, Width32, Width64} {
		if w >= widthForSpan(span) {
			out = append(out, w)
		}
	}
	return out
}

// randRow draws a uniform residue row in [0, span)^dim.
func randRow(rng *rand.Rand, dim int, span int64) []int64 {
	row := make([]int64, dim)
	for i := range row {
		row[i] = rng.Int63n(span)
	}
	return row
}

// mod wraps v onto [0, span).
func mod(v, span int64) int64 {
	v %= span
	if v < 0 {
		v += span
	}
	return v
}

// refMatches brute-forces the match set with the reference matchRow.
func refMatches(rows map[string][]int64, probe []int64, span, t int64) map[string]bool {
	out := make(map[string]bool)
	for id, row := range rows {
		if matchRow(row, probe, span, t) {
			out[id] = true
		}
	}
	return out
}

// tableMatches collects every matching row ID through the packed scanRange
// path, coarse filter included — the same code Identify runs.
func tableMatches(tab *resTable, probe []int64) map[string]bool {
	span, t := tab.line.IntervalSpan(), tab.line.Threshold()
	cp := tab.probeFilter(probe)
	dim := len(probe)
	out := make(map[string]bool)
	for si := range tab.shards {
		sh := &tab.shards[si]
		sh.mu.RLock()
		n := len(sh.recs)
		for i := 0; i < n; {
			j := sh.mat.scanRange(i, n, dim, probe, span, t, sh.coarse, cp)
			if j < 0 {
				break
			}
			out[sh.recs[j].ID] = true
			i = j + 1
		}
		sh.mu.RUnlock()
	}
	return out
}

// sweepProbes builds genuine-ish, boundary and random probes against the
// stored rows: per-coordinate perturbations within t (must match), exact-t
// and wraparound offsets (boundary), t+1 on one coordinate (must not match
// that row), and uniform noise (open set).
func sweepProbes(rng *rand.Rand, rows [][]int64, span, t int64) [][]int64 {
	var probes [][]int64
	perturb := func(row []int64, d func(i int) int64) []int64 {
		p := make([]int64, len(row))
		for i, r := range row {
			p[i] = mod(r+d(i), span)
		}
		return p
	}
	for k := 0; k < 8 && k < len(rows); k++ {
		row := rows[rng.Intn(len(rows))]
		if t > 0 {
			probes = append(probes, perturb(row, func(int) int64 { return rng.Int63n(2*t+1) - t }))
		}
		probes = append(probes,
			perturb(row, func(int) int64 { return 0 }),
			perturb(row, func(i int) int64 { // alternating exact-threshold offsets
				if i%2 == 0 {
					return t
				}
				return -t
			}),
		)
		if t+1 < span-(t+1) { // one coordinate just past threshold: no match on this row
			p := perturb(row, func(int) int64 { return 0 })
			p[len(p)-1] = mod(p[len(p)-1]+t+1, span)
			probes = append(probes, p)
		}
	}
	for k := 0; k < 8; k++ {
		probes = append(probes, randRow(rng, len(rows[0]), span))
	}
	return probes
}

// TestPackedScanEquivalence is the satellite property test: every storage
// width times coarse on/off returns exactly the reference int64 match set,
// for every line of the sweep, before and after swap-deletes.
func TestPackedScanEquivalence(t *testing.T) {
	for _, sl := range sweepLines() {
		sl := sl
		t.Run(sl.name, func(t *testing.T) {
			line, err := numberline.New(sl.params)
			if err != nil {
				t.Fatal(err)
			}
			span, th := line.IntervalSpan(), line.Threshold()
			rng := rand.New(rand.NewSource(7))
			const n = 200
			rows := make([][]int64, n)
			ref := make(map[string][]int64, n)
			for i := range rows {
				rows[i] = randRow(rng, sl.dim, span)
				ref[fmt.Sprint(i)] = rows[i]
			}

			type cfg struct {
				name string
				tab  *resTable
			}
			var cfgs []cfg
			for _, w := range validWidths(span) {
				for _, noCoarse := range []bool{false, true} {
					tab, err := newResTableTuned(line, 5, Tuning{ResidueWidth: w, NoCoarseFilter: noCoarse})
					if err != nil {
						t.Fatal(err)
					}
					for i := range rows {
						if err := tab.insert(&Record{ID: fmt.Sprint(i)}, rows[i]); err != nil {
							t.Fatal(err)
						}
					}
					cfgs = append(cfgs, cfg{fmt.Sprintf("w%d-coarse%v", w, !noCoarse), tab})
				}
			}

			check := func(stage string, probes [][]int64) {
				for pi, probe := range probes {
					want := refMatches(ref, probe, span, th)
					for _, c := range cfgs {
						got := tableMatches(c.tab, probe)
						if len(got) != len(want) {
							t.Fatalf("%s %s probe %d: got %d matches, want %d", stage, c.name, pi, len(got), len(want))
						}
						for id := range want {
							if !got[id] {
								t.Fatalf("%s %s probe %d: missing match %s", stage, c.name, pi, id)
							}
						}
					}
				}
			}
			check("full", sweepProbes(rng, rows, span, th))

			// Swap-delete a third of the rows (coarse keys and packed rows
			// must relocate together) and re-verify.
			for i := 0; i < n; i += 3 {
				delete(ref, fmt.Sprint(i))
				for _, c := range cfgs {
					if err := c.tab.delete(fmt.Sprint(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			var kept [][]int64
			for _, row := range ref {
				kept = append(kept, row)
			}
			check("after-delete", sweepProbes(rng, kept, span, th))
		})
	}
}

// TestCoarseFilterSoundness pins the filter's safety property directly: a
// probe within per-coordinate circular distance t of a row always admits
// that row's key, for every sweep line where the filter is live.
func TestCoarseFilterSoundness(t *testing.T) {
	for _, sl := range sweepLines() {
		line, err := numberline.New(sl.params)
		if err != nil {
			t.Fatal(err)
		}
		c := coarseParamsFor(line, sl.dim, false)
		if !c.enabled {
			continue
		}
		span, th := line.IntervalSpan(), line.Threshold()
		rng := rand.New(rand.NewSource(11))
		for iter := 0; iter < 2000; iter++ {
			row := randRow(rng, sl.dim, span)
			probe := make([]int64, sl.dim)
			for i, r := range row {
				d := int64(0)
				if th > 0 {
					d = rng.Int63n(2*th+1) - th
				}
				probe[i] = mod(r+d, span)
			}
			cp := c.probe(probe)
			if !cp.admit(c.keyOf(row)) {
				t.Fatalf("%s: coarse filter rejected a true match (row %v, probe %v)", sl.name, row, probe)
			}
		}
	}
}

// TestWidthForSpan pins the automatic width rule at its boundaries.
func TestWidthForSpan(t *testing.T) {
	cases := []struct {
		span int64
		want int
	}{
		{2, Width16},
		{1 << 15, Width16},
		{1<<15 + 1, Width32},
		{1 << 31, Width32},
		{1<<31 + 1, Width64},
		{1 << 61, Width64},
	}
	for _, c := range cases {
		if got := widthForSpan(c.span); got != c.want {
			t.Errorf("widthForSpan(%d) = %d, want %d", c.span, got, c.want)
		}
	}
}

// TestResolveWidth pins the override rule: automatic by default, widening
// allowed, narrowing and junk rejected.
func TestResolveWidth(t *testing.T) {
	if w, err := resolveWidth(0, 400); err != nil || w != Width16 {
		t.Errorf("auto = (%d, %v), want (16, nil)", w, err)
	}
	if w, err := resolveWidth(64, 400); err != nil || w != Width64 {
		t.Errorf("widen = (%d, %v), want (64, nil)", w, err)
	}
	if _, err := resolveWidth(16, 1<<20); err == nil {
		t.Error("narrowing accepted")
	}
	if _, err := resolveWidth(24, 400); err == nil {
		t.Error("junk width accepted")
	}
}

// TestScanTunedRejectsNarrowWidth checks the error surfaces through the
// public constructors.
func TestScanTunedRejectsNarrowWidth(t *testing.T) {
	line := numberline.MustNew(numberline.Params{A: 16384, K: 4, V: 4, T: 5}) // span 65536
	if _, err := NewScanTuned(line, 0, Tuning{ResidueWidth: 16}); err == nil {
		t.Error("NewScanTuned accepted a width too narrow for the span")
	}
	if _, err := NewScanTuned(line, 0, Tuning{ResidueWidth: 8}); err == nil {
		t.Error("NewScanTuned accepted an invalid width")
	}
}

// TestScanStoreWidthEquivalence runs the equivalence end to end through the
// Store interface with real sketches: genuine and impostor probes resolve
// identically under every width and filter setting.
func TestScanStoreWidthEquivalence(t *testing.T) {
	f := newFixture(t, 32, 63)
	line := f.fe.Line()
	variants := map[string]Store{}
	for _, w := range validWidths(line.IntervalSpan()) {
		for _, noCoarse := range []bool{false, true} {
			s, err := NewScanTuned(line, 6, Tuning{ResidueWidth: w, NoCoarseFilter: noCoarse})
			if err != nil {
				t.Fatal(err)
			}
			variants[fmt.Sprintf("w%d-coarse%v", w, !noCoarse)] = s
		}
	}
	users := f.src.Population(60)
	for _, u := range users {
		_, helper, err := f.fe.Gen(u.Template)
		if err != nil {
			t.Fatal(err)
		}
		rec := &Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}
		for name, s := range variants {
			if err := s.Insert(rec); err != nil {
				t.Fatalf("%s Insert: %v", name, err)
			}
		}
	}
	for _, u := range users[:20] {
		reading, err := f.src.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		probe := f.probe(t, reading)
		for name, s := range variants {
			rec, err := s.Identify(probe)
			if err != nil || rec.ID != u.ID {
				t.Fatalf("%s Identify(%s) = (%v, %v)", name, u.ID, rec, err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		probe := f.probe(t, f.src.ImpostorReading())
		for name, s := range variants {
			if _, err := s.Identify(probe); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s impostor err = %v, want ErrNotFound", name, err)
			}
		}
	}
}

// TestResBufHint pins the satellite fix: pooled probe buffers are sized
// from the live store dimension instead of the historical 256 cap.
func TestResBufHint(t *testing.T) {
	raiseResBufHint(4096)
	b := getResBuf()
	if cap(*b) < 4096 {
		t.Fatalf("pooled buffer cap %d after hint 4096", cap(*b))
	}
	putResBuf(b)
	// Adoption raises the hint as a side effect of the first insert.
	line := numberline.MustNew(numberline.Params{A: 100, K: 4, V: 500, T: 100})
	tab, err := newResTableTuned(line, 2, Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if err := tab.insert(&Record{ID: "big"}, randRow(rng, 5000, line.IntervalSpan())); err != nil {
		t.Fatal(err)
	}
	if h := resBufHint.Load(); h < 5000 {
		t.Fatalf("resBufHint = %d after adopting dim 5000", h)
	}
	b = getResBuf()
	if cap(*b) < 5000 {
		t.Fatalf("pooled buffer cap %d after adopting dim 5000", cap(*b))
	}
	putResBuf(b)
}

// FuzzMatchPacked cross-checks the packed block-vectorized matcher against
// the reference matchRow at every width, and the coarse filter's admission
// against any match it finds, over fuzzer-chosen spans, thresholds and
// residues.
func FuzzMatchPacked(f *testing.F) {
	f.Add(uint16(200), uint16(50), []byte("0123456789abcdef0123"))
	f.Add(uint16(16383), uint16(0), []byte{0, 255, 128, 1, 254, 2, 253, 127, 129, 64})
	f.Add(uint16(1), uint16(9999), []byte{9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, a, th uint16, data []byte) {
		span := 2 * (int64(a)%16384 + 1) // even, in [2, 32768]: all widths can hold it
		tt := int64(th) % (span / 2)
		dim := len(data) / 2
		if dim == 0 {
			return
		}
		row := make([]int64, dim)
		row16 := make([]int16, dim)
		row32 := make([]int32, dim)
		probe := make([]int64, dim)
		for i := 0; i < dim; i++ {
			r := int64(data[i]) * span / 256
			row[i], row16[i], row32[i] = r, int16(r), int32(r)
			probe[i] = int64(data[dim+i]) * span / 256
		}
		want := matchRow(row, probe, span, tt)
		if got := matchPacked(row16, probe, span, tt); got != want {
			t.Fatalf("matchPacked[int16] = %v, reference %v (span %d, t %d, row %v, probe %v)", got, want, span, tt, row, probe)
		}
		if got := matchPacked(row32, probe, span, tt); got != want {
			t.Fatalf("matchPacked[int32] = %v, reference %v (span %d, t %d)", got, want, span, tt)
		}
		if got := matchPacked(row, probe, span, tt); got != want {
			t.Fatalf("matchPacked[int64] = %v, reference %v (span %d, t %d)", got, want, span, tt)
		}
		line, err := numberline.New(numberline.Params{A: span / 2, K: 2, V: 2, T: tt})
		if err != nil {
			return
		}
		c := coarseParamsFor(line, dim, false)
		if c.enabled && want {
			cp := c.probe(probe)
			if !cp.admit(c.keyOf(row)) {
				t.Fatalf("coarse filter rejected a matching row (span %d, t %d, row %v, probe %v)", span, tt, row, probe)
			}
		}
	})
}
