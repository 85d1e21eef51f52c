package store

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sketch"
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
// (B=16) sizing, span/t ratios of 5 and 13 that round B down to a power of
// two, a span/t ratio that auto-disables the filter, t=0, and a span past
// maxCoarseSpan that trips the overflow guard. Dimensions are chosen to
// exercise both the full blocks and the scalar tail of matchPacked (dim %
// matchBlock != 0), and dimensions past the field count F.
func sweepLines() []sweepLine {
	return []sweepLine{
		{"w16-paper-B4", numberline.Params{A: 100, K: 4, V: 500, T: 100}, 19},
		{"w16-ratio5-B4", numberline.Params{A: 100, K: 4, V: 500, T: 70}, 35},
		{"w16-ratio13-B8", numberline.Params{A: 100, K: 4, V: 500, T: 30}, 23},
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

// tableMatches collects every matching row ID through the walk Identify
// runs — only the cells the probe admits, each through scanCell with the
// coarse filter — continued past each match.
func tableMatches(tab *resTable, probe []int64) map[string]bool {
	span, t := tab.line.IntervalSpan(), tab.line.Threshold()
	cp := tab.coarse.probe(probe)
	dim := len(probe)
	out := make(map[string]bool)
	for si := range tab.shards {
		sh := &tab.shards[si]
		sh.mu.RLock()
		for c := range sh.cells {
			if !cp.admitCell(c) {
				continue
			}
			cl := &sh.cells[c]
			for lo := 0; lo < len(cl.keys); {
				row := sh.mat.scanCell(cl.keys[lo:], cl.rows[lo:], dim, probe, span, t, cp)
				if row < 0 {
					break
				}
				out[sh.row(row).id] = true
				lo = int(sh.row(row).pos) + 1
			}
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
						if err := tab.insert(rawRecord(fmt.Sprint(i), rows[i]), rows[i]); err != nil {
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

// TestCellScanSkipsCells pins the share of rows a ghost probe visits on the
// paper line at dim 64: B = 4 names a cell by 4 lanes, a probe admits 3^4 of
// the 4^4 cells, and uniform rows put (3/4)^4 = 31.6 % of them there.
func TestCellScanSkipsCells(t *testing.T) {
	line := numberline.MustNew(numberline.PaperParams())
	tab, err := newResTableTuned(line, 4, Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	const n = 20000
	for i := 0; i < n; i++ {
		row := randRow(rng, 64, line.IntervalSpan())
		if err := tab.insert(rawRecord(fmt.Sprint(i), row), row); err != nil {
			t.Fatal(err)
		}
	}
	if got := tab.coarse.cells(); got != 256 {
		t.Fatalf("cells per shard = %d, want 256", got)
	}
	for g := 0; g < 10; g++ {
		cp := tab.coarse.probe(randRow(rng, 64, line.IntervalSpan()))
		cells, visited := 0, 0
		for si := range tab.shards {
			sh := &tab.shards[si]
			for c := range sh.cells {
				if cp.admitCell(c) {
					cells++
					visited += len(sh.cells[c].keys)
				}
			}
		}
		share := float64(visited) / n
		t.Logf("ghost %d: %d cells admitted, %.1f %% of rows visited", g, cells, 100*share)
		if cells != 4*81 || share > 0.35 {
			t.Fatalf("ghost %d admits %d cells (want %d) holding %.1f %% of rows (want <= 35 %%)", g, cells, 4*81, 100*share)
		}
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

// admitRef is the per-field admission loop that the lane-wise admit
// replaced, kept as its reference: per summarised coordinate, a bitmask of
// the probe's bucket and its two circular neighbours, tested against the
// row's key field.
func admitRef(c coarseParams, probe []int64, key uint64) bool {
	mask := uint64(1)<<c.bits - 1
	for i := 0; i < c.fields; i++ {
		b := probe[i] * c.buckets / c.span
		allowed := uint16(1<<uint(b) | 1<<uint((b-1+c.buckets)%c.buckets) | 1<<uint((b+1)%c.buckets))
		if allowed>>(key&mask)&1 == 0 {
			return false
		}
		key >>= c.bits
	}
	return true
}

// TestAdmitMatchesReference pins admit to admitRef on every sweep line with
// a live filter, over keys whose fields mostly sit within one bucket of the
// probe's (so both verdicts occur), uniform random keys, and junk in the key
// bits past the summarised lanes.
func TestAdmitMatchesReference(t *testing.T) {
	for _, sl := range sweepLines() {
		line := numberline.MustNew(sl.params)
		c := coarseParamsFor(line, sl.dim, false)
		if !c.enabled {
			continue
		}
		span := line.IntervalSpan()
		rng := rand.New(rand.NewSource(13))
		var admitted, rejected int
		for iter := 0; iter < 20000; iter++ {
			probe := randRow(rng, sl.dim, span)
			key := rng.Uint64()
			if iter%2 == 0 {
				key <<= uint(c.fields) * c.bits
				for i := 0; i < c.fields; i++ {
					k := rng.Int63n(c.buckets)
					if rng.Intn(8) != 0 {
						k = mod(probe[i]*c.buckets/span+rng.Int63n(3)-1, c.buckets)
					}
					key |= uint64(k) << (uint(i) * c.bits)
				}
			}
			cp := c.probe(probe)
			got, want := cp.admit(key), admitRef(c, probe, key)
			if got != want {
				t.Fatalf("%s: admit(%#x) = %v, reference %v (probe %v)", sl.name, key, got, want, probe)
			}
			if want {
				admitted++
			} else {
				rejected++
			}
		}
		if admitted == 0 || rejected == 0 {
			t.Errorf("%s: one-sided sample: %d admitted, %d rejected", sl.name, admitted, rejected)
		}
	}
}

// TestAdmitLaneExhaustive pins admit to admitRef, and both to the ±1
// circular-neighbour rule, for every (probe bucket, row bucket) pair at
// B = 4, 8 and 16 on the first, a middle and the last summarised lane — the
// ring seam included. The other lanes hold varied buckets that admit, and
// the key bits past the lanes are tried clear and set (at B = 8 that is the
// unused 64th bit of 21 3-bit lanes).
func TestAdmitLaneExhaustive(t *testing.T) {
	for _, buckets := range []int64{4, 8, 16} {
		line := numberline.MustNew(numberline.Params{A: 100, K: 4, V: 500, T: 400 / buckets})
		c := coarseParamsFor(line, 64, false)
		if !c.enabled || c.buckets != buckets {
			t.Fatalf("B=%d: coarse params %+v", buckets, c)
		}
		span := line.IntervalSpan()
		lowest := func(b int64) int64 { return (b*span + c.buckets - 1) / c.buckets } // smallest residue in bucket b
		for _, lane := range []int{0, c.fields / 2, c.fields - 1} {
			for pb := int64(0); pb < c.buckets; pb++ {
				for rb := int64(0); rb < c.buckets; rb++ {
					for _, junk := range []uint64{0, ^uint64(0) << (uint(c.fields) * c.bits)} {
						probe := make([]int64, c.fields)
						key := junk
						for i := range probe {
							b := int64(i) % c.buckets
							k := mod(b+int64(i%3)-1, c.buckets)
							if i == lane {
								b, k = pb, rb
							}
							probe[i] = lowest(b)
							key |= uint64(k) << (uint(i) * c.bits)
						}
						d := mod(rb-pb, c.buckets)
						near := d <= 1 || d == c.buckets-1
						cp := c.probe(probe)
						got, want := cp.admit(key), admitRef(c, probe, key)
						if got != want || want != near {
							t.Fatalf("B=%d lane %d probe bucket %d row bucket %d junk %#x: admit %v, reference %v, neighbour %v",
								buckets, lane, pb, rb, junk, got, want, near)
						}
					}
				}
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
// store's lookup methods with real sketches: genuine and impostor probes resolve
// identically under every width and filter setting.
func TestScanStoreWidthEquivalence(t *testing.T) {
	f := newFixture(t, 32, 63)
	line := f.fe.Line()
	variants := map[string]storeAPI{}
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
	big := randRow(rng, 5000, line.IntervalSpan())
	if err := tab.insert(rawRecord("big", big), big); err != nil {
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

// TestResiduesMatchModulo checks residuesInto's conditional +ka against a
// full mod-ka reduction: every legal movement, the illegal band out to
// ±2ka, and the int64 extremes, on an even and an odd-a line.
func TestResiduesMatchModulo(t *testing.T) {
	for _, p := range []numberline.Params{
		numberline.PaperParams(),
		{A: 3, K: 2, V: 5, T: 1},
	} {
		line := numberline.MustNew(p)
		span := line.IntervalSpan()
		var mv []int64
		for m := -2 * span; m <= 2*span; m++ {
			mv = append(mv, m)
		}
		mv = append(mv, math.MinInt64, math.MinInt64+1, math.MaxInt64, -span*1000-1)
		res := residuesInto(nil, line, &sketch.Sketch{Movements: mv})
		for i, m := range mv {
			want := (m%span + span) % span
			if res[i] != want {
				t.Fatalf("%v: residue of %d = %d, want %d", p, m, res[i], want)
			}
		}
	}
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

// chunkGeometry reports a matrix's rows per chunk, its chunk count and the
// residues its first chunk has room for.
func chunkGeometry(m resMatrix) (perChunk, chunks, first int) {
	switch m := m.(type) {
	case *matrix[int16]:
		return m.mask + 1, len(m.chunks), firstLen(m.chunks)
	case *matrix[int32]:
		return m.mask + 1, len(m.chunks), firstLen(m.chunks)
	case *matrix[int64]:
		return m.mask + 1, len(m.chunks), firstLen(m.chunks)
	}
	panic(fmt.Sprintf("unknown matrix %T", m))
}

func firstLen[T resWord](chunks [][]T) int {
	if len(chunks) == 0 {
		return 0
	}
	return len(chunks[0])
}

// TestChunkedMatrixMatchesFlat drives the chunked matrix at the paper's
// n = 5000, where a chunk holds a handful of rows, against a flat slice of
// reference rows: appends, swap-deletes (moveRow + truncate) and in-place
// replacements (setRow), while the row count climbs past several chunk
// boundaries, falls to zero and climbs again. After every step the touched
// rows must lift (liftRow) to the reference, the chunk count must cover
// the rows with at most one spare chunk, and at each turn every row must
// read back whole and be the row scanCell finds for its own residues.
func TestChunkedMatrixMatchesFlat(t *testing.T) {
	const dim, span, thr = 5000, 1 << 15, 100
	lift := func(res []int64) []int64 {
		out := make([]int64, len(res))
		for i, r := range res {
			out[i] = r
			if r > span/2 {
				out[i] = r - span
			}
		}
		return out
	}
	for _, width := range []int{Width16, Width32, Width64} {
		m := newMatrix(width, dim)
		per, _, _ := chunkGeometry(m)
		if per > 16 || per&(per-1) != 0 {
			t.Fatalf("width %d: %d rows per chunk at dim %d, want a power of two <= 16", width, per, dim)
		}
		// The first chunk starts at one row, so a one-row shard pins one.
		m.appendRow(make([]int64, dim))
		if _, _, first := chunkGeometry(m); first != dim {
			t.Fatalf("width %d: a one-row matrix holds room for %d residues, want %d", width, first, dim)
		}
		m.truncate(0, dim)
		rng := rand.New(rand.NewSource(int64(width)))
		var ref [][]int64
		check := func(step string, rows ...int) {
			t.Helper()
			if _, chunks, _ := chunkGeometry(m); chunks < (len(ref)+per-1)/per || chunks > (len(ref)+per-1)/per+1 {
				t.Fatalf("width %d, %s: %d chunks for %d rows at %d per chunk", width, step, chunks, len(ref), per)
			}
			for _, r := range rows {
				if got := m.liftRow(r, dim, span, nil); !slices.Equal(got, lift(ref[r])) {
					t.Fatalf("width %d, %s: row %d of %d differs from the reference", width, step, r, len(ref))
				}
			}
		}
		checkAll := func(step string) {
			t.Helper()
			all := make([]int, len(ref))
			keys := make([]uint64, len(ref))
			rows := make([]int32, len(ref))
			for r := range ref {
				all[r], rows[r] = r, int32(r)
			}
			check(step, all...)
			for r := range ref {
				if got := m.scanCell(keys, rows, dim, ref[r], span, thr, coarseProbe{}); got != r {
					t.Fatalf("width %d, %s: scanCell for row %d's residues = %d", width, step, r, got)
				}
			}
		}
		for _, target := range []int{5*per + 1, 0, 3 * per, per - 1, 4*per + 2, 0} {
			for len(ref) != target {
				switch op := rng.Intn(10); {
				case len(ref) < target && op < 7, len(ref) > target && op < 2:
					row := randRow(rng, dim, span)
					m.appendRow(row)
					ref = append(ref, row)
					check("append", len(ref)-1)
				case len(ref) > 0 && op < 8:
					r, last := rng.Intn(len(ref)), len(ref)-1
					m.moveRow(r, last, dim)
					m.truncate(last, dim)
					ref[r] = ref[last]
					ref = ref[:last]
					if r < last {
						check("delete", r)
					} else {
						check("delete")
					}
				case len(ref) > 0:
					r := rng.Intn(len(ref))
					ref[r] = randRow(rng, dim, span)
					m.setRow(r, ref[r])
					check("set", r)
				}
			}
			checkAll(fmt.Sprintf("turn at %d rows", target))
		}
		// Alternating insert and delete at a chunk boundary keeps its
		// spare chunk instead of allocating one per insert.
		zero := make([]int64, dim)
		for range 2 * per {
			m.appendRow(zero)
		}
		allocs := testing.AllocsPerRun(20, func() {
			m.appendRow(zero)
			m.truncate(2*per, dim)
		})
		if allocs != 0 {
			t.Errorf("width %d: insert and delete at a chunk boundary allocate %v per cycle, want 0", width, allocs)
		}
	}
}
