package store

import (
	"fmt"
	"math/bits"

	"fuzzyid/internal/numberline"
)

// This file implements the packed residue matrix behind the sharded table of
// table.go, plus the two-level coarse pre-filter that makes the open-set
// (no-match) worst case cheap.
//
// Residues live in [0, ka): the interval span ka is fixed when the number
// line is built, so the narrowest machine integer that holds ka-1 is known
// before the first insert. Packing the flat row-major matrix to int16 or
// int32 halves or quarters the bytes the scan streams per row — and at
// millions of records the scan is memory-bandwidth-bound, not CPU-bound
// (the paper's decode/check per candidate is O(1); the search dominates).
//
// Three layers:
//
//   - matrix[T]: the generic packed storage with a width-erased resMatrix
//     interface. Interface dispatch happens once per scanned *range* (a
//     scanBlock of rows), never per row, so the hot loop is monomorphic.
//   - matchPacked: the block-vectorized condition check. The per-coordinate
//     early exit of matchRow is restructured into fixed-width blocks of
//     branchless circular-distance lanes whose verdicts OR together; the
//     geometric early exit applies per block instead of per element, which
//     trades a handful of redundant subtractions for a loop body the
//     compiler keeps free of unpredictable branches.
//   - coarseParams/coarseProbe: a per-row uint64 summary of the bucketed
//     leading residues, checked before the row is touched at all. A probe
//     admits a row only if every summarised coordinate lies in the same or
//     an adjacent circular bucket, so a random (open-set) probe rejects all
//     but ~(3/B)^F of rows after reading just 8 bytes per row.

// resWord is the set of storage widths a residue matrix can pack to.
type resWord interface {
	~int16 | ~int32 | ~int64
}

// Residue storage widths accepted by Tuning.ResidueWidth.
const (
	Width16 = 16
	Width32 = 32
	Width64 = 64
)

// widthForSpan returns the narrowest storage width whose signed range holds
// every residue in [0, span).
func widthForSpan(span int64) int {
	switch {
	case span <= 1<<15:
		return Width16
	case span <= 1<<31:
		return Width32
	default:
		return Width64
	}
}

// resolveWidth validates a requested storage width against the line's span.
// 0 selects the automatic (narrowest safe) width; an explicit request may
// only widen it — a debug override that forces the pre-packing int64 layout
// is legitimate, a width that cannot hold the residues is not.
func resolveWidth(requested int, span int64) (int, error) {
	need := widthForSpan(span)
	switch requested {
	case 0:
		return need, nil
	case Width16, Width32, Width64:
		if requested < need {
			return 0, fmt.Errorf("store: residue width %d cannot hold span %d (needs %d)", requested, span, need)
		}
		return requested, nil
	default:
		return 0, fmt.Errorf("store: invalid residue width %d (want 0, 16, 32 or 64)", requested)
	}
}

// matchBlock is the number of coordinates checked per early-exit decision in
// matchPacked. Eight lanes of int64 arithmetic fit comfortably in registers
// and give the compiler a fixed-trip-count inner loop to unroll.
const matchBlock = 8

// matchPacked runs the condition (1)-(4) circular-distance check of the
// probe residues against one packed row. Semantically identical to matchRow
// (the int64 reference implementation in the tests); structurally it is a
// block loop whose body is branch-free: each lane folds its verdict into an
// accumulator sign bit, and the block rejects if any lane exceeded the
// threshold.
func matchPacked[T resWord](row []T, probe []int64, span, t int64) bool {
	i := 0
	for ; i+matchBlock <= len(row); i += matchBlock {
		var bad int64
		for j := 0; j < matchBlock; j++ {
			d := int64(row[i+j]) - probe[i+j]
			m := d >> 63 // branchless |d|
			d = (d ^ m) - m
			if e := span - d; e < d { // compiles to CMOV, not a branch
				d = e
			}
			bad |= t - d // sign bit set iff d > t
		}
		if bad < 0 {
			return false
		}
	}
	for ; i < len(row); i++ {
		d := int64(row[i]) - probe[i]
		if d < 0 {
			d = -d
		}
		if e := span - d; e < d {
			d = e
		}
		if d > t {
			return false
		}
	}
	return true
}

// resMatrix is the width-erased interface over the packed flat row-major
// residue matrix of one shard. The granularity of every scanning method is a
// row range, so the per-row hot path never pays interface dispatch.
type resMatrix interface {
	// appendRow packs res onto the end of the matrix.
	appendRow(res []int64)
	// moveRow overwrites row dst with row src (swap-delete relocation).
	moveRow(dst, src, dim int)
	// setRow overwrites row in place with res (re-enroll replacement).
	setRow(row int, res []int64)
	// truncate shrinks the matrix to the given row count.
	truncate(rows, dim int)
	// scanRange checks the probe against rows [lo, hi), consulting the
	// coarse summary first when cp is enabled, and returns the first
	// matching row index or -1.
	scanRange(lo, hi, dim int, probe []int64, span, t int64, coarse []uint64, cp coarseProbe) int
}

// matrix is the generic packed storage instantiated at one of the three
// widths by newMatrix.
type matrix[T resWord] struct {
	data []T
}

// newMatrix constructs the packed matrix for a resolved storage width.
func newMatrix(width int) resMatrix {
	switch width {
	case Width16:
		return &matrix[int16]{}
	case Width32:
		return &matrix[int32]{}
	default:
		return &matrix[int64]{}
	}
}

func (m *matrix[T]) appendRow(res []int64) {
	if need := len(m.data) + len(res); cap(m.data) < need {
		grown := make([]T, len(m.data), need+need/2)
		copy(grown, m.data)
		m.data = grown
	}
	for _, r := range res {
		m.data = append(m.data, T(r))
	}
}

func (m *matrix[T]) moveRow(dst, src, dim int) {
	copy(m.data[dst*dim:(dst+1)*dim], m.data[src*dim:(src+1)*dim])
}

func (m *matrix[T]) setRow(row int, res []int64) {
	dst := m.data[row*len(res) : (row+1)*len(res)]
	for j, r := range res {
		dst[j] = T(r)
	}
}

func (m *matrix[T]) truncate(rows, dim int) {
	m.data = m.data[:rows*dim]
}

func (m *matrix[T]) scanRange(lo, hi, dim int, probe []int64, span, t int64, coarse []uint64, cp coarseProbe) int {
	if cp.enabled {
		for i := lo; i < hi; i++ {
			if !cp.admit(coarse[i]) {
				continue
			}
			off := i * dim
			if matchPacked(m.data[off:off+dim], probe, span, t) {
				return i
			}
		}
		return -1
	}
	for i := lo; i < hi; i++ {
		off := i * dim
		if matchPacked(m.data[off:off+dim], probe, span, t) {
			return i
		}
	}
	return -1
}

// Coarse pre-filter sizing limits.
const (
	// maxCoarseBuckets caps buckets per summarised coordinate so the
	// per-coordinate allowed set fits a uint16 bitmask.
	maxCoarseBuckets = 16
	// minCoarseBuckets is the floor below which the filter is vacuous: with
	// B < 4 every bucket is its own neighbour's neighbour, so the allowed
	// mask admits everything.
	minCoarseBuckets = 4
	// maxCoarseFields bounds the summarised coordinates: 64 key bits at a
	// minimum of 2 bits per coordinate.
	maxCoarseFields = 32
	// maxCoarseSpan guards the res*buckets products against int64 overflow
	// (the number line caps spans at 2^61; buckets at 16 needs 4 more bits).
	maxCoarseSpan = 1 << 59
)

// coarseParams describes the per-row coarse summary adopted by a table once
// its dimension is known. Bucketing is multiplicative — bucket(r) =
// r*buckets/span, uniform circular arcs — which is what makes the filter
// sound: buckets <= span/t guarantees that two residues within circular
// distance t land in the same or circularly adjacent buckets (a division-
// based bucket width would break this at the ring seam whenever span is not
// a multiple of the width). Neighbour admission then can never reject a true
// match; see the equivalence and soundness tests in packed_test.go.
type coarseParams struct {
	enabled bool
	buckets int64  // B: buckets per summarised coordinate
	bits    uint   // key bits per coordinate
	mask    uint64 // (1 << bits) - 1
	fields  int    // F: summarised coordinates (leading F of each row)
	span    int64
}

// coarseParamsFor sizes the filter for a line and record dimension.
func coarseParamsFor(line *numberline.Line, dim int, disabled bool) coarseParams {
	span, t := line.IntervalSpan(), line.Threshold()
	if disabled || span > maxCoarseSpan || dim == 0 {
		return coarseParams{}
	}
	b := int64(maxCoarseBuckets)
	if t > 0 && span/t < b {
		b = span / t // bucket arc >= t, the soundness condition
	}
	if b < minCoarseBuckets {
		return coarseParams{}
	}
	kb := uint(bits.Len64(uint64(b - 1)))
	f := 64 / int(kb)
	if f > maxCoarseFields {
		f = maxCoarseFields
	}
	if f > dim {
		f = dim
	}
	return coarseParams{
		enabled: true,
		buckets: b,
		bits:    kb,
		mask:    uint64(1)<<kb - 1,
		fields:  f,
		span:    span,
	}
}

// keyOf packs the bucket indices of the row's leading fields coordinates
// into the per-row summary word.
func (c coarseParams) keyOf(res []int64) uint64 {
	if !c.enabled {
		return 0
	}
	var key uint64
	for i := 0; i < c.fields; i++ {
		key |= uint64(res[i]*c.buckets/c.span) << (uint(i) * c.bits)
	}
	return key
}

// coarseProbe is the probe-side admission test: per summarised coordinate, a
// bitmask of the probe's own bucket and its two circular neighbours. It is
// plain value state (no pointers) so Identify can keep it on the stack.
type coarseProbe struct {
	enabled bool
	fields  int
	bits    uint
	mask    uint64
	allowed [maxCoarseFields]uint16
}

// probe builds the admission masks for one probe's residues.
func (c coarseParams) probe(res []int64) coarseProbe {
	var cp coarseProbe
	if !c.enabled {
		return cp
	}
	cp.enabled, cp.fields, cp.bits, cp.mask = true, c.fields, c.bits, c.mask
	for i := 0; i < c.fields; i++ {
		b := res[i] * c.buckets / c.span
		lo := (b - 1 + c.buckets) % c.buckets
		hi := (b + 1) % c.buckets
		cp.allowed[i] = 1<<uint(b) | 1<<uint(lo) | 1<<uint(hi)
	}
	return cp
}

// admit reports whether a row with the given summary key can possibly match
// the probe. False means provably no match; true means the full row check
// must run.
func (cp *coarseProbe) admit(key uint64) bool {
	for i := 0; i < cp.fields; i++ {
		if cp.allowed[i]>>(key&cp.mask)&1 == 0 {
			return false
		}
		key >>= cp.bits
	}
	return true
}
