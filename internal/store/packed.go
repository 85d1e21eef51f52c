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
// before the first insert. Packing the row-major matrix to int16 or
// int32 halves or quarters the bytes the scan streams per row — and at
// millions of records the scan is memory-bandwidth-bound, not CPU-bound
// (the paper's decode/check per candidate is O(1); the search dominates).
//
// Three layers:
//
//   - matrix[T]: the generic packed storage, kept in fixed-size chunks of
//     rows, with a width-erased resMatrix interface. Interface dispatch
//     happens once per scanned stretch of a cell (at most a scanBlock of
//     rows), never per row, so the hot loop is monomorphic.
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
//     but ~(3/B)^F of rows after reading just 8 bytes per row. B is a power
//     of two, so all F coordinates are tested at once by one branch-free
//     lane-wise (SWAR) word expression per row. The same expression,
//     masked to a key's leading lanes, admits or skips a whole cell of rows
//     (table.go).

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

// resMatrix is the width-erased interface over the packed row-major residue
// matrix of one shard. The granularity of every scanning method is a row
// range, so the per-row hot path never pays interface dispatch.
type resMatrix interface {
	// appendRow packs res onto the end of the matrix.
	appendRow(res []int64)
	// moveRow overwrites row dst with row src (swap-delete relocation).
	moveRow(dst, src, dim int)
	// setRow overwrites row in place with res (re-enroll replacement).
	setRow(row int, res []int64)
	// truncate shrinks the matrix to the given row count.
	truncate(rows, dim int)
	// liftRow appends row's residues to dst, each lifted to its canonical
	// movement: r if r <= span/2, else r - span.
	liftRow(row, dim int, span int64, dst []int64) []int64
	// scanCell checks the probe against the rows of one cell's members,
	// consulting each member's coarse key first when cp is enabled, and
	// returns the first matching row index or -1.
	scanCell(keys []uint64, rows []int32, dim int, probe []int64, span, t int64, cp coarseProbe) int
}

// chunkBytes is the size a matrix chunk is cut to. A chunk holds the
// largest power-of-two number of rows that fits (at least one): 4 rows at
// the paper's n = 5000 and 16-bit residues, 512 at dim 64.
const chunkBytes = 64 << 10

// chunkShift returns log2 of the rows a matrix chunk holds at a storage
// width and record dimension. A shard's row metadata is chunked at the same
// shift, so metadata chunk k holds exactly the rows of residue chunk k.
func chunkShift(width, dim int) uint {
	per := max(1, chunkBytes/(dim*width/8))
	return uint(bits.Len(uint(per))) - 1
}

// chunked is row storage kept in fixed-size chunks of 1<<shift rows, each
// row stride elements wide: row r is row r&mask of chunk r>>shift. Growth
// allocates one chunk and never copies a row, so a shard's rows cost its
// live rows plus at most one partly filled chunk, and a spare empty one
// after a delete. Only the first chunk starts short and doubles up to its
// full size, so a shard of a few rows (a small tenant) does not pin a
// whole chunk. A shard keeps its packed residues (matrix) and its row
// metadata (table.go) in one each.
type chunked[T any] struct {
	chunks [][]T // (mask+1)*stride long, the first maybe less; at most one spare
	shift  uint
	mask   int
	rows   int
}

func newChunked[T any](shift uint) chunked[T] {
	return chunked[T]{shift: shift, mask: 1<<shift - 1}
}

// row returns row r, stride elements wide.
func (c *chunked[T]) row(r, stride int) []T {
	off := (r & c.mask) * stride
	return c.chunks[r>>c.shift][off : off+stride : off+stride]
}

// push appends a row stride elements wide and returns it for the caller to
// fill: it may hold a deleted row's elements.
func (c *chunked[T]) push(stride int) []T {
	k, end := c.rows>>c.shift, (c.rows&c.mask+1)*stride
	if k == len(c.chunks) {
		c.chunks = append(c.chunks, nil)
	}
	if ch := c.chunks[k]; end > len(ch) {
		size := (c.mask + 1) * stride
		if k == 0 {
			size = min(size, max(2*len(ch), end))
		}
		c.chunks[k] = append(make([]T, 0, size), ch...)[:size]
	}
	c.rows++
	return c.row(c.rows-1, stride)
}

// truncate shrinks the storage to the given row count, keeping the chunks
// the remaining rows use plus one spare, so a shard that alternates inserts
// and deletes at a chunk boundary does not allocate a chunk per insert.
func (c *chunked[T]) truncate(rows int) {
	c.rows = rows
	if keep := (rows+c.mask)>>c.shift + 1; keep < len(c.chunks) {
		clear(c.chunks[keep:])
		c.chunks = c.chunks[:keep]
	}
}

// matrix is the generic packed storage instantiated at one of the three
// widths by newMatrix: one row of dim residues per record, chunked.
type matrix[T resWord] struct {
	chunked[T]
}

// newMatrix constructs the packed matrix for a resolved storage width and
// the table's record dimension.
func newMatrix(width, dim int) resMatrix {
	shift := chunkShift(width, dim)
	switch width {
	case Width16:
		return &matrix[int16]{newChunked[int16](shift)}
	case Width32:
		return &matrix[int32]{newChunked[int32](shift)}
	default:
		return &matrix[int64]{newChunked[int64](shift)}
	}
}

func (m *matrix[T]) appendRow(res []int64) {
	dst := m.push(len(res))
	for j, r := range res {
		dst[j] = T(r)
	}
}

func (m *matrix[T]) moveRow(dst, src, dim int) {
	copy(m.row(dst, dim), m.row(src, dim))
}

func (m *matrix[T]) setRow(row int, res []int64) {
	dst := m.row(row, len(res))
	for j, r := range res {
		dst[j] = T(r)
	}
}

func (m *matrix[T]) truncate(rows, _ int) { m.chunked.truncate(rows) }

func (m *matrix[T]) liftRow(row, dim int, span int64, dst []int64) []int64 {
	half := span / 2
	for _, r := range m.row(row, dim) {
		v := int64(r)
		if v > half {
			v -= span
		}
		dst = append(dst, v)
	}
	return dst
}

func (m *matrix[T]) scanCell(keys []uint64, rows []int32, dim int, probe []int64, span, t int64, cp coarseProbe) int {
	rows = rows[:len(keys)]
	if cp.enabled {
		for j, k := range keys {
			if !cp.admit(k) {
				continue
			}
			if r := int(rows[j]); matchPacked(m.row(r, dim), probe, span, t) {
				return r
			}
		}
		return -1
	}
	for _, r := range rows {
		if matchPacked(m.row(int(r), dim), probe, span, t) {
			return int(r)
		}
	}
	return -1
}

// Coarse pre-filter sizing limits.
const (
	// maxCoarseBuckets caps buckets per summarised coordinate at 4-bit key
	// lanes, which still summarise 16 coordinates.
	maxCoarseBuckets = 16
	// minCoarseBuckets is the floor below which the filter is vacuous: with
	// B < 4 a bucket and its two neighbours are every bucket, so the filter
	// admits everything.
	minCoarseBuckets = 4
	// maxCoarseFields bounds the summarised coordinates: 64 key bits at a
	// minimum of 2 bits per coordinate.
	maxCoarseFields = 32
	// maxCoarseSpan guards the res*buckets products against int64 overflow
	// (the number line caps spans at 2^61; buckets at 16 needs 4 more bits).
	maxCoarseSpan = 1 << 59
	// cellKeyBits is how many low key bits name a row's cell: the first
	// max(1, cellKeyBits/bits) lanes, capped at F, so a shard has at most
	// 256 cells.
	cellKeyBits = 8
)

// coarseParams describes the per-row coarse summary adopted by a table once
// its dimension is known. Bucketing is multiplicative — bucket(r) =
// r*buckets/span, uniform circular arcs — which is what makes the filter
// sound: buckets <= span/t guarantees that two residues within circular
// distance t land in the same or circularly adjacent buckets (a division-
// based bucket width would break this at the ring seam whenever span is not
// a multiple of the width). Neighbour admission then can never reject a true
// match; see the equivalence and soundness tests in packed_test.go.
//
// B is a power of two, so a key field is a bits-wide lane whose arithmetic
// wraps mod 2^bits = B, the ring of buckets: admit tests every lane in one
// word expression. high and bit0 mark each summarised lane's top bit and
// bit 0; upper marks its bits 2 and above (none when lanes are 2 bits).
// cellMask marks the leading lanes that name a row's cell (table.go); with
// the filter off it is 0, so every row shares cell 0.
type coarseParams struct {
	enabled  bool
	buckets  int64 // B = 2^bits: buckets per summarised coordinate
	bits     uint  // key bits per coordinate
	fields   int   // F: summarised coordinates (leading F of each row)
	span     int64
	high     uint64
	bit0     uint64
	upper    uint64
	cellMask uint64
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
	kb := uint(bits.Len64(uint64(b))) - 1 // round B down to 2^kb: arcs only widen
	f := min(64/int(kb), maxCoarseFields, dim)
	c := coarseParams{enabled: true, buckets: 1 << kb, bits: kb, fields: f, span: span}
	for i := 0; i < f; i++ {
		lane := uint(i) * kb
		c.high |= 1 << (lane + kb - 1)
		c.bit0 |= 1 << lane
		c.upper |= (1<<kb - 4) << lane
	}
	c.cellMask = 1<<(uint(min(max(1, cellKeyBits/int(kb)), f))*kb) - 1
	return c
}

// cells is the number of cells a shard keeps: one per value of the key's
// cell lanes.
func (c coarseParams) cells() int { return int(c.cellMask) + 1 }

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

// coarseProbe is the probe-side admission test, six words wide: a row
// bucket k is within ±1 of the probe bucket b (mod B) exactly when the lane
// difference z = (k - (b-1)) mod B is 0, 1 or 2. subLow and subTop split
// the per-lane (b-1) mod B around the lane top bits (subLow = sub &^ high,
// subTop = ^sub & high) for the borrow-free lane subtraction; cellMask is
// the table's, for admitCell. It is plain
// value state (no pointers) so Identify can keep it on the stack.
type coarseProbe struct {
	enabled  bool
	high     uint64
	subLow   uint64
	subTop   uint64
	bit0     uint64
	upper    uint64
	cellMask uint64
}

// probe builds the admission words for one probe's residues.
func (c coarseParams) probe(res []int64) coarseProbe {
	if !c.enabled {
		return coarseProbe{}
	}
	var sub uint64
	for i := 0; i < c.fields; i++ {
		b := res[i] * c.buckets / c.span
		sub |= uint64((b-1+c.buckets)%c.buckets) << (uint(i) * c.bits)
	}
	return coarseProbe{
		enabled:  true,
		high:     c.high,
		subLow:   sub &^ c.high,
		subTop:   ^sub & c.high,
		bit0:     c.bit0,
		upper:    c.upper,
		cellMask: c.cellMask,
	}
}

// admit reports whether a row with the given summary key can possibly match
// the probe. False means provably no match; true means the full row check
// must run. Every lane is tested at once: z is the lane-wise key - sub mod B
// (setting each lane's top bit on the minuend and clearing it on the
// subtrahend stops borrows at lane boundaries; the xor restores the top
// bits), and a lane fails when z >= 4 (a bit at 2 or above) or z == 3
// (bits 0 and 1). Bits outside the summarised lanes are never examined.
func (cp *coarseProbe) admit(key uint64) bool { return cp.missedLanes(key) == 0 }

// admitCell reports whether any row of cell c can match the probe: admit
// restricted to the cell's lanes. A disabled probe has no cell lanes, so
// it admits its one cell.
func (cp *coarseProbe) admitCell(c int) bool { return cp.missedLanes(uint64(c))&cp.cellMask == 0 }

// missedLanes returns the key's lanes that lie outside the probe's ±1
// neighbourhood, each as a nonzero lane.
func (cp *coarseProbe) missedLanes(key uint64) uint64 {
	z := ((key | cp.high) - cp.subLow) ^ ((key ^ cp.subTop) & cp.high)
	return z & (cp.upper | z>>1&cp.bit0)
}
