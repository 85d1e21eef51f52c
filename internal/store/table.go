package store

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sketch"
)

// This file implements the sharded residue table behind the Scan
// store. Records are partitioned into P independent shards by a hash of
// their ID; each shard guards its state with its own RWMutex, so concurrent
// reads never touch the same lock cache line and an insert or delete
// contends only with operations on the same shard.
//
// Within a shard the precomputed mod-ka residues live in one row-major
// matrix packed to the narrowest width that holds the span and stored in
// fixed-size chunks of rows (see packed.go), and the row metadata lives in
// chunks of the same rows beside it. Each row's coarse summary word lives
// in the row's cell: rows are grouped by the buckets of their leading
// coarse lanes, and a cell lists its members' keys and rows side by side,
// so the early-exit scan of conditions (1)-(4) skips every cell whose
// buckets miss the probe's and streams the keys of the rest. Deletion
// swap-removes the row from the matrix, its metadata and its entry from
// its cell, and re-points the moved entries at their new positions.
//
// The packed row is the only copy of a record's movements. The store keeps
// no caller *Record: a movement s_i is recovered from its residue r by the
// canonical lift (r if r <= ka/2, else r - ka), and the few coordinates the
// lift does not reproduce — the -ka/2 boundary coin, and any movement outside
// (ka/2 - ka, ka/2] — are kept verbatim in the row's exception list, so the
// encoding is lossless for every int64 input. A reader materialises a record
// into a caller-owned scratch *Record under the shard read lock (load), which
// is what makes a concurrent Replace appear wholly old or wholly new.

// defaultShards picks the shard count for stores built without an explicit
// one: the scheduler's parallelism, but at least 4 so sharding stays
// exercised (and effective under later GOMAXPROCS raises) on small hosts.
func defaultShards() int {
	p := runtime.GOMAXPROCS(0)
	if p < 4 {
		p = 4
	}
	if p > maxShards {
		p = maxShards
	}
	return p
}

// maxShards bounds the shard count; past the core count extra shards only
// cost constant per-shard overhead on every Identify.
const maxShards = 64

// Tuning selects a non-production packed layout for tests that compare
// layouts. The zero value is production behaviour: automatic (narrowest
// safe) residue width and the coarse pre-filter on.
type Tuning struct {
	// ResidueWidth forces the packed matrix storage width: 0 (automatic
	// from the line span), or one of Width16/Width32/Width64. An explicit
	// width may only widen the automatic choice — Width64 reproduces the
	// pre-packing layout for A/B measurement.
	ResidueWidth int
	// NoCoarseFilter disables the per-row coarse pre-filter.
	NoCoarseFilter bool
}

// tableShard is one shard of the residue table.
type tableShard struct {
	mu    sync.RWMutex
	mat   resMatrix        // packed row-major residue matrix; nil until first insert
	cells []cell           // rows grouped by the cell lanes of their coarse key; nil until first insert
	meta  chunked[rowMeta] // everything but the residues, chunked like mat; meta.rows counts the shard's rows
	byID  map[string]int   // row of each record; byID[row(i).id] == i
}

// row returns row i's metadata.
func (sh *tableShard) row(i int) *rowMeta { return &sh.meta.row(i, 1)[0] }

// cell lists the shard rows whose coarse keys share their cell lanes, with
// each member's key beside its row: rows[i] is the row whose key is
// keys[i], and that row's meta points back at (its cell, i).
type cell struct {
	keys []uint64
	rows []int32
}

// rowMeta is what a row keeps beside its packed residues: the record minus
// its movements, plus the exceptions to the canonical lift, and the place
// of the row's entry in its cell.
type rowMeta struct {
	id        string
	pk        []byte // pk and seed share one store-owned allocation
	seed      []byte
	digest    [sketch.DigestSize]byte
	exc       []exception
	seq       uint64 // insertion sequence number, for stable All()
	cell, pos int32  // sh.cells[cell].rows[pos] is this row
}

// exception is one coordinate whose enrolled movement the canonical lift of
// its residue does not reproduce.
type exception struct {
	coord int32
	mv    int64
}

// resTable is the sharded residue store.
type resTable struct {
	line     *numberline.Line
	shards   []tableShard
	width    int  // resolved packed storage width (bits)
	noCoarse bool // tuning: coarse pre-filter disabled

	dimMu  sync.Mutex   // serialises first-insert dimension adoption
	dim    atomic.Int64 // record dimension; 0 until the first insert
	coarse coarseParams // sized at dimension adoption; valid once dim != 0
	seq    atomic.Uint64
	count  atomic.Int64
}

func newResTableTuned(line *numberline.Line, shards int, tun Tuning) (*resTable, error) {
	if shards < 1 {
		shards = defaultShards()
	}
	if shards > maxShards {
		shards = maxShards
	}
	width, err := resolveWidth(tun.ResidueWidth, line.IntervalSpan())
	if err != nil {
		return nil, err
	}
	t := &resTable{
		line:     line,
		shards:   make([]tableShard, shards),
		width:    width,
		noCoarse: tun.NoCoarseFilter,
	}
	for i := range t.shards {
		t.shards[i].byID = make(map[string]int)
	}
	return t, nil
}

// shardFor maps an ID to its owning shard (FNV-1a).
func (t *resTable) shardFor(id string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return int(h % uint64(len(t.shards)))
}

func (t *resTable) size() int { return int(t.count.Load()) }

// dimension returns the adopted record dimension (0 while empty). The value
// is monotone: once set it never changes, so a lock-free read is safe.
func (t *resTable) dimension() int { return int(t.dim.Load()) }

// adoptDimension fixes the table dimension at first insert and rejects
// mismatching records afterwards. It also sizes the coarse pre-filter and
// raises the pooled probe-buffer hint, both of which need the dimension;
// publishing dim last (an atomic release) makes them visible to every
// reader that observed a non-zero dimension.
func (t *resTable) adoptDimension(n int) error {
	if d := t.dim.Load(); d != 0 {
		if int(d) != n {
			return fmt.Errorf("%w: got %d, want %d", ErrBadDimension, n, d)
		}
		return nil
	}
	t.dimMu.Lock()
	defer t.dimMu.Unlock()
	if d := t.dim.Load(); d != 0 {
		if int(d) != n {
			return fmt.Errorf("%w: got %d, want %d", ErrBadDimension, n, d)
		}
		return nil
	}
	t.coarse = coarseParamsFor(t.line, n, t.noCoarse)
	raiseResBufHint(n)
	t.dim.Store(int64(n))
	return nil
}

// newRow builds rec's row metadata: copies of its public key and seed, and
// the exceptions to the canonical lift of its residues. A movement m is
// an exception unless it lies in (half-span, half], the lift's image; the
// test is written on the movement, not through the lift, so the two are
// independent statements of the same range that the store fuzzer checks
// against each other.
func (t *resTable) newRow(rec *Record) rowMeta {
	span := t.line.IntervalSpan()
	half := span / 2
	h := rec.Helper
	var exc []exception
	for j, m := range h.Sketch.Sketch.Movements {
		if m <= half-span || m > half {
			exc = append(exc, exception{coord: int32(j), mv: m})
		}
	}
	buf := make([]byte, len(rec.PublicKey)+len(h.Seed))
	n := copy(buf, rec.PublicKey)
	copy(buf[n:], h.Seed)
	return rowMeta{id: rec.ID, pk: buf[:n:n], seed: buf[n:], digest: h.Sketch.Digest, exc: exc}
}

// load materialises row's record into dst, reusing dst's buffers; nothing of
// dst aliases the store afterwards. The caller holds the shard's read lock,
// so a concurrent replace is seen wholly old or wholly new.
func (t *resTable) load(sh *tableShard, row int, dst *Record) {
	r := sh.row(row)
	dst.ID = r.id
	dst.PublicKey = append(dst.PublicKey[:0], r.pk...)
	if dst.Helper == nil {
		dst.Helper = &core.HelperData{}
	}
	h := dst.Helper
	if h.Sketch == nil {
		h.Sketch = &sketch.RobustSketch{}
	}
	if h.Sketch.Sketch == nil {
		h.Sketch.Sketch = &sketch.Sketch{}
	}
	h.Seed = append(h.Seed[:0], r.seed...)
	h.Sketch.Digest = r.digest
	s := h.Sketch.Sketch
	dim := t.dimension()
	s.Movements = sh.mat.liftRow(row, dim, t.line.IntervalSpan(), slices.Grow(s.Movements[:0], dim))
	for _, e := range r.exc {
		s.Movements[e.coord] = e.mv
	}
}

// insert stores rec with its precomputed residues. Nothing of rec is
// retained; the caller may reuse res.
func (t *resTable) insert(rec *Record, res []int64) error {
	if err := t.adoptDimension(len(res)); err != nil {
		return err
	}
	key := t.coarse.keyOf(res)
	meta := t.newRow(rec)
	sh := &t.shards[t.shardFor(rec.ID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.byID[rec.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateID, rec.ID)
	}
	if sh.mat == nil {
		sh.mat = newMatrix(t.width, len(res))
		sh.cells = make([]cell, t.coarse.cells())
		sh.meta = newChunked[rowMeta](chunkShift(t.width, len(res)))
	}
	row := sh.meta.rows
	sh.byID[rec.ID] = row
	sh.mat.appendRow(res)
	meta.seq = t.seq.Add(1)
	sh.meta.push(1)[0] = meta
	sh.link(row, key, t.coarse.cellMask)
	t.count.Add(1)
	return nil
}

// link appends row, whose coarse key is key, to the cell the key names.
func (sh *tableShard) link(row int, key, cellMask uint64) {
	c := int32(key & cellMask)
	cl := &sh.cells[c]
	r := sh.row(row)
	r.cell, r.pos = c, int32(len(cl.keys))
	cl.keys = append(cl.keys, key)
	cl.rows = append(cl.rows, int32(row))
}

// unlink swap-removes row's entry from its cell, re-pointing the entry
// moved into its place.
func (sh *tableShard) unlink(row int) {
	r := sh.row(row)
	cl := &sh.cells[r.cell]
	last := len(cl.keys) - 1
	if int(r.pos) != last {
		cl.keys[r.pos], cl.rows[r.pos] = cl.keys[last], cl.rows[last]
		sh.row(int(cl.rows[r.pos])).pos = r.pos
	}
	cl.keys, cl.rows = cl.keys[:last], cl.rows[:last]
}

// getInto reports whether id is enrolled and, when dst is non-nil, loads its
// record into dst.
func (t *resTable) getInto(id string, dst *Record) bool {
	sh := &t.shards[t.shardFor(id)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	row, ok := sh.byID[id]
	if ok && dst != nil {
		t.load(sh, row, dst)
	}
	return ok
}

// replace overwrites id's row in place under the owning shard's write lock,
// keeping the row's position and insertion sequence, and moves its cell
// entry to the cell its new key names. Readers therefore always observe a
// consistent (residues, key, metadata) triple — entirely the old template
// or entirely the new one, never a mix. The ID is checked before
// the dimension: an enrolled ID implies an adopted dimension, and a replace
// of an unknown ID must leave an empty store's dimension unset.
func (t *resTable) replace(rec *Record, res []int64) error {
	meta := t.newRow(rec)
	sh := &t.shards[t.shardFor(rec.ID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	row, ok := sh.byID[rec.ID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownID, rec.ID)
	}
	if d := t.dimension(); len(res) != d {
		return fmt.Errorf("%w: got %d, want %d", ErrBadDimension, len(res), d)
	}
	meta.seq = sh.row(row).seq
	sh.mat.setRow(row, res)
	sh.unlink(row)
	*sh.row(row) = meta
	sh.link(row, t.coarse.keyOf(res), t.coarse.cellMask)
	return nil
}

// delete removes id, swap-filling the hole with the shard's last row.
func (t *resTable) delete(id string) error {
	sh := &t.shards[t.shardFor(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	row, ok := sh.byID[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownID, id)
	}
	dim := int(t.dim.Load())
	sh.unlink(row)
	last := sh.meta.rows - 1
	if row != last {
		sh.mat.moveRow(row, last, dim)
		moved := sh.row(row)
		*moved = *sh.row(last)
		sh.byID[moved.id] = row
		sh.cells[moved.cell].rows[moved.pos] = int32(row)
	}
	sh.mat.truncate(last, dim)
	*sh.row(last) = rowMeta{}
	sh.meta.truncate(last)
	delete(sh.byID, id)
	t.count.Add(-1)
	return nil
}

// all materialises every record in insertion order (by sequence number).
func (t *resTable) all() []*Record {
	type seqRec struct {
		seq uint64
		rec *Record
	}
	var rows []seqRec
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for j := range sh.meta.rows {
			rec := new(Record)
			t.load(sh, j, rec)
			rows = append(rows, seqRec{seq: sh.row(j).seq, rec: rec})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].seq < rows[j].seq })
	out := make([]*Record, len(rows))
	for i, r := range rows {
		out[i] = r.rec
	}
	return out
}

// resBufPool recycles probe-residue buffers so a steady-state Identify does
// not allocate. resBufHint tracks the largest dimension any live table has
// adopted, so buffers are sized to the workload instead of a fixed cap —
// large-dimension templates would otherwise regrow the buffer on every
// Identify.
var (
	resBufPool = sync.Pool{
		New: func() any {
			n := resBufHint.Load()
			if n < 256 {
				n = 256
			}
			b := make([]int64, 0, n)
			return &b
		},
	}
	resBufHint atomic.Int64
)

// raiseResBufHint lifts the pooled-buffer capacity hint to at least n
// (monotone CAS max).
func raiseResBufHint(n int) {
	for {
		cur := resBufHint.Load()
		if cur >= int64(n) {
			return
		}
		if resBufHint.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

func getResBuf() *[]int64 {
	b := resBufPool.Get().(*[]int64)
	if hint := resBufHint.Load(); int64(cap(*b)) < hint {
		nb := make([]int64, 0, hint)
		*b = nb
	}
	return b
}

func putResBuf(b *[]int64) { resBufPool.Put(b) }

// residuesInto appends the mod-ka residues of the sketch movements to
// buf[:0] and returns the (possibly grown) slice. A legal movement lies in
// [-ka/2, ka/2] and needs one conditional +ka; only a movement outside
// [-ka, ka) pays for the full reduction.
func residuesInto(buf []int64, line *numberline.Line, s *sketch.Sketch) []int64 {
	span := line.IntervalSpan()
	buf = buf[:0]
	for _, m := range s.Movements {
		r := m
		if r < 0 {
			r += span
		}
		if uint64(r) >= uint64(span) {
			r = m % span
			if r < 0 {
				r += span
			}
		}
		buf = append(buf, r)
	}
	return buf
}
