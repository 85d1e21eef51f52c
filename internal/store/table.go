package store

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sketch"
)

// This file implements the sharded flat residue table behind the Scan
// store. Records are partitioned into P independent shards by a hash of
// their ID; each shard guards its state with its own RWMutex, so concurrent
// reads never touch the same lock cache line and an insert or delete
// contends only with operations on the same shard.
//
// Within a shard the precomputed mod-ka residues live in one flat row-major
// matrix packed to the narrowest width that holds the span (see packed.go),
// with a parallel record slice and a parallel per-row coarse summary word,
// so the early-exit scan of conditions (1)-(4) walks contiguous memory
// instead of chasing a pointer per record. Deletion swap-removes the row
// and re-points the moved record's ID at its new position.

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
	mu     sync.RWMutex
	mat    resMatrix // packed flat row-major residue matrix; nil until first insert
	coarse []uint64  // per-row coarse summary keys, parallel to recs
	recs   []*Record
	seqs   []uint64       // insertion sequence numbers, for stable All()
	byID   map[string]int // row of each record; byID[recs[i].ID] == i
}

// resTable is the sharded flat residue store.
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

func (t *resTable) numShards() int { return len(t.shards) }

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

// insert stores rec with its precomputed residues. res is copied; the caller
// may reuse its buffer.
func (t *resTable) insert(rec *Record, res []int64) error {
	if err := t.adoptDimension(len(res)); err != nil {
		return err
	}
	key := t.coarse.keyOf(res)
	sh := &t.shards[t.shardFor(rec.ID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.byID[rec.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateID, rec.ID)
	}
	if sh.mat == nil {
		sh.mat = newMatrix(t.width)
	}
	sh.byID[rec.ID] = len(sh.recs)
	sh.mat.appendRow(res)
	sh.coarse = append(sh.coarse, key)
	sh.recs = append(sh.recs, rec)
	sh.seqs = append(sh.seqs, t.seq.Add(1))
	t.count.Add(1)
	return nil
}

func (t *resTable) get(id string) (*Record, bool) {
	sh := &t.shards[t.shardFor(id)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	row, ok := sh.byID[id]
	if !ok {
		return nil, false
	}
	return sh.recs[row], true
}

// replace overwrites id's record and residues in place under the owning
// shard's write lock, keeping the row's position and insertion sequence.
// Readers therefore always observe a consistent (residues, record) pair —
// entirely the old template or entirely the new one, never a mix.
func (t *resTable) replace(rec *Record, res []int64) error {
	if err := t.adoptDimension(len(res)); err != nil {
		return err
	}
	key := t.coarse.keyOf(res)
	sh := &t.shards[t.shardFor(rec.ID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	row, ok := sh.byID[rec.ID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownID, rec.ID)
	}
	sh.mat.setRow(row, res)
	sh.coarse[row] = key
	sh.recs[row] = rec
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
	last := len(sh.recs) - 1
	if row != last {
		sh.mat.moveRow(row, last, dim)
		sh.coarse[row] = sh.coarse[last]
		sh.recs[row] = sh.recs[last]
		sh.seqs[row] = sh.seqs[last]
		sh.byID[sh.recs[row].ID] = row
	}
	sh.mat.truncate(last, dim)
	sh.coarse = sh.coarse[:last]
	sh.recs[last] = nil
	sh.recs = sh.recs[:last]
	sh.seqs = sh.seqs[:last]
	delete(sh.byID, id)
	t.count.Add(-1)
	return nil
}

// all snapshots every record in insertion order (by sequence number).
func (t *resTable) all() []*Record {
	type seqRec struct {
		seq uint64
		rec *Record
	}
	var rows []seqRec
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for j, rec := range sh.recs {
			rows = append(rows, seqRec{seq: sh.seqs[j], rec: rec})
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
// buf[:0] and returns the (possibly grown) slice.
func residuesInto(buf []int64, line *numberline.Line, s *sketch.Sketch) []int64 {
	span := line.IntervalSpan()
	buf = buf[:0]
	for _, m := range s.Movements {
		r := m % span
		if r < 0 {
			r += span
		}
		buf = append(buf, r)
	}
	return buf
}
