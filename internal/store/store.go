// Package store implements the authentication server's database of §V:
// records (ID, pk, P) keyed both by identity (verification mode) and by
// sketch similarity (identification mode).
//
// Identification lookup realises the paper's conditions (1)-(4), which
// reduce to a per-coordinate circular-distance test modulo the interval
// span ka (Theorem 2; see internal/sketch). Scan, the one Store
// implementation, is an early-exit linear scan over pre-computed residues:
// each non-matching record is rejected after a geometric number of integer
// comparisons (expected < 1/(1-q) with q = (2t+1)/ka), so the cost per
// enrolled user is a few nanoseconds — negligible next to one signature.
// The *cryptographic* cost of identification is one Rep and one signature
// regardless of the database size — the paper's constant-cost claim —
// while the normal approach of Fig. 2 pays one Rep per enrolled user. The
// experiment harness measures both.
//
// Concurrency and layout. Scan partitions its records into P independent
// shards (see table.go): readers of different shards never share a lock
// cache line, and an insert or delete contends with one shard only.
// Residues live in a flat row-major matrix per shard, packed to the
// narrowest integer width that holds the interval span ka (see packed.go),
// so the early-exit scan streams a quarter of the bytes the naive int64
// layout would; a per-row coarse summary of the bucketed leading residues is
// checked before each row so an open-set (no-match) probe rejects almost
// every row after reading 8 bytes. Probe residue buffers are pooled — a
// steady-state Identify performs zero heap allocations. Large scans fan out
// across the shards with first-match cancellation (IdentifyCtx), and
// IdentifyBatch amortises residue computation and lock acquisition across a
// whole batch of probes.
//
// Durability. Mutations are expressed as Mutation values behind the
// journal seam of journal.go: the Journaled wrapper funnels every
// Insert/Delete through one interception point into a Journal backend
// (internal/persist), and Open/Replay rebuild the store from a recovered
// mutation stream through the same path.
package store

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sketch"
)

// Errors returned by stores.
var (
	ErrDuplicateID  = errors.New("store: duplicate user ID")
	ErrUnknownID    = errors.New("store: unknown user ID")
	ErrNotFound     = errors.New("store: no record matches")
	ErrNilRecord    = errors.New("store: nil record or helper data")
	ErrBadDimension = errors.New("store: record dimension differs from store dimension")
	ErrBadProbe     = errors.New("store: malformed probe sketch")
)

// Record is one enrolled user: the tuple (ID, pk, P) the server keeps.
type Record struct {
	// ID is the user identity.
	ID string
	// PublicKey is the serialized signature-verification key pk.
	PublicKey []byte
	// Helper is the public helper data P = (s, r).
	Helper *core.HelperData
}

// Store is the server database interface: Scan implements it, and the
// Journaled wrapper layers durability over any implementation.
type Store interface {
	// Insert adds a record; the ID must be unused.
	Insert(*Record) error
	// Get returns the record for a claimed identity (verification mode).
	Get(id string) (*Record, bool)
	// Delete removes an enrolled record (revocation / re-enrollment).
	Delete(id string) error
	// Replace atomically swaps the enrolled record for rec.ID with rec
	// (online re-enrollment with fresh helper data). The ID must already be
	// enrolled. Concurrent readers observe either the old template or the
	// new one in full — never a mix of the two.
	Replace(*Record) error
	// Identify returns a record whose enrolled sketch matches the probe
	// under conditions (1)-(4), or ErrNotFound. When several records match
	// (a false-close collision, bounded by the paper's FAR analysis), any
	// of them may be returned; which one is layout- and
	// scheduling-dependent.
	Identify(probe *sketch.Sketch) (*Record, error)
	// IdentifyCtx is Identify with cancellation: the lookup aborts with
	// ctx.Err() once ctx is done.
	IdentifyCtx(ctx context.Context, probe *sketch.Sketch) (*Record, error)
	// IdentifyBatch resolves many probes in one call, amortising probe
	// validation, residue computation and lock acquisition across the
	// batch. The result is aligned with probes; a nil element means no
	// record matched that probe. An error is returned only for malformed
	// probes.
	IdentifyBatch(probes []*sketch.Sketch) ([]*Record, error)
	// All returns a snapshot of every enrolled record in insertion-stable
	// order. The normal-approach protocol of Fig. 2 iterates it.
	All() []*Record
	// Len returns the number of enrolled records.
	Len() int
	// Dimension returns the record dimension the store adopted at first
	// insert, or 0 while it is empty.
	Dimension() int
}

// validateProbe rejects nil, empty and wrong-dimension probes. dim is the
// store's adopted dimension (0 while the store is empty).
func validateProbe(probe *sketch.Sketch, dim int) error {
	if probe == nil || len(probe.Movements) == 0 {
		return ErrBadProbe
	}
	if dim != 0 && len(probe.Movements) != dim {
		return fmt.Errorf("%w: probe dimension %d, store %d", ErrBadProbe, len(probe.Movements), dim)
	}
	return nil
}

// scanBlock is the number of rows scanned between cancellation checks.
const scanBlock = 256

// scanParallelRows is the table size from which a single Identify fans out
// across the shards instead of walking them sequentially; below it the
// goroutine handoff costs more than the scan.
const scanParallelRows = 1 << 14

// Scan is the early-exit linear-scan store, sharded for concurrent use.
type Scan struct {
	line *numberline.Line
	tab  *resTable
}

var _ Store = (*Scan)(nil)

// NewScan constructs a scan store over the given line with the default
// shard count (the scheduler's parallelism).
func NewScan(line *numberline.Line) *Scan { return NewScanShards(line, 0) }

// NewScanShards constructs a scan store with an explicit shard count;
// shards < 1 selects the default.
func NewScanShards(line *numberline.Line, shards int) *Scan {
	s, err := NewScanTuned(line, shards, Tuning{})
	if err != nil {
		// Unreachable: the zero Tuning always resolves.
		panic(err)
	}
	return s
}

// NewScanTuned constructs a scan store with an explicit packed layout; see
// Tuning. It exists so tests can build the reference layouts (64-bit
// residues, no coarse filter) next to the production one, and fails only on
// an invalid or too-narrow ResidueWidth.
func NewScanTuned(line *numberline.Line, shards int, tun Tuning) (*Scan, error) {
	tab, err := newResTableTuned(line, shards, tun)
	if err != nil {
		return nil, err
	}
	return &Scan{line: line, tab: tab}, nil
}

// Len implements Store.
func (s *Scan) Len() int { return s.tab.size() }

// Dimension implements Store.
func (s *Scan) Dimension() int { return s.tab.dimension() }

// Insert implements Store.
func (s *Scan) Insert(rec *Record) error {
	if err := validateRecord(rec); err != nil {
		return err
	}
	bufp := getResBuf()
	res := residuesInto(*bufp, s.line, rec.Helper.Sketch.Sketch)
	*bufp = res
	err := s.tab.insert(rec, res)
	putResBuf(bufp)
	return err
}

// Get implements Store.
func (s *Scan) Get(id string) (*Record, bool) { return s.tab.get(id) }

// Delete implements Store.
func (s *Scan) Delete(id string) error { return s.tab.delete(id) }

// Replace implements Store. The row is overwritten in place under its
// shard's write lock, so a concurrent Identify or Get sees the old template
// or the new one, never a mix.
func (s *Scan) Replace(rec *Record) error {
	if err := validateRecord(rec); err != nil {
		return err
	}
	bufp := getResBuf()
	res := residuesInto(*bufp, s.line, rec.Helper.Sketch.Sketch)
	*bufp = res
	err := s.tab.replace(rec, res)
	putResBuf(bufp)
	return err
}

// All implements Store.
func (s *Scan) All() []*Record { return s.tab.all() }

// Identify implements Store.
func (s *Scan) Identify(probe *sketch.Sketch) (*Record, error) {
	return s.IdentifyCtx(context.Background(), probe)
}

// IdentifyCtx implements Store.
func (s *Scan) IdentifyCtx(ctx context.Context, probe *sketch.Sketch) (*Record, error) {
	if err := validateProbe(probe, s.tab.dimension()); err != nil {
		return nil, err
	}
	bufp := getResBuf()
	defer putResBuf(bufp)
	res := residuesInto(*bufp, s.line, probe)
	*bufp = res
	span, t := s.line.IntervalSpan(), s.line.Threshold()
	cp := s.tab.probeFilter(res)
	if s.tab.size() >= scanParallelRows && s.tab.numShards() > 1 && runtime.GOMAXPROCS(0) > 1 {
		return s.identifyParallel(ctx, res, span, t, cp)
	}
	for si := range s.tab.shards {
		sh := &s.tab.shards[si]
		sh.mu.RLock()
		rec, err := scanShardSeq(ctx, sh, res, span, t, cp)
		sh.mu.RUnlock()
		if rec != nil || err != nil {
			return rec, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return nil, ErrNotFound
}

// probeFilter builds the coarse admission masks for one probe. The filter
// parameters are published by the dim store in adoptDimension, so they may
// be read only after observing a non-zero dimension (the atomic load pairs
// with that release store); while the table is empty the zero (disabled)
// probe is returned, which admits every row.
func (t *resTable) probeFilter(res []int64) coarseProbe {
	if t.dim.Load() == 0 {
		return coarseProbe{}
	}
	return t.coarse.probe(res)
}

// scanShardSeq walks one shard's packed matrix with per-block early exit,
// checking for cancellation between blocks. The caller holds the shard read
// lock.
func scanShardSeq(ctx context.Context, sh *tableShard, probe []int64, span, t int64, cp coarseProbe) (*Record, error) {
	dim := len(probe)
	n := len(sh.recs)
	for base := 0; base < n; base += scanBlock {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := base + scanBlock
		if end > n {
			end = n
		}
		if i := sh.mat.scanRange(base, end, dim, probe, span, t, sh.coarse, cp); i >= 0 {
			return sh.recs[i], nil
		}
	}
	return nil, nil
}

// scanJob carries one fanned-out Identify across the shard workers. Jobs are
// pooled so the parallel path stays allocation-free in steady state.
type scanJob struct {
	tab     *resTable
	probe   []int64
	span, t int64
	cp      coarseProbe
	ctx     context.Context
	stop    atomic.Bool
	found   atomic.Pointer[Record]
	wg      sync.WaitGroup
}

var scanJobPool = sync.Pool{New: func() any { return new(scanJob) }}

// identifyParallel fans the scan out with one worker per shard — a pool
// bounded by the shard count — and cancels the stragglers on first match.
func (s *Scan) identifyParallel(ctx context.Context, probe []int64, span, t int64, cp coarseProbe) (*Record, error) {
	job := scanJobPool.Get().(*scanJob)
	job.tab, job.probe, job.span, job.t, job.ctx = s.tab, probe, span, t, ctx
	job.cp = cp
	job.stop.Store(false)
	job.found.Store(nil)
	for si := range s.tab.shards {
		job.wg.Add(1)
		go job.scanShard(si)
	}
	job.wg.Wait()
	rec := job.found.Load()
	job.tab, job.probe, job.ctx = nil, nil, nil
	scanJobPool.Put(job)
	if rec != nil {
		return rec, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return nil, ErrNotFound
}

func (j *scanJob) scanShard(si int) {
	defer j.wg.Done()
	sh := &j.tab.shards[si]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	dim := len(j.probe)
	n := len(sh.recs)
	for base := 0; base < n; base += scanBlock {
		if j.stop.Load() || j.ctx.Err() != nil {
			return
		}
		end := base + scanBlock
		if end > n {
			end = n
		}
		if i := sh.mat.scanRange(base, end, dim, j.probe, j.span, j.t, sh.coarse, j.cp); i >= 0 {
			j.found.CompareAndSwap(nil, sh.recs[i])
			j.stop.Store(true)
			return
		}
	}
}

// IdentifyBatch implements Store. Residues are computed once per probe and
// every shard lock is taken once for the whole batch.
func (s *Scan) IdentifyBatch(probes []*sketch.Sketch) ([]*Record, error) {
	dim := s.tab.dimension()
	for i, p := range probes {
		if err := validateProbe(p, dim); err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
	}
	out := make([]*Record, len(probes))
	if len(probes) == 0 || s.tab.size() == 0 {
		return out, nil
	}
	span, t := s.line.IntervalSpan(), s.line.Threshold()
	pdim := len(probes[0].Movements)
	resAll := make([]int64, len(probes)*pdim)
	cps := make([]coarseProbe, len(probes))
	for i, p := range probes {
		residuesInto(resAll[i*pdim:i*pdim:(i+1)*pdim], s.line, p)
		cps[i] = s.tab.probeFilter(resAll[i*pdim : (i+1)*pdim])
	}
	remaining := len(probes)
	for si := range s.tab.shards {
		sh := &s.tab.shards[si]
		sh.mu.RLock()
		for pi := range probes {
			if out[pi] != nil {
				continue
			}
			probeRes := resAll[pi*pdim : (pi+1)*pdim]
			rec, _ := scanShardSeq(context.Background(), sh, probeRes, span, t, cps[pi])
			if rec != nil {
				out[pi] = rec
				remaining--
			}
		}
		sh.mu.RUnlock()
		if remaining == 0 {
			break
		}
	}
	return out, nil
}

func validateRecord(rec *Record) error {
	if rec == nil || rec.Helper == nil || rec.Helper.Sketch == nil || rec.Helper.Sketch.Sketch == nil {
		return ErrNilRecord
	}
	if rec.ID == "" {
		return fmt.Errorf("%w: empty ID", ErrNilRecord)
	}
	if len(rec.PublicKey) == 0 {
		return fmt.Errorf("%w: empty public key", ErrNilRecord)
	}
	if rec.Helper.Dimension() == 0 {
		return fmt.Errorf("%w: empty sketch", ErrNilRecord)
	}
	return nil
}

// ByStrategyShards constructs the identification store with an explicit
// shard count (shards < 1 selects the default). Scan is the only store; the
// name survives because the benchmark harness pins this call with "bucket",
// the retired default, so both "scan" and "bucket" return a Scan and every
// other name is an error.
func ByStrategyShards(name string, line *numberline.Line, shards int) (Store, error) {
	switch name {
	case "scan", "bucket":
		return NewScanShards(line, shards), nil
	default:
		return nil, fmt.Errorf("store: unknown strategy %q", name)
	}
}
