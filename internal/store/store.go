// Package store implements the authentication server's database of §V:
// records (ID, pk, P) keyed both by identity (verification mode) and by
// sketch similarity (identification mode).
//
// Identification lookup realises the paper's conditions (1)-(4), which
// reduce to a per-coordinate circular-distance test modulo the interval
// span ka (Theorem 2; see internal/sketch). The database is one concrete
// type, Scan: an early-exit linear scan over pre-computed residues. Almost
// every non-matching record is rejected by one branch-free word test of its
// coarse key, and the few the key admits after a geometric number of
// integer comparisons (expected < 1/(1-q) with q = (2t+1)/ka), so the cost
// per enrolled user is about a nanosecond — negligible next to one
// signature.
// The *cryptographic* cost of identification is one Rep and one signature
// regardless of the database size — the paper's constant-cost claim —
// while the normal approach of Fig. 2 pays one Rep per enrolled user. The
// experiment harness measures both.
//
// Concurrency and layout. Scan partitions its records into P independent
// shards (see table.go): readers of different shards never share a lock
// cache line, and an insert or delete contends with one shard only.
// Residues live in a row-major matrix per shard, packed to the narrowest
// integer width that holds the interval span ka and kept in fixed-size
// chunks of rows (see packed.go), so the early-exit scan streams a quarter
// of the bytes the naive int64 layout would and growth never copies a row. Each row has a coarse summary key of its bucketed leading
// residues, checked before the row, all of its fields in one lane-wise word
// expression, so an open-set (no-match) probe rejects almost every row after
// reading 8 bytes. A shard groups its rows into cells by the leading lanes
// of their keys, and a probe walks only the cells it can admit — at the
// paper's parameters 81 of 256, holding about a third of the rows. The
// packed row is the only copy of a record's movements (table.go): a lookup
// materialises the matched record into a caller-owned scratch *Record under
// the shard read lock, and with the probe residue buffers pooled a
// steady-state IdentifyInto or GetInto performs zero heap allocations.
// IdentifyInto scans shard by shard with one loop, on the caller's
// goroutine.
//
// Durability. Every tenant is a Journaled (journal.go) over its own *Scan:
// reads go straight to the Scan, and every Insert, Replace and Delete goes
// through one mutation body that stages a Mutation value into a Journal
// backend (internal/persist, internal/replica) before applying it. Open and
// Replay rebuild a Scan from a recovered mutation stream through the Scan's
// own apply, the same one the live path ends in.
package store

import (
	"context"
	"errors"
	"fmt"

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

// Scan is the early-exit linear-scan store, sharded for concurrent use.
type Scan struct {
	line *numberline.Line
	tab  *resTable
}

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

// Len returns the number of enrolled records.
func (s *Scan) Len() int { return s.tab.size() }

// Dimension returns the record dimension the store adopted at first
// insert, or 0 while it is empty.
func (s *Scan) Dimension() int { return s.tab.dimension() }

// Insert adds a record; the ID must be unused. The store keeps no
// reference to rec.
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

// Get returns a fresh copy of the record for a claimed identity
// (verification mode); it is GetInto into a new record.
func (s *Scan) Get(id string) (*Record, bool) {
	rec := new(Record)
	if !s.tab.getInto(id, rec) {
		return nil, false
	}
	return rec, true
}

// GetInto reports whether id is enrolled and, if so, overwrites dst with
// its record, reusing dst's buffers.
func (s *Scan) GetInto(id string, dst *Record) bool { return s.tab.getInto(id, dst) }

// Contains reports whether id is enrolled, materialising nothing.
func (s *Scan) Contains(id string) bool { return s.tab.getInto(id, nil) }

// Delete removes an enrolled record (revocation / re-enrollment).
func (s *Scan) Delete(id string) error { return s.tab.delete(id) }

// Replace atomically swaps the enrolled record for rec.ID with rec (online
// re-enrollment with fresh helper data); the ID must already be enrolled.
// The row is overwritten in place under its shard's write lock, so a
// concurrent Identify or Get sees the old template or the new one in full,
// never a mix.
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

// All returns a copy of every enrolled record in insertion-stable order,
// materialising the whole set. The normal-approach protocol of Fig. 2,
// snapshots and partition handoff iterate it.
func (s *Scan) All() []*Record { return s.tab.all() }

// Identify returns a fresh copy of a record whose enrolled sketch matches
// the probe under conditions (1)-(4), or ErrNotFound; it is IdentifyInto
// into a new record. When several records match (a false-close collision,
// bounded by the paper's FAR analysis), any of them may be returned; which
// one is layout- and scheduling-dependent.
func (s *Scan) Identify(probe *sketch.Sketch) (*Record, error) {
	rec := new(Record)
	if err := s.IdentifyInto(context.Background(), probe, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// IdentifyInto is Identify into dst, with cancellation: on a match it
// overwrites dst with the matched record and returns nil; otherwise dst is
// untouched. The lookup aborts with ctx.Err() once ctx is done.
func (s *Scan) IdentifyInto(ctx context.Context, probe *sketch.Sketch, dst *Record) error {
	// dim is read once: a first insert landing after validation must not
	// leave the scan slicing rows at an unchecked probe length. While dim is
	// 0 no row exists (insert adopts the dimension before storing the first
	// row), so a miss is the linearizable answer.
	dim := s.tab.dimension()
	if err := validateProbe(probe, dim); err != nil {
		return err
	}
	if dim == 0 {
		return ErrNotFound
	}
	bufp := getResBuf()
	defer putResBuf(bufp)
	res := residuesInto(*bufp, s.line, probe)
	*bufp = res
	span, t := s.line.IntervalSpan(), s.line.Threshold()
	cp := s.tab.coarse.probe(res) // published before the non-zero dim read above
	for si := range s.tab.shards {
		sh := &s.tab.shards[si]
		sh.mu.RLock()
		row, err := scanShardSeq(ctx, sh, res, span, t, cp)
		if row >= 0 {
			s.tab.load(sh, row, dst)
		}
		sh.mu.RUnlock()
		if row >= 0 || err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return ErrNotFound
}

// scanShardSeq walks the shard's cells that the probe admits, skipping the
// rest whole, checks the probe against each admitted cell's rows, and
// returns the first matching row or -1. It checks for cancellation before
// every scanBlock rows. The caller holds the shard read lock.
func scanShardSeq(ctx context.Context, sh *tableShard, probe []int64, span, t int64, cp coarseProbe) (int, error) {
	dim := len(probe)
	due := 0 // rows left before the next cancellation check
	for c := range sh.cells {
		if !cp.admitCell(c) {
			continue
		}
		cl := &sh.cells[c]
		for lo := 0; lo < len(cl.keys); lo += scanBlock {
			if due <= 0 {
				if err := ctx.Err(); err != nil {
					return -1, err
				}
				due = scanBlock
			}
			hi := min(lo+scanBlock, len(cl.keys))
			due -= hi - lo
			if i := sh.mat.scanCell(cl.keys[lo:hi], cl.rows[lo:hi], dim, probe, span, t, cp); i >= 0 {
				return i, nil
			}
		}
	}
	return -1, nil
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
func ByStrategyShards(name string, line *numberline.Line, shards int) (*Scan, error) {
	switch name {
	case "scan", "bucket":
		return NewScanShards(line, shards), nil
	default:
		return nil, fmt.Errorf("store: unknown strategy %q", name)
	}
}
