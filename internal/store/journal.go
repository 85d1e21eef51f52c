package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"fuzzyid/internal/numberline"
)

// This file defines the mutation-journal seam between the in-memory store
// and any durability backend (internal/persist today; a remote KV or
// replication stream tomorrow). All state changes are expressed as Mutation
// values; the Journaled wrapper is the single interception point through
// which every Insert, Replace and Delete flows, and Open/Replay rebuild the
// store from a recovered mutation stream through the very same path the
// live system uses.

// Op tags a journal mutation.
type Op byte

// Mutation operations. The values are part of the on-disk contract of
// internal/persist (they double as the mutation codec's wire tags for the
// untenanted encodings); append only. Values 3 and 4 are reserved: the wire
// codec uses them for the tenant-qualified forms of insert and delete.
const (
	// OpInsert records an enrollment.
	OpInsert Op = 1
	// OpDelete records a revocation.
	OpDelete Op = 2
	// OpTenantCreate records the creation of a tenant namespace. It is a
	// registry-level mutation: it ships over the replication stream so
	// followers mirror empty tenants, and never appears in a tenant's WAL
	// (the tenant's partition directory is its durable existence).
	OpTenantCreate Op = 5
	// OpTenantDrop records the removal of a tenant namespace and all its
	// records. Registry-level, like OpTenantCreate.
	OpTenantDrop Op = 6
	// OpReplace records an online re-enrollment: the record for an already
	// enrolled ID is atomically swapped for one carrying fresh helper data.
	// Unlike insert/delete there is no legacy untenanted encoding to stay
	// byte-compatible with — the wire tag always carries the tenant name,
	// with "" meaning the default tenant.
	OpReplace Op = 7
)

// Mutation is one committed store mutation — the unit a Journal records and
// recovery replays. Record is meaningful for OpInsert and OpReplace, ID for
// OpDelete; ID is also set for record-carrying ops as a convenience. Tenant
// names the
// namespace the mutation belongs to, with "" meaning the default tenant —
// the encoding mutations had before namespaces existed, so legacy journals
// replay unchanged into the default tenant.
type Mutation struct {
	Op     Op      // what the mutation does
	Record *Record // the enrolled record, for OpInsert
	ID     string  // the revoked identity, for OpDelete
	Tenant string  // the namespace; "" is the default tenant
}

// InsertMutation builds the journal entry for an enrollment.
func InsertMutation(rec *Record) Mutation {
	m := Mutation{Op: OpInsert, Record: rec}
	if rec != nil {
		m.ID = rec.ID
	}
	return m
}

// DeleteMutation builds the journal entry for a revocation.
func DeleteMutation(id string) Mutation { return Mutation{Op: OpDelete, ID: id} }

// ReplaceMutation builds the journal entry for an online re-enrollment.
func ReplaceMutation(rec *Record) Mutation {
	m := Mutation{Op: OpReplace, Record: rec}
	if rec != nil {
		m.ID = rec.ID
	}
	return m
}

// Journal is the one interception seam between the store and its
// durability and replication backends (the WAL, the replication hub, or a
// MultiJournal of both). Begin must fix the mutation's position in the
// journal (subsequent Begins order after it) before returning; the returned
// Commit completes the append, and a nil Commit (with nil error) means the
// append is already as durable as the backend makes it. The Journaled
// wrapper calls Begin under its mutation lock — fixing journal order — and
// Wait outside it, so concurrent writers batch instead of serialising on
// the backend's fsync.
//
// Begin may not keep the mutation's Record, nor any slice it holds, after
// it returns: the caller owns them and may reuse them at once (the server
// recycles a decoded helper's movement vector after every enroll). A
// backend that needs the record later encodes it inside Begin, as the WAL
// does, or keeps its own copy, as the replication hub does.
type Journal interface {
	// Begin stages m in journal order and returns its pending commit.
	Begin(Mutation) (Commit, error)
}

// Commit is the pending half of a staged journal append: Wait blocks until
// the mutation is durable to the backend's guarantee (or the backend
// failed). A group-committing WAL hands the same fsync to every Commit in a
// batch, so N concurrent writers share one sync.
type Commit interface {
	// Wait blocks until the staged mutation is durable, or the backend
	// failed.
	Wait() error
}

// MultiJournal fans one mutation out to several journals in order — e.g.
// the durable WAL first, then the replication hub — failing fast on the
// first error. A mutation is never offered to a later journal (and so never
// reaches a replica) unless every earlier journal staged it; under group
// commit a mutation may therefore reach the replication hub before its WAL
// fsync lands (asynchronous-replication semantics within the group window
// — see DESIGN.md §11).
type MultiJournal []Journal

var _ Journal = (MultiJournal)(nil)

// Begin implements Journal: every member stages the mutation, in order,
// failing fast. The returned Commit waits on every member's commit.
func (j MultiJournal) Begin(m Mutation) (Commit, error) {
	var cs multiCommit
	for _, inner := range j {
		c, err := inner.Begin(m)
		if err != nil {
			return nil, err
		}
		if c != nil {
			cs = append(cs, c)
		}
	}
	switch len(cs) {
	case 0:
		return nil, nil
	case 1:
		return cs[0], nil
	default:
		return cs, nil
	}
}

// multiCommit waits on several staged appends in order.
type multiCommit []Commit

// Wait implements Commit.
func (cs multiCommit) Wait() error {
	for _, c := range cs {
		if err := c.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// appendJournal stages m on j and waits for its commit: the synchronous
// append the registry uses for tenant create/drop ops.
func appendJournal(j Journal, m Mutation) error {
	c, err := j.Begin(m)
	if err != nil || c == nil {
		return err
	}
	return c.Wait()
}

// Snapshotter is a Journal backend that supports log compaction. Rotate
// atomically redirects subsequent appends to a fresh log segment and returns
// its sequence number; WriteSnapshot persists the full record set as the
// state preceding that segment and drops the segments it subsumes.
type Snapshotter interface {
	// Rotate redirects subsequent appends to a fresh segment and returns
	// its sequence number.
	Rotate() (seq uint64, err error)
	// WriteSnapshot persists recs as the full state preceding segment seq
	// and drops the segments it subsumes.
	WriteSnapshot(seq uint64, recs []*Record) error
}

// SnapshotBuckets is the size of the dirty-tracking bucket space: record IDs
// hash onto [0, SnapshotBuckets) and an incremental snapshot rewrites whole
// buckets. 2^20 buckets keep bucket occupancy near one record each up to
// roughly a million users, so a 1%-dirtied store rewrites about 1% of its
// bytes instead of all of them.
const SnapshotBuckets = 1 << 20

// SnapshotBucket maps a record ID to its dirty-tracking bucket (FNV-1a).
func SnapshotBucket(id string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return h % SnapshotBuckets
}

// IncrementalSnapshotter is a Snapshotter that can extend an existing
// snapshot with incremental cuts. IncrementOK reports whether an
// incremental cut is currently possible (a base snapshot exists and the
// chain is short enough to stay worth replaying); WriteIncrement persists
// recs as the complete record set of the given buckets at segment cut seq —
// a bucket listed with no record in recs is an emptied bucket, and recovery
// drops its previously snapshot records.
type IncrementalSnapshotter interface {
	Snapshotter
	// IncrementOK reports whether an incremental cut is possible now.
	IncrementOK() bool
	// WriteIncrement persists recs as the complete record set of buckets
	// at segment cut seq.
	WriteIncrement(seq uint64, buckets []uint32, recs []*Record) error
}

// ReplayFunc streams a recovered mutation sequence into apply, stopping at
// the first apply error. internal/persist.(*Log).Replay is the canonical
// implementation.
type ReplayFunc func(apply func(Mutation) error) error

// apply routes one mutation through the scan's own mutation methods — the
// step both Replay and the Journaled mutation body end in. The mutation's
// Tenant field is ignored: s is already the right tenant's store.
// Registry-level ops (tenant create/drop) cannot apply to a single store;
// they route through (*Registry).Apply instead.
func (s *Scan) apply(m Mutation) error {
	switch m.Op {
	case OpInsert:
		return s.Insert(m.Record)
	case OpDelete:
		return s.Delete(m.ID)
	case OpReplace:
		return s.Replace(m.Record)
	case OpTenantCreate, OpTenantDrop:
		return fmt.Errorf("store: tenant op %d outside a registry", m.Op)
	default:
		return fmt.Errorf("store: unknown mutation op %d", m.Op)
	}
}

// Replay rebuilds s from a mutation stream. The stream must be clean — a
// duplicate insert or unknown delete aborts the replay, surfacing journal
// corruption instead of papering over it. The caller must not access s
// concurrently until Replay returns. A nil replay is a no-op (fresh store).
func Replay(s *Scan, replay ReplayFunc) error {
	if replay == nil {
		return nil
	}
	n := 0
	return replay(func(m Mutation) error {
		if err := s.apply(m); err != nil {
			return fmt.Errorf("store: replay mutation %d (%q): %w", n, m.ID, err)
		}
		n++
		return nil
	})
}

// Open constructs a scan store and rebuilds it from a recovered mutation
// stream before any concurrent access is possible — the persistence-aware
// counterpart of NewScanShards.
func Open(line *numberline.Line, shards int, replay ReplayFunc) (*Scan, error) {
	s := NewScanShards(line, shards)
	if err := Replay(s, replay); err != nil {
		return nil, err
	}
	return s, nil
}

// Journaled is the tenant store: it wraps a *Scan so that every mutation
// flows through one interception point and is recorded in a Journal before
// it is applied — proper write-ahead ordering. Reads are the embedded
// Scan's own methods, called directly and as concurrent as its shards allow;
// mutations are serialised by one mutex so the journal order always equals
// the apply order. A mutation is validated up front (so the journal only
// ever records mutations that apply cleanly), staged in the journal, and
// applied — but acknowledged to the caller only once the journal's pending
// Commit (the group fsync, for a group-committing WAL) has landed. The
// mutex is not held across that wait, so concurrent writers share fsyncs.
// With a nil journal (an in-memory tenant) nothing is staged, but the mutex
// still carries the drop fence, the write gate and consistent cuts.
//
// Two visibility consequences, accepted for write throughput (DESIGN.md
// §11): a concurrent reader may observe a mutation inside its commit window
// — applied but not yet durable, its caller still unacknowledged — and if
// the journal fails at the durability step (fsync failure poisons the WAL)
// the in-memory store can be ahead of disk until restart, with all further
// mutations refused. A failure at the staging step still leaves memory
// untouched, exactly as before.
type Journaled struct {
	*Scan
	j      Journal     // nil: nothing to stage (an in-memory tenant)
	snap   Snapshotter // the backend Compact cuts into; nil: nothing to compact
	tenant string      // stamped onto every mutation; "" is the default tenant
	mu     sync.Mutex
	// dropped marks a store detached by Registry.Drop: further mutations
	// are refused, so a session that resolved the store before the drop
	// can never journal a mutation after the drop op shipped (which would
	// resurrect the tenant on followers).
	dropped bool
	// dirty tracks the snapshot buckets touched since the last snapshot
	// cut. It stays nil — and mutations track nothing — until a snapshot
	// will read it: SeedDirty or a Snapshot cut arms it. dirtyValid reports
	// the set is complete (it is not after a recovery whose WAL tail was
	// never seeded — see SeedDirty). Both are guarded by mu.
	dirty      map[uint32]struct{}
	dirtyValid bool
	// gate, when installed, is consulted under mu before any mutation is
	// staged; a non-nil verdict refuses the mutation without journalling
	// it. The cluster layer uses it as the handoff barrier: because the
	// check runs under the same mutex Registry.View holds for a consistent
	// cut, no mutation admitted before a slot freeze can land after the cut
	// that ships the slot's records away (guarded by mu).
	gate func(tenant, id string) error
}

// NewJournaled wraps inner so its mutations are recorded in j (nil: none).
// The store journals as the default tenant and has no snapshot backend; use
// NewJournaledTenant for a namespace or a durable tenant.
func NewJournaled(inner *Scan, j Journal) *Journaled {
	return &Journaled{Scan: inner, j: j}
}

// NewJournaledTenant wraps inner so its mutations are recorded in j (nil:
// none) stamped with the given tenant name, and Compact cuts snapshots into
// snap (nil: an in-memory tenant). The default tenant (by either spelling)
// is stamped as "" so its journal frames stay byte-identical to the
// pre-tenant encoding.
func NewJournaledTenant(inner *Scan, j Journal, snap Snapshotter, tenant string) *Journaled {
	if CanonicalTenant(tenant) == DefaultTenant {
		tenant = ""
	}
	return &Journaled{Scan: inner, j: j, snap: snap, tenant: tenant}
}

// SetWriteGate installs (or clears, with nil) the mutation gate: a check
// run under the mutation mutex before any mutation is staged, refusing it
// with the gate's error. The gate must be fast and must not touch the
// store.
func (s *Journaled) SetWriteGate(gate func(tenant, id string) error) {
	s.mu.Lock()
	s.gate = gate
	s.mu.Unlock()
}

// SeedDirty marks the snapshot buckets of mutations that reached the store
// outside this wrapper — the WAL tail a recovery replayed directly — and
// declares the dirty set complete, arming dirty tracking and incremental
// snapshots. Call it once, right after recovery, with the backend's
// replayed-tail buckets (persist.(*Log).TailDirty); a Journaled that is
// never seeded keeps taking full snapshots, which is always safe.
func (s *Journaled) SeedDirty(buckets []uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty == nil {
		s.dirty = make(map[uint32]struct{}, len(buckets))
	}
	for _, b := range buckets {
		s.dirty[b] = struct{}{}
	}
	s.dirtyValid = true
}

// Insert adds a record through the journal: validate, stage in the
// journal, apply, then wait for the journal's commit (the group fsync)
// before acknowledging.
func (s *Journaled) Insert(rec *Record) error { return s.mutate(InsertMutation(rec), true) }

// Replace swaps an enrolled record through the journal: validate (the ID
// must already be enrolled, the new helper data must match the store
// dimension), stage in the journal, apply, then wait for the journal's
// commit before acknowledging — exactly the write-ahead discipline of
// Insert, so WAL replay, incremental snapshots and the replication stream
// all carry re-enrollments for free.
func (s *Journaled) Replace(rec *Record) error { return s.mutate(ReplaceMutation(rec), true) }

// Delete removes an enrolled record through the journal: validate, stage
// in the journal, apply, then wait for the journal's commit before
// acknowledging.
func (s *Journaled) Delete(id string) error { return s.mutate(DeleteMutation(id), true) }

// IngestHandoff applies one record arriving from a partition handoff,
// bypassing the write gate — the target does not own the moving slots until
// the closing map flip, so gated inserts would refuse them. A record already
// present is replaced, making chunk retries idempotent.
func (s *Journaled) IngestHandoff(rec *Record) error {
	if s.Scan.Contains(rec.ID) {
		return s.mutate(ReplaceMutation(rec), false)
	}
	err := s.mutate(InsertMutation(rec), false)
	if errors.Is(err, ErrDuplicateID) {
		// Raced an identical retry; the other writer's copy stands.
		return s.mutate(ReplaceMutation(rec), false)
	}
	return err
}

// PurgeMoved journals and applies deletes for records a partition handoff
// shipped to another primary, bypassing the write gate — the handoff keeps
// the moved slots gated for regular traffic while the purge runs, and this
// is the one caller that must still mutate them. IDs no longer present are
// skipped (an earlier, interrupted purge may have removed them).
func (s *Journaled) PurgeMoved(ids []string) error {
	for _, id := range ids {
		if err := s.mutate(DeleteMutation(id), false); err != nil {
			if errors.Is(err, ErrUnknownID) {
				continue
			}
			return err
		}
	}
	return nil
}

// opName names a record mutation in journal errors.
func opName(op Op) string {
	switch op {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return "replace"
	}
}

// mutate is the one mutation body: under the mutation mutex it refuses a
// dropped store, consults the write gate (when gated), validates m against
// the current state, stages it in the journal and applies it; then it waits
// for the journal's commit outside the mutex.
func (s *Journaled) mutate(m Mutation, gated bool) error {
	s.mu.Lock()
	if err := s.admit(m, gated); err != nil {
		s.mu.Unlock()
		return err
	}
	m.Tenant = s.tenant
	var c Commit
	if s.j != nil {
		var err error
		if c, err = s.j.Begin(m); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("store: journal %s: %w", opName(m.Op), err)
		}
	}
	if err := s.Scan.apply(m); err != nil {
		// Unreachable after the pre-checks under s.mu; if it happens the
		// journal and memory have diverged — fail loudly, do not ack.
		s.mu.Unlock()
		return fmt.Errorf("store: %s diverged from journal: %w", opName(m.Op), err)
	}
	if s.dirty != nil {
		s.dirty[SnapshotBucket(m.ID)] = struct{}{}
	}
	s.mu.Unlock()
	if c != nil {
		if err := c.Wait(); err != nil {
			return fmt.Errorf("store: journal %s: %w", opName(m.Op), err)
		}
	}
	return nil
}

// admit runs mutate's pre-checks; caller holds s.mu.
func (s *Journaled) admit(m Mutation, gated bool) error {
	if s.dropped {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, CanonicalTenant(s.tenant))
	}
	if gated && s.gate != nil {
		if err := s.gate(CanonicalTenant(s.tenant), m.ID); err != nil {
			return err
		}
	}
	if m.Op != OpDelete {
		if err := validateRecord(m.Record); err != nil {
			return err
		}
	}
	switch present := s.Scan.Contains(m.ID); {
	case m.Op == OpInsert && present:
		return fmt.Errorf("%w: %q", ErrDuplicateID, m.ID)
	case m.Op != OpInsert && !present:
		return fmt.Errorf("%w: %q", ErrUnknownID, m.ID)
	}
	if d := s.Scan.Dimension(); m.Op != OpDelete && d != 0 && m.Record.Helper.Dimension() != d {
		return fmt.Errorf("%w: got %d, want %d", ErrBadDimension, m.Record.Helper.Dimension(), d)
	}
	return nil
}

// Compact cuts a snapshot into the backend the store was built with (see
// NewJournaledTenant) when a mutation may have landed since the last cut:
// the dirty set is unarmed or non-empty. It is a no-op for an in-memory
// store and for one detached by Registry.Drop, whose backend is gone — a
// cut that fails because a concurrent drop closed the backend is not an
// error.
func (s *Journaled) Compact() error {
	if s.snap == nil {
		return nil
	}
	s.mu.Lock()
	idle := s.dropped || (s.dirty != nil && len(s.dirty) == 0)
	s.mu.Unlock()
	if idle {
		return nil
	}
	err := s.Snapshot(s.snap)
	if err == nil {
		return nil
	}
	s.mu.Lock()
	dropped := s.dropped
	s.mu.Unlock()
	if dropped {
		return nil
	}
	return fmt.Errorf("store: snapshot tenant %q: %w", CanonicalTenant(s.tenant), err)
}

// Snapshot captures a compaction point: while mutations are briefly blocked
// it captures the record set, the dirty-bucket set, and a journal rotation,
// then — with mutations flowing again — persists the cut and lets the
// backend drop the subsumed segments. Mutations appended after the rotation
// land in the new segment and replay on top of the cut, so the pair is
// always consistent.
//
// When the backend is an IncrementalSnapshotter with a usable base and the
// dirty set is complete (see SeedDirty), only the records of dirtied
// buckets are written, as an incremental cut chained onto the base;
// otherwise the full record set is written, which (re)establishes the base
// and the dirty baseline. Dirty tracking is armed at the cut, under the
// mutex, so a mutation landing while the cut is written reaches the next
// increment.
func (s *Journaled) Snapshot(snap Snapshotter) error {
	inc, incremental := snap.(IncrementalSnapshotter)
	incremental = incremental && inc.IncrementOK()
	s.mu.Lock()
	incremental = incremental && s.dirtyValid
	recs := s.Scan.All()
	seq, err := snap.Rotate()
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: snapshot rotate: %w", err)
	}
	// The cut is fixed: mutations from here on dirty buckets for the NEXT
	// snapshot. A full cut resets the baseline outright.
	dirty := s.dirty
	s.dirty = make(map[uint32]struct{})
	s.mu.Unlock()
	if incremental {
		buckets := make([]uint32, 0, len(dirty))
		for b := range dirty {
			buckets = append(buckets, b)
		}
		sort.Slice(buckets, func(i, j int) bool { return buckets[i] < buckets[j] })
		sub := make([]*Record, 0, len(dirty))
		for _, r := range recs {
			if _, d := dirty[SnapshotBucket(r.ID)]; d {
				sub = append(sub, r)
			}
		}
		if err := inc.WriteIncrement(seq, buckets, sub); err != nil {
			// The cut did not commit: its buckets are still pending and must
			// ride along in the next attempt.
			s.mu.Lock()
			for b := range dirty {
				s.dirty[b] = struct{}{}
			}
			s.mu.Unlock()
			return fmt.Errorf("store: snapshot increment: %w", err)
		}
		return nil
	}
	err = snap.WriteSnapshot(seq, recs)
	// A failed full write established no base: the dirty set armed at the
	// cut cannot describe the distance to the (older) on-disk state.
	s.mu.Lock()
	s.dirtyValid = err == nil
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	return nil
}
