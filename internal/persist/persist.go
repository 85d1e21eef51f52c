// Package persist makes the authentication server's enrollment database
// durable: an append-only write-ahead log of enroll/revoke mutations plus
// periodic full snapshots with log compaction.
//
// The paper's server (§V) owns the database of (ID, pk, P) records; the
// in-memory strategies of internal/store make lookups fast, and this package
// makes them survive restarts and crashes. It plugs into the store layer
// through the mutation-journal seam (store.Journal / store.Snapshotter):
// every committed Insert/Delete is appended as one CRC-framed record to the
// active WAL segment, and a snapshot captures the full record set so the
// segments it subsumes can be deleted.
//
// Snapshots may be incremental: once a MANIFEST-described base exists, a
// cut can rewrite only the buckets dirtied since the previous cut (see
// incremental.go), chaining increments onto the base instead of rewriting
// the whole store.
//
// Recovery (Open + Replay) is: the snapshot chain (base + increments,
// newest-wins per bucket; or the newest monolithic snapshot in a
// pre-manifest directory), then the WAL segments at or after its cut, in
// order. A frame cut short by a crash mid-write — a torn final record — is
// tolerated at the tail of the newest segment: replay stops there and the
// segment is truncated to the last intact frame, exactly the prefix of
// mutations that were ever acknowledged. Corruption anywhere else is
// reported as ErrCorrupt rather than silently skipped.
//
// Durability is governed by the sync policy: SyncAlways (default) fsyncs
// before acknowledging every append, so an acknowledged enrollment survives
// power loss — with group commit (group.go) amortizing one fsync across all
// concurrently committing writers; SyncOS flushes to the kernel per append
// — surviving process death (SIGKILL) but not a machine crash — and fsyncs
// on rotation and close.
//
// Multi-tenant deployments partition one data dir per tenant: the default
// tenant owns the root (the exact layout pre-tenant deployments wrote, so
// old directories open unchanged) and each named tenant owns an
// independent Log under tenants/<name>/ (TenantDir), created on tenant
// creation and destroyed on drop (RemoveTenant). All partitions share one
// fsync policy.
package persist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fuzzyid/internal/store"
	"fuzzyid/internal/telemetry"
)

// Errors returned by the persistence layer.
var (
	// ErrCorrupt reports on-disk data that is neither intact nor a
	// tolerable torn tail.
	ErrCorrupt = errors.New("persist: corrupt data")
	// ErrNotRecovered reports use of a Log before Replay has run.
	ErrNotRecovered = errors.New("persist: log not recovered (call Replay first)")
	// ErrClosed reports use of a closed Log.
	ErrClosed = errors.New("persist: log closed")
)

// SyncPolicy selects when appends are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged mutation
	// survives power loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncOS flushes appends to the kernel immediately but fsyncs only on
	// rotation and close: acknowledged mutations survive process death
	// (crash, SIGKILL) but not an OS or power failure.
	SyncOS
)

// Option configures a Log.
type Option interface {
	apply(*Log)
}

type optionFunc func(*Log)

func (f optionFunc) apply(l *Log) { f(l) }

// WithSyncPolicy selects the fsync policy (default SyncAlways).
func WithSyncPolicy(p SyncPolicy) Option {
	return optionFunc(func(l *Log) { l.sync = p })
}

// WithTelemetry binds the log's instruments (WAL appends and bytes, fsyncs
// on the append/rotate/close path, snapshot count and duration) to reg. A
// nil reg leaves the log uninstrumented.
func WithTelemetry(reg *telemetry.Registry) Option {
	return optionFunc(func(l *Log) { l.m.bind(reg) })
}

// logMetrics are the persistence instruments. The zero value (nil
// instruments) is the uninstrumented state.
type logMetrics struct {
	appends     *telemetry.Counter   // mutations appended to the WAL
	appendBytes *telemetry.Counter   // framed bytes appended
	fsyncs      *telemetry.Counter   // fsyncs on the active segment
	fsyncDur    *telemetry.Histogram // latency of each fsync on the append path
	groupSize   *telemetry.Histogram // appends acknowledged per group-commit fsync
	snapshots   *telemetry.Counter   // snapshots written (full and incremental)
	incSnaps    *telemetry.Counter   // incremental snapshots among them
	snapDur     *telemetry.Histogram // snapshot write+purge duration
}

func (m *logMetrics) bind(reg *telemetry.Registry) {
	m.appends = reg.Counter("persist.wal.appends")
	m.appendBytes = reg.Counter("persist.wal.append_bytes")
	m.fsyncs = reg.Counter("persist.wal.fsyncs")
	m.fsyncDur = reg.Histogram("persist.wal.fsync_latency")
	m.groupSize = reg.Histogram("persist.wal.group_size")
	m.snapshots = reg.Counter("persist.snapshots")
	m.incSnaps = reg.Counter("persist.snapshots.incremental")
	m.snapDur = reg.Histogram("persist.snapshot.duration")
}

// Log is a durable mutation journal over one directory. It implements
// store.Journal and store.Snapshotter. The lifecycle is Open -> Replay ->
// (Begin/Append | Rotate/WriteSnapshot)* -> Close; appends and Rotate are
// safe for concurrent use, WriteSnapshot runs concurrently with appends but
// not with itself.
type Log struct {
	dir         string
	sync        SyncPolicy
	groupWindow time.Duration // leader linger bound; see group.go
	groupOff    bool          // disable group commit (inline fsyncs)
	m           logMetrics

	mu       sync.Mutex
	replayed bool
	closed   bool
	failed   error         // sticky first I/O failure; poisons the log
	f        *os.File      // active WAL segment
	w        *bufio.Writer // buffers appendFrame output into f
	size     int64         // bytes written (kernel-flushed) in the active segment
	seq      uint64        // active segment sequence number
	scratch  []byte        // reusable frame buffer
	lay      layout        // recovery plan captured at Open

	// Group-commit state (see group.go). appendSeq counts appends across
	// the log's lifetime; durableSeq trails it at the last fsynced append.
	// syncedSize is the durable byte prefix of the active segment — where
	// poison truncates to, so no unacknowledged frame survives a failure.
	appendSeq  uint64
	durableSeq uint64
	syncedSize int64
	waiters    int           // writers parked in waitDurable
	syncing    bool          // a commit leader's fsync is in flight
	synced     chan struct{} // closed (and replaced) after each group sync

	// Snapshot-chain state (see incremental.go): the committed manifest,
	// if any, and the dirty buckets replayed from the WAL tail.
	man       manifest
	hasMan    bool
	tailDirty map[uint32]struct{}
}

var (
	_ store.Journal                = (*Log)(nil)
	_ store.Snapshotter            = (*Log)(nil)
	_ store.IncrementalSnapshotter = (*Log)(nil)
)

// TenantsSubdir is the directory under a data dir that holds the named
// tenants' partitions; the default tenant lives at the data dir's root —
// exactly the layout pre-tenant deployments wrote, so their directories
// open unchanged as the default tenant.
const TenantsSubdir = "tenants"

// TenantDir returns the partition directory for the named tenant under
// root: root itself for the default tenant (or ""), root/tenants/<name>
// otherwise.
func TenantDir(root, name string) string {
	if name == "" || name == store.DefaultTenant {
		return root
	}
	return filepath.Join(root, TenantsSubdir, name)
}

// Tenants lists the named tenants partitioned under root, excluding the
// default tenant (which is the root itself). A root without a tenants
// subdirectory — any pre-tenant data dir — yields none.
func Tenants(root string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(root, TenantsSubdir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("persist: scan tenants: %w", err)
	}
	var names []string
	for _, ent := range entries {
		if ent.IsDir() {
			names = append(names, ent.Name())
		}
	}
	return names, nil
}

// RemoveTenant destroys the named tenant's partition under root — WAL,
// snapshots and the directory itself. It refuses the default tenant (whose
// partition is the whole data dir) and names that are not plain directory
// entries. The caller must have closed the tenant's Log first.
func RemoveTenant(root, name string) error {
	if name == "" || name == store.DefaultTenant {
		return fmt.Errorf("persist: refusing to remove the default tenant's partition")
	}
	if name != filepath.Base(name) || name == "." || name == ".." {
		return fmt.Errorf("persist: invalid tenant partition name %q", name)
	}
	if err := os.RemoveAll(TenantDir(root, name)); err != nil {
		return fmt.Errorf("persist: remove tenant %q: %w", name, err)
	}
	return syncDir(filepath.Join(root, TenantsSubdir))
}

// Open prepares the persistence directory (creating it if needed) and scans
// it for snapshots and WAL segments. No data is read yet: call Replay to
// recover the state and arm the log for appends.
func Open(dir string, opts ...Option) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create dir: %w", err)
	}
	lay, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir: dir, sync: SyncAlways,
		groupWindow: DefaultGroupWindow,
		lay:         lay,
		synced:      make(chan struct{}),
	}
	for _, o := range opts {
		o.apply(l)
	}
	return l, nil
}

// Replay streams the recovered mutation sequence — newest snapshot (as
// inserts), then the WAL tail — into apply, then arms the log for appends.
// It is a store.ReplayFunc: pass it to store.Open or store.Replay. A nil
// apply discards the mutations (recovery of an empty or throwaway state).
// Replay may run once per Log.
func (l *Log) Replay(apply func(store.Mutation) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.replayed {
		return errors.New("persist: Replay already ran")
	}
	if apply == nil {
		apply = func(store.Mutation) error { return nil }
	}
	// Segments are created with strictly consecutive sequence numbers
	// starting at the snapshot chain's cut (or 0), so any gap means a
	// segment vanished — replaying around it would silently drop its
	// mutations.
	for i, seq := range l.lay.walSeqs {
		want := seq
		switch {
		case i > 0:
			want = l.lay.walSeqs[i-1] + 1
		case l.lay.hasMan:
			want = l.lay.man.cut()
		case l.lay.hasSnap:
			want = l.lay.snapSeq
		default:
			want = 0
		}
		if seq != want {
			return fmt.Errorf("%w: missing segment %s", ErrCorrupt, walName(want))
		}
	}
	switch {
	case l.lay.hasMan:
		if err := replayChain(l.dir, l.lay.man, apply); err != nil {
			return err
		}
	case l.lay.hasSnap:
		if err := replaySnapshotFile(l.dir, l.lay.snapSeq, apply); err != nil {
			return err
		}
	}
	// WAL-tail mutations are newer than the snapshot chain: remember their
	// buckets so the store's dirty set can be seeded (TailDirty) and the
	// first post-recovery cut may be incremental.
	walApply := func(m store.Mutation) error {
		if l.tailDirty == nil {
			l.tailDirty = make(map[uint32]struct{})
		}
		l.tailDirty[store.SnapshotBucket(m.ID)] = struct{}{}
		return apply(m)
	}
	for i, seq := range l.lay.walSeqs {
		if err := l.replayWAL(seq, i == len(l.lay.walSeqs)-1, walApply); err != nil {
			return err
		}
	}
	// Only now that the newest snapshot and the WAL chain replayed cleanly
	// is it safe to drop the superseded fallback files (tmp litter, and
	// snapshots/segments subsumed by the newest snapshot after a crash
	// between snapshot rename and purge).
	for _, name := range l.lay.stale {
		_ = os.Remove(filepath.Join(l.dir, name))
	}
	// The active segment is the newest one on disk; a fresh directory (or
	// one holding only a snapshot) starts a new segment at the snapshot's
	// sequence.
	seq := uint64(0)
	create := true
	switch {
	case len(l.lay.walSeqs) > 0:
		seq = l.lay.walSeqs[len(l.lay.walSeqs)-1]
		create = false
	case l.lay.hasMan:
		seq = l.lay.man.cut()
	case l.lay.hasSnap:
		seq = l.lay.snapSeq
	}
	if err := l.openSegment(seq, create); err != nil {
		return err
	}
	l.man, l.hasMan = l.lay.man, l.lay.hasMan
	l.replayed = true
	return nil
}

// replayWAL streams one WAL segment into apply. For the last (newest)
// segment a torn or corrupt frame that is the file's final frame — the
// signature of a crash mid-write — ends the replay and the file is
// truncated to its last intact frame. A defect
// anywhere else (older segments, or a bad frame with further data after it)
// is fatal: intact acknowledged frames must never be silently discarded.
func (l *Log) replayWAL(seq uint64, last bool, apply func(store.Mutation) error) error {
	path := filepath.Join(l.dir, walName(seq))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("persist: open segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("persist: stat segment: %w", err)
	}
	size := fi.Size()
	r := newReader(f)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil || string(hdr[:]) != walMagic {
		if last && size <= headerLen {
			// A segment created moments before the crash, cut short in
			// the header itself: rewrite it. A bad header with frames
			// after it is disk corruption, not a crash artefact
			// (openSegment fsyncs the header before any append).
			return rewriteHeader(f)
		}
		return fmt.Errorf("%w: segment %s: bad header", ErrCorrupt, walName(seq))
	}
	good := int64(headerLen)
	for i := 0; ; i++ {
		payload, claimed, err := readFrame(r)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			// Tail test: a torn frame ends at EOF by construction; a
			// CRC-failed frame is the tail only when its claimed extent
			// reaches (or overruns) the end of the file.
			atTail := errors.Is(err, errTorn) ||
				(errors.Is(err, ErrCorrupt) && claimed >= 0 && good+claimed >= size)
			if last && atTail {
				// Drop the unacknowledged suffix.
				if terr := f.Truncate(good); terr != nil {
					return fmt.Errorf("persist: truncate torn tail: %w", terr)
				}
				if serr := f.Sync(); serr != nil {
					return fmt.Errorf("persist: sync truncated segment: %w", serr)
				}
				return nil
			}
			return fmt.Errorf("%w: segment %s frame %d: %v", ErrCorrupt, walName(seq), i, err)
		}
		m, err := decodeMutation(payload)
		if err != nil {
			return fmt.Errorf("%w: segment %s frame %d: %v", ErrCorrupt, walName(seq), i, err)
		}
		if err := apply(m); err != nil {
			return err
		}
		good += frameOverhead + int64(len(payload))
	}
}

// rewriteHeader resets a (torn) segment file to an empty segment.
func rewriteHeader(f *os.File) error {
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("persist: reset segment: %w", err)
	}
	if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
		return fmt.Errorf("persist: reset segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("persist: sync segment header: %w", err)
	}
	return nil
}

// openSegment opens (or creates) wal-<seq> for appending and makes it the
// active segment. Caller holds l.mu.
func (l *Log) openSegment(seq uint64, create bool) error {
	path := filepath.Join(l.dir, walName(seq))
	flags := os.O_WRONLY | os.O_APPEND
	if create {
		flags |= os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return fmt.Errorf("persist: open active segment: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if create {
		// On any failure past the create, remove the file again: leaving a
		// half-born segment behind would make every Rotate retry fail on
		// O_EXCL until restart.
		abort := func(err error) error {
			f.Close()
			_ = os.Remove(path)
			return err
		}
		if _, err := w.WriteString(walMagic); err != nil {
			return abort(fmt.Errorf("persist: write segment header: %w", err))
		}
		if err := w.Flush(); err != nil {
			return abort(fmt.Errorf("persist: flush segment header: %w", err))
		}
		if err := f.Sync(); err != nil {
			return abort(fmt.Errorf("persist: sync segment header: %w", err))
		}
		if err := syncDir(l.dir); err != nil {
			return abort(err)
		}
	}
	size := int64(headerLen)
	if !create {
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("persist: stat active segment: %w", err)
		}
		size = fi.Size()
	}
	l.f, l.w, l.seq, l.size = f, w, seq, size
	// Whatever the segment already holds predates this session's appends and
	// was acknowledged before: it is the durable baseline.
	l.syncedSize = size
	return nil
}

// poison marks the log permanently failed after an I/O error mid-append: a
// frame may have partially (or, worse, fully) reached the file even though
// the caller will be told the mutation failed, so the file is cut back to
// its acknowledged prefix best-effort and every later mutation is refused —
// after a failed write or fsync the device cannot be trusted with
// acknowledgements. Under group commit the acknowledged prefix is the last
// fsynced byte (frames written but awaiting the group's sync were never
// acknowledged); under SyncOS it is everything kernel-flushed.
func (l *Log) poison(err error) error {
	if l.f != nil {
		acked := l.size
		if l.sync == SyncAlways && !l.groupOff {
			acked = l.syncedSize
		}
		_ = l.f.Truncate(acked)
	}
	l.failed = fmt.Errorf("persist: log failed: %w", err)
	return err
}

// Append is the synchronous form of Begin: one mutation becomes one
// CRC-framed record in the active segment, durable per the sync policy
// before Append returns. It is Begin followed by Wait — a concurrent Append
// shares its fsync with every other append in the same commit group.
func (l *Log) Append(m store.Mutation) error {
	c, err := l.Begin(m)
	if err != nil {
		return err
	}
	if c != nil {
		return c.Wait()
	}
	return nil
}

// fsync syncs the active segment and counts it. Caller holds l.mu.
func (l *Log) fsync() error {
	err := l.f.Sync()
	l.m.fsyncs.Inc()
	return err
}

// Rotate implements store.Snapshotter: it seals the active segment and
// redirects subsequent appends to a fresh one, returning the new sequence
// number. The new segment exists on disk before any append can land in it,
// so a crash at any point leaves a replayable chain.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if !l.replayed {
		return 0, ErrNotRecovered
	}
	if l.failed != nil {
		return 0, l.failed
	}
	// An in-flight group commit holds a reference to the active segment;
	// let it finish before the segment is swapped out.
	l.awaitNoLeader()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if err := l.w.Flush(); err != nil {
		return 0, fmt.Errorf("persist: rotate flush: %w", err)
	}
	if err := l.fsync(); err != nil {
		return 0, fmt.Errorf("persist: rotate sync: %w", err)
	}
	// The rotation fsync covered every append so far: release any parked
	// group-commit waiters.
	l.durableSeq = l.appendSeq
	l.broadcastSynced()
	old := l.f
	if err := l.openSegment(l.seq+1, true); err != nil {
		// The old segment stays active; the rotation simply failed.
		l.f = old
		l.w = bufio.NewWriterSize(old, 1<<16)
		return 0, err
	}
	old.Close()
	return l.seq, nil
}

// WriteSnapshot implements store.Snapshotter: it persists recs as the full
// state preceding segment seq, commits a manifest naming it the new chain
// base (collapsing any increment chain), and deletes the snapshots,
// increments and segments the new base subsumes — bounding the directory to
// one chain plus the WAL tail written since its cut.
func (l *Log) WriteSnapshot(seq uint64, recs []*store.Record) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if !l.replayed {
		l.mu.Unlock()
		return ErrNotRecovered
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()
	// File work happens without the lock so appends keep flowing into the
	// already-rotated active segment while the snapshot is written.
	start := time.Now()
	if err := writeSnapshotFile(l.dir, seq, recs); err != nil {
		return err
	}
	man := manifest{Version: manifestVersion, Base: seq}
	if err := writeManifest(l.dir, man); err != nil {
		// The orphan snapshot is invisible (the old manifest still rules);
		// the next boot removes it as stale.
		return err
	}
	l.mu.Lock()
	l.man, l.hasMan = man, true
	l.mu.Unlock()
	// The manifest was the commit point: the snapshot exists no matter what
	// happens below. Purge is post-commit cleanup — a failure merely leaves
	// stale files that the next boot removes, so it must not make the
	// committed cut look failed to the caller.
	_ = l.purge(seq)
	l.m.snapshots.Inc()
	l.m.snapDur.Observe(time.Since(start))
	return nil
}

// purge removes the files subsumed by a cut at seq: WAL segments strictly
// older than it, plus everything the committed snapshot chain (or, absent a
// manifest, the newest snapshot at seq) marks stale.
func (l *Log) purge(seq uint64) error {
	lay, err := scanDir(l.dir)
	if err != nil {
		return err
	}
	for _, s := range lay.walSeqs {
		if s < seq {
			_ = os.Remove(filepath.Join(l.dir, walName(s)))
		}
	}
	if lay.hasMan || (lay.hasSnap && lay.snapSeq == seq) {
		for _, name := range lay.stale {
			_ = os.Remove(filepath.Join(l.dir, name))
		}
	}
	return syncDir(l.dir)
}

// Close flushes and fsyncs the active segment and releases it. Close is
// idempotent; after it, Append, Rotate and WriteSnapshot fail with
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	// Let an in-flight group commit finish before the file handle goes away.
	l.awaitNoLeader()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		l.broadcastSynced()
		return nil
	}
	var errs []error
	if err := l.w.Flush(); err != nil {
		errs = append(errs, fmt.Errorf("persist: close flush: %w", err))
	}
	if err := l.fsync(); err != nil {
		errs = append(errs, fmt.Errorf("persist: close sync: %w", err))
	}
	if len(errs) == 0 {
		// The final fsync covered every append: release parked waiters with
		// success before the handle closes.
		l.durableSeq = l.appendSeq
		l.syncedSize = l.size
	} else {
		l.failed = fmt.Errorf("persist: log failed: %w", errors.Join(errs...))
	}
	l.broadcastSynced()
	if err := l.f.Close(); err != nil {
		errs = append(errs, fmt.Errorf("persist: close: %w", err))
	}
	l.f, l.w = nil, nil
	return errors.Join(errs...)
}
