package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/store"
)

// fixture bundles an extractor and a biometric source for building real
// records, shared across subtests of one dimension.
type fixture struct {
	fe  *core.FuzzyExtractor
	src *biometric.Source
}

func newFixture(t testing.TB, dim int, seed int64) *fixture {
	t.Helper()
	fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: dim})
	if err != nil {
		t.Fatal(err)
	}
	src, err := biometric.NewSource(fe.Line(), biometric.Paper(dim), seed)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{fe: fe, src: src}
}

func (f *fixture) record(t testing.TB, id string) *store.Record {
	t.Helper()
	u := f.src.NewUser(id)
	_, helper, err := f.fe.Gen(u.Template)
	if err != nil {
		t.Fatal(err)
	}
	return &store.Record{ID: id, PublicKey: []byte("pk-" + id), Helper: helper}
}

func (f *fixture) line() *numberline.Line { return f.fe.Line() }

// openStore opens the log in dir and rebuilds a scan store from it.
func openStore(t testing.TB, f *fixture, dir string, opts ...Option) (*Log, *store.Scan) {
	t.Helper()
	l, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(f.line(), 0, l.Replay)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return l, s
}

func TestAppendReopenReplay(t *testing.T) {
	f := newFixture(t, 16, 1)
	dir := t.TempDir()

	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	const n = 10
	for i := 0; i < n; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("user-%02d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := db.Delete("user-03"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// A second process boots from the same directory.
	l2, s2 := openStore(t, f, dir)
	defer l2.Close()
	if got := s2.Len(); got != n-1 {
		t.Fatalf("recovered %d records, want %d", got, n-1)
	}
	if _, ok := s2.Get("user-03"); ok {
		t.Fatal("revoked record survived recovery")
	}
	if _, ok := s2.Get("user-07"); !ok {
		t.Fatal("enrolled record lost in recovery")
	}
	// The recovered store keeps accepting journalled mutations.
	db2 := store.NewJournaled(s2, l2)
	if err := db2.Insert(f.record(t, "late")); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
}

// TestCrashRecovery simulates a crash mid-write (the SIGKILL scenario): a
// partial frame is left at the WAL tail, and recovery must keep every
// acknowledged record, drop the torn suffix, and leave a writable log.
func TestCrashRecovery(t *testing.T) {
	f := newFixture(t, 16, 2)
	dir := t.TempDir()

	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	const n = 6
	for i := 0; i < n; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("acked-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: the process dies without Close, mid-way through an append.
	// The file already has n fsynced frames; simulate the torn write by
	// appending half a frame header straight to the segment.
	wal := activeWAL(t, dir)
	raw, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte{0x00, 0x00, 0x00, 0x40, 0xde}); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	preSize := fileSize(t, wal)

	l2, s2 := openStore(t, f, dir)
	if got := s2.Len(); got != n {
		t.Fatalf("recovered %d records, want %d", got, n)
	}
	if fileSize(t, wal) >= preSize {
		t.Fatal("torn tail was not truncated")
	}
	// The truncated segment accepts appends and survives another reopen.
	db2 := store.NewJournaled(s2, l2)
	if err := db2.Insert(f.record(t, "after-crash")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, s3 := openStore(t, f, dir)
	if got := s3.Len(); got != n+1 {
		t.Fatalf("after second recovery: %d records, want %d", got, n+1)
	}
}

func TestCorruptTailFrameDropped(t *testing.T) {
	f := newFixture(t, 16, 3)
	dir := t.TempDir()

	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	for i := 0; i < 4; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Flip one byte in the last frame's payload: the CRC catches it and
	// recovery keeps exactly the intact prefix.
	wal := activeWAL(t, dir)
	buf, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if err := os.WriteFile(wal, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, s2 := openStore(t, f, dir)
	defer l2.Close()
	if got := s2.Len(); got != 3 {
		t.Fatalf("recovered %d records, want 3 (corrupt last frame dropped)", got)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	f := newFixture(t, 16, 4)
	dir := t.TempDir()

	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	const n = 8
	for i := 0; i < n; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete("u2"); err != nil {
		t.Fatal(err)
	}
	if err := db.Snapshot(l); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// Compaction keeps the directory at one snapshot plus the new segment.
	wals, snaps := listDir(t, dir)
	if len(wals) != 1 || len(snaps) != 1 {
		t.Fatalf("after snapshot: wals=%v snaps=%v, want one of each", wals, snaps)
	}
	// Mutations after the snapshot land in the new segment.
	if err := db.Insert(f.record(t, "post-snap")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, s2 := openStore(t, f, dir)
	if got := s2.Len(); got != n { // 8 - 1 deleted + 1 post-snap
		t.Fatalf("recovered %d records, want %d", got, n)
	}
	if _, ok := s2.Get("u2"); ok {
		t.Fatal("deleted record resurrected by snapshot recovery")
	}
	if _, ok := s2.Get("post-snap"); !ok {
		t.Fatal("post-snapshot insert lost")
	}
}

// TestSnapshotBoundsWAL runs several snapshot cycles and checks the WAL
// never accumulates old segments — the unbounded-growth regression guard.
func TestSnapshotBoundsWAL(t *testing.T) {
	f := newFixture(t, 16, 5)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	defer l.Close()
	db := store.NewJournaled(s, l)
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			if err := db.Insert(f.record(t, fmt.Sprintf("r%d-u%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Snapshot(l); err != nil {
			t.Fatal(err)
		}
		wals, snaps := listDir(t, dir)
		if len(wals) != 1 || len(snaps) != 1 {
			t.Fatalf("round %d: wals=%v snaps=%v, want one of each", round, wals, snaps)
		}
		if size := fileSize(t, filepath.Join(dir, wals[0])); size > headerLen {
			t.Fatalf("round %d: fresh segment holds %d bytes of data", round, size)
		}
	}
}

// TestCrashBetweenRotateAndSnapshot exercises the window where the new
// segment exists but the snapshot was never written: recovery must fall
// back to the previous snapshot (if any) plus both segments.
func TestCrashBetweenRotateAndSnapshot(t *testing.T) {
	f := newFixture(t, 16, 6)
	dir := t.TempDir()

	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	for i := 0; i < 5; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Rotate(); err != nil { // rotation happened ...
		t.Fatal(err)
	}
	if err := db.Insert(f.record(t, "in-new-segment")); err != nil {
		t.Fatal(err)
	}
	// ... but the process dies before WriteSnapshot. No Close.

	_, s2 := openStore(t, f, dir)
	if got := s2.Len(); got != 6 {
		t.Fatalf("recovered %d records, want 6", got)
	}
}

func TestLifecycleErrors(t *testing.T) {
	f := newFixture(t, 16, 7)
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := f.record(t, "x")
	if err := l.Append(store.InsertMutation(rec)); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("append before replay: %v, want ErrNotRecovered", err)
	}
	if _, err := l.Rotate(); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("rotate before replay: %v, want ErrNotRecovered", err)
	}
	if err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(nil); err == nil {
		t.Fatal("second Replay accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close is documented idempotent, got %v", err)
	}
	if err := l.Append(store.InsertMutation(rec)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestRelaxedSyncSurvivesReopen(t *testing.T) {
	f := newFixture(t, 16, 8)
	dir := t.TempDir()
	l, s := openStore(t, f, dir, WithSyncPolicy(SyncOS))
	db := store.NewJournaled(s, l)
	for i := 0; i < 5; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: appends were flushed to the kernel per append, so a process
	// death (not a machine crash) keeps them readable.
	_, s2 := openStore(t, f, dir)
	if got := s2.Len(); got != 5 {
		t.Fatalf("recovered %d records, want 5", got)
	}
}

// activeWAL returns the path of the single newest WAL segment.
func activeWAL(t testing.TB, dir string) string {
	t.Helper()
	wals, _ := listDir(t, dir)
	if len(wals) == 0 {
		t.Fatal("no WAL segment present")
	}
	return filepath.Join(dir, wals[len(wals)-1])
}

func listDir(t testing.TB, dir string) (wals, snaps []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		switch {
		case strings.HasPrefix(ent.Name(), "wal-"):
			wals = append(wals, ent.Name())
		case strings.HasPrefix(ent.Name(), "snap-"):
			snaps = append(snaps, ent.Name())
		}
	}
	return wals, snaps
}

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// BenchmarkRecovery10k measures cold-start time: rebuilding a 10k-record
// store from a snapshot (the post-compaction steady state). This is the
// number the ISSUE's acceptance criterion asks for.
func BenchmarkRecovery10k(b *testing.B) {
	benchmarkRecovery(b, 10_000, true)
}

// BenchmarkRecoveryWAL10k is the worst case: 10k records recovered from a
// raw WAL that was never compacted.
func BenchmarkRecoveryWAL10k(b *testing.B) {
	benchmarkRecovery(b, 10_000, false)
}

func benchmarkRecovery(b *testing.B, n int, compacted bool) {
	f := newFixture(b, 16, 42)
	dir := b.TempDir()
	l, s := openStore(b, f, dir, WithSyncPolicy(SyncOS))
	db := store.NewJournaled(s, l)
	for i := 0; i < n; i++ {
		if err := db.Insert(f.record(b, fmt.Sprintf("user-%05d", i))); err != nil {
			b.Fatal(err)
		}
	}
	if compacted {
		if err := db.Snapshot(l); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		s2, err := store.Open(f.line(), 0, l2.Replay)
		if err != nil {
			b.Fatal(err)
		}
		if s2.Len() != n {
			b.Fatalf("recovered %d, want %d", s2.Len(), n)
		}
		l2.Close()
	}
}

// TestCorruptMidSegmentFatal pins the loud-failure contract: a corrupt
// frame with intact acknowledged frames after it must fail recovery with
// ErrCorrupt — never silently truncate the good suffix away.
func TestCorruptMidSegmentFatal(t *testing.T) {
	f := newFixture(t, 16, 9)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	for i := 0; i < 6; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Flip a byte inside the FIRST frame's payload: five intact frames
	// follow, so this is bit rot, not a torn tail.
	wal := activeWAL(t, dir)
	buf, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	buf[headerLen+frameOverhead+10] ^= 0xFF
	if err := os.WriteFile(wal, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(f.line(), 0, l2.Replay); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-segment corruption err = %v, want ErrCorrupt", err)
	}
	// The file must not have been truncated behind our back.
	if got := fileSize(t, wal); got != int64(len(buf)) {
		t.Fatalf("segment truncated from %d to %d bytes despite fatal corruption", len(buf), got)
	}
}

// TestBadHeaderWithDataFatal: a scrambled segment header followed by frames
// is disk corruption, not a crash artefact — recovery must refuse rather
// than wipe the segment.
func TestBadHeaderWithDataFatal(t *testing.T) {
	f := newFixture(t, 16, 10)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	if err := db.Insert(f.record(t, "only")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	wal := activeWAL(t, dir)
	buf, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXXXXX")
	if err := os.WriteFile(wal, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(f.line(), 0, l2.Replay); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad-header-with-data err = %v, want ErrCorrupt", err)
	}
	if got := fileSize(t, wal); got != int64(len(buf)) {
		t.Fatalf("segment rewritten from %d to %d bytes despite corruption", len(buf), got)
	}
}

// TestTornHeaderRewritten: a segment cut short inside its own header (a
// crash right after segment creation) is reset and stays usable.
func TestTornHeaderRewritten(t *testing.T) {
	f := newFixture(t, 16, 11)
	dir := t.TempDir()
	l, _ := openStore(t, f, dir)
	l.Close()
	wal := activeWAL(t, dir)
	if err := os.Truncate(wal, 3); err != nil {
		t.Fatal(err)
	}
	l2, s2 := openStore(t, f, dir)
	if s2.Len() != 0 {
		t.Fatalf("recovered %d records from torn header, want 0", s2.Len())
	}
	db := store.NewJournaled(s2, l2)
	if err := db.Insert(f.record(t, "reborn")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, s3 := openStore(t, f, dir)
	if s3.Len() != 1 {
		t.Fatalf("recovered %d records after header rewrite, want 1", s3.Len())
	}
}

// TestAppendFailurePoisonsLog: once an append fails with an I/O error the
// log refuses all further mutations and the failed frame does not
// resurrect on recovery — a client that was told "enrollment failed" must
// not find the user enrolled after a restart.
func TestAppendFailurePoisonsLog(t *testing.T) {
	f := newFixture(t, 16, 12)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	if err := db.Insert(f.record(t, "acked")); err != nil {
		t.Fatal(err)
	}
	// Simulate the device failing mid-append.
	l.f.Close()
	if err := db.Insert(f.record(t, "doomed")); err == nil {
		t.Fatal("append on a failed segment succeeded")
	}
	if _, ok := db.Get("doomed"); ok {
		t.Fatal("failed mutation is visible in memory")
	}
	// The log is poisoned: later mutations fail fast with the sticky error.
	if err := db.Insert(f.record(t, "more")); err == nil {
		t.Fatal("poisoned log accepted a mutation")
	}
	if _, err := l.Rotate(); err == nil {
		t.Fatal("poisoned log accepted a rotation")
	}
	// Reads keep working on the already-acknowledged state.
	if _, ok := db.Get("acked"); !ok {
		t.Fatal("acknowledged record lost from memory")
	}
	// Recovery sees exactly the acknowledged prefix.
	_, s2 := openStore(t, f, dir)
	if got := s2.Len(); got != 1 {
		t.Fatalf("recovered %d records, want 1", got)
	}
	if _, ok := s2.Get("doomed"); ok {
		t.Fatal("failed mutation resurrected by recovery")
	}
}

// TestMissingSegmentFatal: a gap in the WAL chain means a segment's
// mutations are gone — recovery must refuse rather than silently replay
// around the hole.
func TestMissingSegmentFatal(t *testing.T) {
	f := newFixture(t, 16, 13)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	if err := db.Insert(f.record(t, "in-0")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(f.record(t, "in-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(f.record(t, "in-2")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Lose the middle segment.
	if err := os.Remove(filepath.Join(dir, walName(1))); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(f.line(), 0, l2.Replay); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gapped WAL chain err = %v, want ErrCorrupt", err)
	}
	// Losing the first segment is equally fatal.
	l.Close()
	if err := os.Rename(filepath.Join(dir, walName(0)), filepath.Join(dir, walName(1))); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(f.line(), 0, l3.Replay); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("chain not starting at 0 err = %v, want ErrCorrupt", err)
	}
}

// TestReopenSeedsAppendsFromTail: a WAL tail inherited from a previous run
// must count as compactable work, so a post-recovery Snapshot actually
// compacts instead of reporting nothing to do.
func TestReopenSeedsAppendsFromTail(t *testing.T) {
	f := newFixture(t, 16, 14)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	for i := 0; i < 4; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, s2 := openStore(t, f, dir)
	db2 := store.NewJournaled(s2, l2)
	if err := db2.Snapshot(l2); err != nil {
		t.Fatal(err)
	}
	wals, snaps := listDir(t, dir)
	if len(wals) != 1 || len(snaps) != 1 {
		t.Fatalf("post-recovery snapshot did not compact: wals=%v snaps=%v", wals, snaps)
	}
	if size := fileSize(t, filepath.Join(dir, wals[0])); size > headerLen {
		t.Fatalf("fresh segment holds %d bytes after compaction", size)
	}
	l2.Close()
}

// TestStaleFallbacksSurviveFailedReplay: files subsumed by the newest
// snapshot are the only recovery path left if that snapshot is corrupt —
// they must not be deleted until replay has succeeded.
func TestStaleFallbacksSurviveFailedReplay(t *testing.T) {
	f := newFixture(t, 16, 15)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	for i := 0; i < 3; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Snapshot(l); err != nil { // snap-1 + wal-1
		t.Fatal(err)
	}
	if err := db.Insert(f.record(t, "tail")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Preserve the current generation, then produce the next one so both
	// coexist — the state a crash between snapshot rename and purge leaves.
	keepSnap, _ := os.ReadFile(filepath.Join(dir, snapName(1)))
	keepWal, _ := os.ReadFile(filepath.Join(dir, walName(1)))
	l2, s2 := openStore(t, f, dir)
	db2 := store.NewJournaled(s2, l2)
	if err := db2.Snapshot(l2); err != nil { // snap-2 + wal-2, purges gen 1
		t.Fatal(err)
	}
	l2.Close()
	if err := os.WriteFile(filepath.Join(dir, snapName(1)), keepSnap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName(1)), keepWal, 0o644); err != nil {
		t.Fatal(err)
	}
	// Rot the newest snapshot.
	buf, err := os.ReadFile(filepath.Join(dir, snapName(2)))
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, snapName(2)), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	l3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(f.line(), 0, l3.Replay); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt newest snapshot err = %v, want ErrCorrupt", err)
	}
	// The fallback generation must still be on disk for manual recovery.
	for _, name := range []string{snapName(1), walName(1)} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("fallback %s deleted despite failed replay: %v", name, err)
		}
	}
	// Removing the rotten snapshot — and the MANIFEST, whose chain names it
	// as base — makes the directory recoverable again through the legacy
	// newest-snapshot path (the documented manual-recovery procedure).
	if err := os.Remove(filepath.Join(dir, snapName(2))); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	l4, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := store.Open(f.line(), 0, l4.Replay)
	if err != nil {
		t.Fatalf("fallback recovery: %v", err)
	}
	if got := s4.Len(); got != 4 {
		t.Fatalf("fallback recovered %d records, want 4", got)
	}
}

// TestPersistedBytesWidthIndependent pins the on-disk contract of the packed
// residue layout: the residue width and the coarse filter are in-memory scan
// acceleration only, so the exact same mutation history must produce
// byte-identical WAL segments and snapshots whatever the store's tuning.
// Residues are recomputed from helper data on replay; nothing width-shaped
// may ever reach a frame.
func TestPersistedBytesWidthIndependent(t *testing.T) {
	f := newFixture(t, 16, 42)

	// One shared record set: the two stacks must see identical mutations.
	recs := make([]*store.Record, 12)
	for i := range recs {
		recs[i] = f.record(t, fmt.Sprintf("user-%02d", i))
	}
	late := []*store.Record{f.record(t, "late-a"), f.record(t, "late-b")}

	run := func(tun store.Tuning) string {
		dir := t.TempDir()
		l, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.NewScanTuned(f.line(), 0, tun)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Replay(s, l.Replay); err != nil {
			t.Fatal(err)
		}
		db := store.NewJournaled(s, l)
		for _, rec := range recs {
			clone := *rec
			clone.Helper = rec.Helper.Clone()
			if err := db.Insert(&clone); err != nil {
				t.Fatal(err)
			}
		}
		// Deletes exercise the swap-delete path in both layouts.
		for _, id := range []string{"user-03", "user-00", "user-11"} {
			if err := db.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Snapshot(l); err != nil {
			t.Fatal(err)
		}
		for _, rec := range late {
			clone := *rec
			clone.Helper = rec.Helper.Clone()
			if err := db.Insert(&clone); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	narrow := run(store.Tuning{}) // paper line: auto-selects 16-bit + coarse
	wide := run(store.Tuning{ResidueWidth: 64, NoCoarseFilter: true})

	readDir := func(dir string) map[string][]byte {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(ents))
		for _, e := range ents {
			buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = buf
		}
		return out
	}
	a, b := readDir(narrow), readDir(wide)
	if len(a) == 0 {
		t.Fatal("no persisted files produced")
	}
	if len(a) != len(b) {
		t.Fatalf("file sets differ: %d vs %d files", len(a), len(b))
	}
	for name, buf := range a {
		other, ok := b[name]
		if !ok {
			t.Fatalf("file %s missing from the wide store's directory", name)
		}
		if !bytes.Equal(buf, other) {
			t.Errorf("file %s differs between widths (%d vs %d bytes)", name, len(buf), len(other))
		}
	}
}

// TestAppendBytesPerAppend gates the garbage of the durable write path
// under SyncOS: a warm log encodes each mutation straight into its reused
// frame buffer, so an append allocates nothing, where encoding a fresh
// payload per append and copying it into the frame allocated 5.1 KB at
// dim 512 and 41 KB at n = 5000.
func TestAppendBytesPerAppend(t *testing.T) {
	const appends = 100
	for _, dim := range []int{512, 5000} {
		f := newFixture(t, dim, 9)
		l, _ := openStore(t, f, t.TempDir(), WithSyncPolicy(SyncOS))
		muts := make([]store.Mutation, 4)
		for i := range muts {
			muts[i] = store.InsertMutation(f.record(t, fmt.Sprintf("u%d", i)))
			if err := l.Append(muts[i]); err != nil { // warms the frame buffer
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < appends; i++ {
			if err := l.Append(muts[i%len(muts)]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / appends
		t.Logf("dim %d: %.0f B allocated per append", dim, per)
		if per > 64 {
			t.Errorf("dim %d: an append allocates %.0f B, want <= 64", dim, per)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
