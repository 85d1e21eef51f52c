package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fuzzyid/internal/store"
)

// chain returns the log's committed manifest for white-box assertions.
func chain(t *testing.T, l *Log) manifest {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.hasMan {
		t.Fatal("log has no manifest")
	}
	return l.man
}

// dirFiles lists the directory's snapshot-chain artefacts by kind.
func dirFiles(t *testing.T, dir string) (snaps, incrs, wals []string, hasManifest bool) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case strings.HasPrefix(name, "snap-"):
			snaps = append(snaps, name)
		case strings.HasPrefix(name, "incr-"):
			incrs = append(incrs, name)
		case strings.HasPrefix(name, "wal-"):
			wals = append(wals, name)
		case name == manifestName:
			hasManifest = true
		}
	}
	return snaps, incrs, wals, hasManifest
}

// TestIncrementalSnapshotCut pins the tentpole behaviour end to end: the
// first compaction writes a full base plus a manifest, the second — with
// only a few buckets dirtied — writes an increment that is a small fraction
// of the base's size, and recovery merges base + increment + WAL tail into
// the exact record set.
func TestIncrementalSnapshotCut(t *testing.T) {
	f := newFixture(t, 16, 81)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)

	const n = 100
	for i := 0; i < n; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("user-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Snapshot(l); err != nil {
		t.Fatal(err)
	}
	man := chain(t, l)
	if len(man.Incrs) != 0 {
		t.Fatalf("first compaction produced %d increments, want a full base", len(man.Incrs))
	}
	base := man.Base

	// Dirty ~1% of the store: one new enrollment, one revocation.
	if err := db.Insert(f.record(t, "late-user")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("user-007"); err != nil {
		t.Fatal(err)
	}
	if err := db.Snapshot(l); err != nil {
		t.Fatal(err)
	}
	man = chain(t, l)
	if man.Base != base || len(man.Incrs) != 1 {
		t.Fatalf("second compaction manifest = base %d incrs %v, want base %d + 1 increment", man.Base, man.Incrs, base)
	}
	baseSize := fileSize(t, filepath.Join(dir, snapName(man.Base)))
	incrSize := fileSize(t, filepath.Join(dir, incrName(man.Incrs[0])))
	if incrSize*10 >= baseSize {
		t.Fatalf("increment is %d bytes vs %d-byte base: a ~2%%-dirty cut must write < 10%% of the full snapshot", incrSize, baseSize)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, s2 := openStore(t, f, dir)
	defer l2.Close()
	if got := s2.Len(); got != n {
		t.Fatalf("recovered %d records, want %d", got, n)
	}
	if _, ok := s2.Get("user-007"); ok {
		t.Fatal("record revoked before the incremental cut survived recovery")
	}
	if _, ok := s2.Get("late-user"); !ok {
		t.Fatal("record enrolled before the incremental cut lost in recovery")
	}
}

// TestIncrementalEmptiedBucket pins delete handling without tombstones: a
// bucket whose records were all revoked is listed in the increment with no
// records, which overrides the base's copy on replay.
func TestIncrementalEmptiedBucket(t *testing.T) {
	f := newFixture(t, 16, 82)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	for i := 0; i < 5; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("keep-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert(f.record(t, "victim")); err != nil {
		t.Fatal(err)
	}
	if err := db.Snapshot(l); err != nil { // full base, includes victim
		t.Fatal(err)
	}
	if err := db.Delete("victim"); err != nil {
		t.Fatal(err)
	}
	if err := db.Snapshot(l); err != nil { // increment: victim's bucket, zero records
		t.Fatal(err)
	}
	if got := len(chain(t, l).Incrs); got != 1 {
		t.Fatalf("chain has %d increments, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, s2 := openStore(t, f, dir)
	defer l2.Close()
	if _, ok := s2.Get("victim"); ok {
		t.Fatal("revoked record resurrected from the base under its emptied bucket")
	}
	if got := s2.Len(); got != 5 {
		t.Fatalf("recovered %d records, want 5", got)
	}
}

// TestChainCollapsesAtMax pins the chain bound: after maxChainIncrs
// increments the next cut is a full snapshot that becomes the new base,
// and the old generation is purged from the directory.
func TestChainCollapsesAtMax(t *testing.T) {
	f := newFixture(t, 16, 83)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	if err := db.Insert(f.record(t, "seed")); err != nil {
		t.Fatal(err)
	}
	if err := db.Snapshot(l); err != nil { // base
		t.Fatal(err)
	}
	for i := 0; i < maxChainIncrs; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("inc-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := db.Snapshot(l); err != nil {
			t.Fatal(err)
		}
		if got := len(chain(t, l).Incrs); got != i+1 {
			t.Fatalf("after cut %d: chain has %d increments, want %d", i, got, i+1)
		}
	}
	// The chain is full: the next cut must collapse to a fresh base.
	if err := db.Insert(f.record(t, "collapse")); err != nil {
		t.Fatal(err)
	}
	if err := db.Snapshot(l); err != nil {
		t.Fatal(err)
	}
	man := chain(t, l)
	if len(man.Incrs) != 0 {
		t.Fatalf("chain not collapsed: %d increments after exceeding maxChainIncrs", len(man.Incrs))
	}
	snaps, incrs, _, hasManifest := dirFiles(t, dir)
	if !hasManifest || len(snaps) != 1 || len(incrs) != 0 {
		t.Fatalf("post-collapse directory = snaps %v incrs %v manifest %v, want one base and no increments", snaps, incrs, hasManifest)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, s2 := openStore(t, f, dir)
	defer l2.Close()
	if got := s2.Len(); got != maxChainIncrs+2 {
		t.Fatalf("recovered %d records, want %d", got, maxChainIncrs+2)
	}
}

// TestTailDirtySeedsIncremental pins the recovery seam: mutations recovered
// from the WAL tail, seeded via TailDirty/SeedDirty, make the first
// post-boot cut incremental — and it captures exactly the tail's buckets.
func TestTailDirtySeedsIncremental(t *testing.T) {
	f := newFixture(t, 16, 84)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	for i := 0; i < 10; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("base-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Snapshot(l); err != nil { // base
		t.Fatal(err)
	}
	if err := db.Insert(f.record(t, "tail-user")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // tail-user lives only in the WAL
		t.Fatal(err)
	}

	l2, s2 := openStore(t, f, dir)
	db2 := store.NewJournaled(s2, l2)
	db2.SeedDirty(l2.TailDirty())
	if err := db2.Snapshot(l2); err != nil {
		t.Fatal(err)
	}
	if got := len(chain(t, l2).Incrs); got != 1 {
		t.Fatalf("post-recovery cut produced %d increments, want 1 (seeded tail)", got)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, s3 := openStore(t, f, dir)
	defer l3.Close()
	if got := s3.Len(); got != 11 {
		t.Fatalf("recovered %d records, want 11", got)
	}
	if _, ok := s3.Get("tail-user"); !ok {
		t.Fatal("tail record lost across an incremental post-recovery cut")
	}
}

// TestUnseededRecoveryFallsBackToFull pins the safety default: without
// SeedDirty the dirty set cannot be trusted after recovery, so the first cut
// is a full snapshot (never a data-losing increment).
func TestUnseededRecoveryFallsBackToFull(t *testing.T) {
	f := newFixture(t, 16, 85)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	for i := 0; i < 4; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("u-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Snapshot(l); err != nil {
		t.Fatal(err)
	}
	oldBase := chain(t, l).Base
	if err := db.Insert(f.record(t, "tail")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, s2 := openStore(t, f, dir)
	db2 := store.NewJournaled(s2, l2) // no SeedDirty
	if err := db2.Snapshot(l2); err != nil {
		t.Fatal(err)
	}
	man := chain(t, l2)
	if len(man.Incrs) != 0 || man.Base == oldBase {
		t.Fatalf("unseeded post-recovery cut = base %d incrs %v, want a fresh full base", man.Base, man.Incrs)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, s3 := openStore(t, f, dir)
	defer l3.Close()
	if got := s3.Len(); got != 5 {
		t.Fatalf("recovered %d records, want 5", got)
	}
}

// TestCorruptManifestFailsLoudly pins that a mangled MANIFEST refuses
// recovery with ErrCorrupt instead of silently guessing a chain.
func TestCorruptManifestFailsLoudly(t *testing.T) {
	f := newFixture(t, 16, 86)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	if err := db.Insert(f.record(t, "a")); err != nil {
		t.Fatal(err)
	}
	if err := db.Snapshot(l); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not json{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt manifest open err = %v, want ErrCorrupt", err)
	}
}

// TestMissingChainFileFatal pins that a manifest naming a vanished increment
// is ErrCorrupt at replay — silently skipping a chain link would resurrect
// superseded records.
func TestMissingChainFileFatal(t *testing.T) {
	f := newFixture(t, 16, 87)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	db := store.NewJournaled(s, l)
	if err := db.Insert(f.record(t, "a")); err != nil {
		t.Fatal(err)
	}
	if err := db.Snapshot(l); err != nil { // base
		t.Fatal(err)
	}
	if err := db.Insert(f.record(t, "b")); err != nil {
		t.Fatal(err)
	}
	if err := db.Snapshot(l); err != nil { // increment
		t.Fatal(err)
	}
	incrs := chain(t, l).Incrs
	if len(incrs) != 1 {
		t.Fatalf("chain has %d increments, want 1", len(incrs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, incrName(incrs[0]))); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(f.line(), 0, l2.Replay); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing increment replay err = %v, want ErrCorrupt", err)
	}
}
