package store

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"fuzzyid/internal/core"
	"fuzzyid/internal/sketch"
)

// memJournal is an in-memory Journal/Snapshotter for exercising the
// interception point without the persistence layer.
type memJournal struct {
	log      []Mutation
	failNext error
	rotated  int
	snapped  [][]*Record
}

func (j *memJournal) Append(m Mutation) error {
	if j.failNext != nil {
		err := j.failNext
		j.failNext = nil
		return err
	}
	j.log = append(j.log, m)
	return nil
}

func (j *memJournal) Rotate() (uint64, error) {
	j.rotated++
	return uint64(j.rotated), nil
}

func (j *memJournal) WriteSnapshot(seq uint64, recs []*Record) error {
	j.snapped = append(j.snapped, recs)
	return nil
}

// replayOf turns a recorded mutation log into a ReplayFunc.
func replayOf(log []Mutation) ReplayFunc {
	return func(apply func(Mutation) error) error {
		for _, m := range log {
			if err := apply(m); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestJournaledInterceptsMutations(t *testing.T) {
	f := newFixture(t, 16, 61)
	j := &memJournal{}
	db := NewJournaled(NewScan(f.fe.Line()), j)
	u := f.src.NewUser("alice")
	_, helper, err := f.fe.Gen(u.Template)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}
	if err := db.Insert(rec); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(u.ID); err != nil {
		t.Fatal(err)
	}
	if len(j.log) != 2 || j.log[0].Op != OpInsert || j.log[1].Op != OpDelete {
		t.Fatalf("journal log = %+v, want insert then delete", j.log)
	}
	if j.log[0].ID != u.ID || j.log[1].ID != u.ID {
		t.Fatalf("journal IDs = %q, %q, want %q", j.log[0].ID, j.log[1].ID, u.ID)
	}
	// A rejected mutation must not reach the journal.
	if err := db.Insert(&Record{ID: ""}); err == nil {
		t.Fatal("invalid record accepted")
	}
	if len(j.log) != 2 {
		t.Fatalf("invalid record reached the journal: %+v", j.log)
	}
}

// TestJournaledFailedAppendLeavesNoState pins the write-ahead ordering: a
// mutation whose journal append fails must leave the in-memory store
// exactly as it was — never visible, never deleted.
func TestJournaledFailedAppendLeavesNoState(t *testing.T) {
	f := newFixture(t, 16, 62)
	j := &memJournal{}
	db := NewJournaled(NewScan(f.fe.Line()), j)
	u := f.src.NewUser("bob")
	_, helper, err := f.fe.Gen(u.Template)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}

	boom := errors.New("disk full")
	j.failNext = boom
	if err := db.Insert(rec); !errors.Is(err, boom) {
		t.Fatalf("insert err = %v, want %v", err, boom)
	}
	if _, ok := db.Get(u.ID); ok {
		t.Fatal("mutation that was never durable is visible")
	}

	// Now insert for real, then fail the delete's journal append.
	if err := db.Insert(rec); err != nil {
		t.Fatal(err)
	}
	j.failNext = boom
	if err := db.Delete(u.ID); !errors.Is(err, boom) {
		t.Fatalf("delete err = %v, want %v", err, boom)
	}
	if _, ok := db.Get(u.ID); !ok {
		t.Fatal("record vanished although the deletion was never journalled")
	}
}

// TestJournaledPreValidation: the wrapper rejects duplicate IDs and
// mismatched dimensions before anything reaches the journal, so the WAL
// only ever records mutations that replay cleanly.
func TestJournaledPreValidation(t *testing.T) {
	f := newFixture(t, 16, 66)
	j := &memJournal{}
	db := NewJournaled(NewScan(f.fe.Line()), j)
	u := f.src.NewUser("eve")
	_, helper, err := f.fe.Gen(u.Template)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}
	if err := db.Insert(rec); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(rec); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate insert err = %v, want ErrDuplicateID", err)
	}
	short := &Record{ID: "short", PublicKey: []byte("pk"), Helper: &core.HelperData{
		Sketch: &sketch.RobustSketch{Sketch: &sketch.Sketch{Movements: make([]int64, 8)}},
		Seed:   []byte("seed"),
	}}
	if err := db.Insert(short); !errors.Is(err, ErrBadDimension) {
		t.Fatalf("mismatched dimension err = %v, want ErrBadDimension", err)
	}
	if err := db.Delete("ghost"); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown delete err = %v, want ErrUnknownID", err)
	}
	if len(j.log) != 1 {
		t.Fatalf("journal recorded %d mutations, want only the valid insert", len(j.log))
	}
	if got := db.Dimension(); got != 16 {
		t.Fatalf("Dimension() = %d, want 16", got)
	}
}

// TestOpenRebuildsEveryStrategy checks Open rebuilds the store from a
// mutation history, with one shard and with the default count.
func TestOpenRebuildsEveryStrategy(t *testing.T) {
	f := newFixture(t, 16, 63)
	// Build a mutation history: 6 enrollments, 2 revocations.
	var log []Mutation
	users := f.src.Population(6)
	for _, u := range users {
		_, helper, err := f.fe.Gen(u.Template)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, InsertMutation(&Record{ID: u.ID, PublicKey: []byte("pk-" + u.ID), Helper: helper}))
	}
	log = append(log, DeleteMutation(users[1].ID), DeleteMutation(users[4].ID))

	for _, shards := range []int{1, 0} {
		s, err := Open(f.fe.Line(), shards, replayOf(log))
		if err != nil {
			t.Fatalf("shards=%d: Open: %v", shards, err)
		}
		if got := s.Len(); got != 4 {
			t.Fatalf("shards=%d: rebuilt %d records, want 4", shards, got)
		}
		if _, ok := s.Get(users[1].ID); ok {
			t.Fatalf("shards=%d: revoked record present after rebuild", shards)
		}
		// The rebuilt store must identify a surviving user.
		reading, err := f.src.GenuineReading(users[0])
		if err != nil {
			t.Fatal(err)
		}
		probe := f.probe(t, reading)
		rec, err := s.Identify(probe)
		if err != nil || rec.ID != users[0].ID {
			t.Fatalf("shards=%d: post-rebuild identify = (%v, %v)", shards, rec, err)
		}
	}
}

func TestReplayRejectsCorruptStream(t *testing.T) {
	f := newFixture(t, 16, 64)
	u := f.src.NewUser("dup")
	_, helper, err := f.fe.Gen(u.Template)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}
	// Duplicate insert marks a corrupt journal, not a tolerable state.
	_, err = Open(f.fe.Line(), 0, replayOf([]Mutation{InsertMutation(rec), InsertMutation(rec)}))
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate replay err = %v, want ErrDuplicateID", err)
	}
	// Deleting an unknown ID likewise.
	_, err = Open(f.fe.Line(), 0, replayOf([]Mutation{DeleteMutation("ghost")}))
	if !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown-delete replay err = %v, want ErrUnknownID", err)
	}
	// An op value outside the contract is rejected.
	_, err = Open(f.fe.Line(), 0, replayOf([]Mutation{{Op: 99}}))
	if err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestJournaledSnapshotCapturesConsistentState(t *testing.T) {
	f := newFixture(t, 16, 65)
	j := &memJournal{}
	db := NewJournaled(NewScan(f.fe.Line()), j)
	for i, u := range f.src.Population(5) {
		_, helper, err := f.fe.Gen(u.Template)
		if err != nil {
			t.Fatal(err)
		}
		rec := &Record{ID: fmt.Sprintf("u%d-%s", i, u.ID), PublicKey: []byte("pk"), Helper: helper}
		if err := db.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Snapshot(j); err != nil {
		t.Fatal(err)
	}
	if j.rotated != 1 || len(j.snapped) != 1 {
		t.Fatalf("rotated=%d snapshots=%d, want 1 and 1", j.rotated, len(j.snapped))
	}
	if got := len(j.snapped[0]); got != 5 {
		t.Fatalf("snapshot carries %d records, want 5", got)
	}
}

// TestMultiJournalOrderAndFailFast pins the fan-out contract replication
// relies on: journals accept the mutation in order (durability before
// shipping), and a failure in an earlier journal keeps the mutation from
// every later one.
func TestMultiJournalOrderAndFailFast(t *testing.T) {
	f := newFixture(t, 16, 63)
	first, second := &memJournal{}, &memJournal{}
	db := NewJournaled(NewScan(f.fe.Line()), MultiJournal{first, second})
	u := f.src.NewUser("alice")
	_, helper, err := f.fe.Gen(u.Template)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(&Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}); err != nil {
		t.Fatal(err)
	}
	if len(first.log) != 1 || len(second.log) != 1 {
		t.Fatalf("journal logs = %d, %d entries, want 1 each", len(first.log), len(second.log))
	}
	first.failNext = errors.New("disk gone")
	if err := db.Delete(u.ID); err == nil {
		t.Fatal("delete succeeded past a failed first journal")
	}
	if len(second.log) != 1 {
		t.Fatalf("mutation reached the second journal after the first failed: %+v", second.log)
	}
	if _, ok := db.Get(u.ID); !ok {
		t.Fatal("failed delete mutated the store")
	}
}

// TestJournaledViewConsistentCut checks View blocks mutations while fn
// runs: the record set fn sees cannot change under it.
func TestJournaledViewConsistentCut(t *testing.T) {
	f := newFixture(t, 16, 64)
	db := NewJournaled(NewScan(f.fe.Line()), &memJournal{})
	u := f.src.NewUser("alice")
	_, helper, err := f.fe.Gen(u.Template)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(&Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}); err != nil {
		t.Fatal(err)
	}
	u2 := f.src.NewUser("bob")
	_, helper2, err := f.fe.Gen(u2.Template)
	if err != nil {
		t.Fatal(err)
	}
	inserted := make(chan error, 1)
	db.View(func(recs []*Record) {
		if len(recs) != 1 {
			t.Fatalf("view saw %d records, want 1", len(recs))
		}
		go func() {
			inserted <- db.Insert(&Record{ID: u2.ID, PublicKey: []byte("pk"), Helper: helper2})
		}()
		select {
		case err := <-inserted:
			t.Fatalf("insert completed during View (err=%v)", err)
		case <-time.After(50 * time.Millisecond):
			// Blocked, as required.
		}
	})
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d after View released", db.Len())
	}
}
