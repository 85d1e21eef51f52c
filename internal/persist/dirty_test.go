package persist

import (
	"fmt"
	"testing"

	"fuzzyid/internal/store"
)

// midWriteLog is a Log whose WriteSnapshot first runs during: a mutation
// that lands while a full snapshot cut is being written.
type midWriteLog struct {
	*Log
	during func()
}

func (l *midWriteLog) WriteSnapshot(seq uint64, recs []*store.Record) error {
	l.during()
	return l.Log.WriteSnapshot(seq, recs)
}

// TestDirtyMidWriteMutationReachesNextIncrement pins where dirty tracking
// is armed: at the cut, under the mutation lock — not once the full write
// succeeds. A record inserted while the full snapshot is written lands in
// the WAL segment the next cut subsumes, so that incremental cut must carry
// its bucket, and recovery after it must still find the record.
func TestDirtyMidWriteMutationReachesNextIncrement(t *testing.T) {
	f := newFixture(t, 16, 88)
	dir := t.TempDir()
	l, s := openStore(t, f, dir)
	ml := &midWriteLog{Log: l, during: func() {}}
	db := store.NewJournaled(s, ml)
	for i := 0; i < 4; i++ {
		if err := db.Insert(f.record(t, fmt.Sprintf("u-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	mid := f.record(t, "mid-write")
	ml.during = func() {
		if err := db.Insert(mid); err != nil {
			t.Error(err)
		}
	}
	if err := db.Snapshot(ml); err != nil {
		t.Fatal(err)
	}
	ml.during = func() {}
	if err := db.Snapshot(ml); err != nil {
		t.Fatal(err)
	}
	if got := len(chain(t, l).Incrs); got != 1 {
		t.Fatalf("second cut left %d increments, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, s2 := openStore(t, f, dir)
	defer l2.Close()
	if _, ok := s2.Get("mid-write"); !ok || s2.Len() != 5 {
		t.Fatalf("recovered %d records (mid-write present: %v), want 5 with it", s2.Len(), ok)
	}
}
