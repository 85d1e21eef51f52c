package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sketch"
)

// TestConcurrentMixedWorkload interleaves Insert, Delete, Identify and Get
// across goroutines on every store layout. Run with -race; the
// assertions only involve records that no goroutine mutates, so the test is
// deterministic despite the interleaving.
func TestConcurrentMixedWorkload(t *testing.T) {
	f := newFixture(t, 32, 21)
	users := f.src.Population(60)
	// users[0:15]  — pre-enrolled, deleted concurrently
	// users[15:30] — pre-enrolled, stable (assertions run against these)
	// users[30:60] — inserted concurrently
	records := make([]*Record, len(users))
	for i, u := range users {
		_, helper, err := f.fe.Gen(u.Template)
		if err != nil {
			t.Fatal(err)
		}
		records[i] = &Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}
	}
	// Probes of the stable users, precomputed so goroutines share nothing
	// mutable.
	stableProbes := make([]*sketch.Sketch, 15)
	for i := 0; i < 15; i++ {
		reading, err := f.src.GenuineReading(users[15+i])
		if err != nil {
			t.Fatal(err)
		}
		stableProbes[i] = f.probe(t, reading)
	}
	for name, s := range f.stores {
		name, s := name, s
		t.Run(name, func(t *testing.T) {
			for _, rec := range records[:30] {
				if err := s.Insert(rec); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			wg.Add(4)
			go func() { // inserter
				defer wg.Done()
				for _, rec := range records[30:] {
					if err := s.Insert(rec); err != nil {
						t.Errorf("%s Insert: %v", name, err)
						return
					}
				}
			}()
			go func() { // deleter
				defer wg.Done()
				for _, rec := range records[:15] {
					if err := s.Delete(rec.ID); err != nil {
						t.Errorf("%s Delete: %v", name, err)
						return
					}
				}
			}()
			go func() { // identifier
				defer wg.Done()
				for trial := 0; trial < 40; trial++ {
					p := stableProbes[trial%len(stableProbes)]
					rec, err := s.Identify(p)
					if err != nil {
						t.Errorf("%s Identify: %v", name, err)
						return
					}
					if rec.ID != users[15+trial%len(stableProbes)].ID {
						t.Errorf("%s misidentified %s", name, rec.ID)
						return
					}
				}
			}()
			go func() { // getter
				defer wg.Done()
				for trial := 0; trial < 100; trial++ {
					u := users[15+trial%15]
					if rec, ok := s.Get(u.ID); !ok || rec.ID != u.ID {
						t.Errorf("%s Get(%s) = (%v, %v)", name, u.ID, rec, ok)
						return
					}
				}
			}()
			wg.Wait()
			// Final state: 30 pre-enrolled - 15 deleted + 30 inserted.
			if got := s.Len(); got != 45 {
				t.Errorf("%s Len = %d, want 45", name, got)
			}
			for _, rec := range records[:15] {
				if _, ok := s.Get(rec.ID); ok {
					t.Errorf("%s deleted %s still present", name, rec.ID)
				}
			}
			for i, p := range stableProbes {
				rec, err := s.Identify(p)
				if err != nil || rec.ID != users[15+i].ID {
					t.Errorf("%s post-workload Identify = (%v, %v)", name, rec, err)
				}
			}
		})
	}
}

// TestWrongDimensionIdentifyRacesFirstInsert races the first insert into a
// fresh store against Identify with a probe far longer
// than the record, whose leading residues equal the record's so the coarse
// filter admits it. While the store is empty the probe's length cannot be
// checked, so the scan must not slice rows at it once the insert lands: the
// only acceptable answers are a miss and ErrBadProbe.
func TestWrongDimensionIdentifyRacesFirstInsert(t *testing.T) {
	line := numberline.MustNew(numberline.PaperParams())
	movements := []int64{3, -50, 120, 7, -199, 0, 64, 150}
	long := &sketch.Sketch{Movements: make([]int64, 1000)}
	copy(long.Movements, movements)
	rec := rawRecord("u", movements)
	for iter := 0; iter < 500; iter++ {
		s := NewScanShards(line, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Insert(rec); err != nil {
				t.Error(err)
			}
		}()
		for k := 0; k < 4; k++ {
			if _, err := s.Identify(long); !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrBadProbe) {
				t.Errorf("iteration %d: Identify err = %v", iter, err)
			}
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}

func TestIdentifyCtxCancelled(t *testing.T) {
	f := newFixture(t, 32, 24)
	users := f.src.Population(20)
	for _, u := range users {
		f.enroll(t, u)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reading, err := f.src.GenuineReading(users[0])
	if err != nil {
		t.Fatal(err)
	}
	probe := f.probe(t, reading)
	for name, s := range f.stores {
		// A cancelled context may still return a record found before the
		// first cancellation check, but it must never return ErrNotFound
		// disguised as a scan result and must surface ctx.Err() on a miss.
		impostor := f.probe(t, f.src.ImpostorReading())
		var rec Record
		if err := s.IdentifyInto(ctx, impostor, &rec); !errors.Is(err, context.Canceled) && !errors.Is(err, ErrNotFound) {
			t.Errorf("%s cancelled err = %v", name, err)
		}
		if err := s.IdentifyInto(context.Background(), probe, &rec); err != nil {
			t.Errorf("%s background ctx: %v", name, err)
		}
	}
}

// TestAllInsertionOrderAfterDelete pins the All() contract: snapshots stay
// in insertion order even though the sharded table relocates rows on delete.
func TestAllInsertionOrderAfterDelete(t *testing.T) {
	f := newFixture(t, 16, 25)
	users := f.src.Population(20)
	for _, u := range users {
		f.enroll(t, u)
	}
	for name, s := range f.stores {
		if err := s.Delete(users[5].ID); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(users[12].ID); err != nil {
			t.Fatal(err)
		}
		all := s.All()
		if len(all) != 18 {
			t.Fatalf("%s All returned %d records", name, len(all))
		}
		want := make([]string, 0, 18)
		for i, u := range users {
			if i != 5 && i != 12 {
				want = append(want, u.ID)
			}
		}
		for i, rec := range all {
			if rec.ID != want[i] {
				t.Errorf("%s All[%d] = %s, want %s", name, i, rec.ID, want[i])
			}
		}
	}
}

// TestManyShards checks correctness is independent of the shard count,
// including counts far above the record count: genuine and impostor probes
// agree with the brute-force oracle at every count.
func TestManyShards(t *testing.T) {
	f := newFixture(t, 32, 26)
	users := f.src.Population(10)
	for _, shards := range []int{1, 3, 64} {
		s := NewScanShards(f.fe.Line(), shards)
		name := fmt.Sprintf("shards=%d", shards)
		for _, u := range users {
			_, helper, err := f.fe.Gen(u.Template)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Insert(&Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}); err != nil {
				t.Fatal(err)
			}
		}
		for _, u := range users {
			reading, err := f.src.GenuineReading(u)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkOracle(t, name, s, f.fe.Line(), f.probe(t, reading)); err != nil {
				t.Errorf("%s Identify(%s): %v", name, u.ID, err)
			}
		}
		checkOracle(t, name, s, f.fe.Line(), f.probe(t, f.src.ImpostorReading()))
		if s.Len() != len(users) {
			t.Errorf("%s Len = %d", name, s.Len())
		}
	}
}
