package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"fuzzyid/internal/sketch"
)

// reenrollFixture builds two full record versions of the same ID ("flip")
// plus a stable background population, with precomputed probes for each
// version. Replacing flip back and forth between the versions while readers
// hammer it is the torn-template detector: a reader that ever sees version
// A's index row paired with version B's record payload (or any mix of the
// two public keys and helpers) has observed a half-replaced template.
type reenrollFixture struct {
	f              *fixture
	recA, recB     *Record
	probeA, probeB *sketch.Sketch
	stable         []*Record
	stableProbes   []*sketch.Sketch
}

func newReenrollFixture(t *testing.T, seed int64) *reenrollFixture {
	t.Helper()
	f := newFixture(t, 32, seed)
	rf := &reenrollFixture{f: f}
	mkRec := func(version string) (*Record, *sketch.Sketch) {
		u := f.src.NewUser("flip")
		_, helper, err := f.fe.Gen(u.Template)
		if err != nil {
			t.Fatal(err)
		}
		reading, err := f.src.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		return &Record{ID: "flip", PublicKey: []byte("pk-" + version), Helper: helper}, f.probe(t, reading)
	}
	rf.recA, rf.probeA = mkRec("A")
	rf.recB, rf.probeB = mkRec("B")
	for _, u := range f.src.Population(12) {
		_, helper, err := f.fe.Gen(u.Template)
		if err != nil {
			t.Fatal(err)
		}
		rf.stable = append(rf.stable, &Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper})
		reading, err := f.src.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		rf.stableProbes = append(rf.stableProbes, f.probe(t, reading))
	}
	return rf
}

// seed populates s with the stable records and version A of flip.
func (rf *reenrollFixture) seed(t *testing.T, s Store) {
	t.Helper()
	for _, rec := range rf.stable {
		if err := s.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Insert(rf.recA); err != nil {
		t.Fatal(err)
	}
}

// version classifies a record returned for flip; "" means torn.
func (rf *reenrollFixture) version(rec *Record) string {
	switch {
	case string(rec.PublicKey) == "pk-A" && rec.Helper == rf.recA.Helper:
		return "A"
	case string(rec.PublicKey) == "pk-B" && rec.Helper == rf.recB.Helper:
		return "B"
	default:
		return ""
	}
}

// raceVariants is the layout matrix the concurrency tests run against: the
// scan store at both ends of the packed widths, with the coarse filter on
// and off.
func raceVariants(t *testing.T, f *fixture) map[string]Store {
	t.Helper()
	variants := map[string]Store{}
	for _, w := range []int{Width16, Width64} {
		for _, noCoarse := range []bool{false, true} {
			name := fmt.Sprintf("scan-w%d", w)
			if noCoarse {
				name += "-nocoarse"
			}
			variants[name] = mustScanTuned(t, f.fe.Line(), Tuning{ResidueWidth: w, NoCoarseFilter: noCoarse})
		}
	}
	return variants
}

// TestConcurrentReplaceNeverTorn races Replace against Get and Identify on
// the same ID (the store-level legs of re-enroll vs verify/identify). Run
// with -race. Every observation must be exactly version A or exactly
// version B: matching one version's index row but returning the other
// version's record — or any cross of public key and helper — is a torn
// template and fails the test.
func TestConcurrentReplaceNeverTorn(t *testing.T) {
	rf := newReenrollFixture(t, 28)
	for name, s := range raceVariants(t, rf.f) {
		name, s := name, s
		t.Run(name, func(t *testing.T) {
			rf.seed(t, s)
			var wg sync.WaitGroup
			wg.Add(5)
			go func() { // re-enroller: flip between the two versions
				defer wg.Done()
				for i := 0; i < 150; i++ {
					rec := rf.recA
					if i%2 == 1 {
						rec = rf.recB
					}
					if err := s.Replace(rec); err != nil {
						t.Errorf("%s Replace: %v", name, err)
						return
					}
				}
			}()
			go func() { // verifier leg: Get must always see one whole version
				defer wg.Done()
				for i := 0; i < 400; i++ {
					rec, ok := s.Get("flip")
					if !ok {
						t.Errorf("%s Get(flip) missed during replace", name)
						return
					}
					if rf.version(rec) == "" {
						t.Errorf("%s Get(flip) observed a torn record: pk=%q", name, rec.PublicKey)
						return
					}
				}
			}()
			identifier := func(probe *sketch.Sketch, want string) func() {
				return func() { // identify leg: a hit must be the whole matching version
					defer wg.Done()
					for i := 0; i < 120; i++ {
						rec, err := s.Identify(probe)
						if errors.Is(err, ErrNotFound) {
							continue // the other version is enrolled right now
						}
						if err != nil {
							t.Errorf("%s Identify: %v", name, err)
							return
						}
						if rec.ID == "flip" && rf.version(rec) != want {
							t.Errorf("%s Identify matched version %s's template but returned pk=%q",
								name, want, rec.PublicKey)
							return
						}
					}
				}
			}
			go identifier(rf.probeA, "A")()
			go identifier(rf.probeB, "B")()
			go func() { // bystanders must be untouched by the churn
				defer wg.Done()
				for i := 0; i < 100; i++ {
					j := i % len(rf.stableProbes)
					rec, err := s.Identify(rf.stableProbes[j])
					if err != nil || rec.ID != rf.stable[j].ID {
						t.Errorf("%s stable Identify = (%v, %v)", name, rec, err)
						return
					}
				}
			}()
			wg.Wait()
			if t.Failed() {
				return
			}
			// Quiesced: exactly one whole version, correct population count,
			// and the index agrees with the record payload.
			if got := s.Len(); got != len(rf.stable)+1 {
				t.Fatalf("%s Len = %d, want %d", name, got, len(rf.stable)+1)
			}
			rec, ok := s.Get("flip")
			if !ok || rf.version(rec) == "" {
				t.Fatalf("%s final Get(flip) = (%v, %v)", name, rec, ok)
			}
			if err := s.Replace(rf.recA); err != nil {
				t.Fatal(err)
			}
			if rec, err := s.Identify(rf.probeA); err != nil || rf.version(rec) != "A" {
				t.Fatalf("%s post-settle Identify(A) = (%v, %v)", name, rec, err)
			}
			if _, err := s.Identify(rf.probeB); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s replaced-away template still identifiable: %v", name, err)
			}
		})
	}
}

// TestConcurrentReplaceVsRevoke races Replace against Delete on the same ID
// (re-enroll vs revoke). Run with -race. Once the delete lands, further
// replaces must fail with ErrUnknownID — never resurrect the record — and
// the store must end with the ID gone.
func TestConcurrentReplaceVsRevoke(t *testing.T) {
	rf := newReenrollFixture(t, 29)
	for name, s := range raceVariants(t, rf.f) {
		name, s := name, s
		t.Run(name, func(t *testing.T) {
			rf.seed(t, s)
			var wg sync.WaitGroup
			wg.Add(3)
			go func() { // re-enroller, racing the revoke below
				defer wg.Done()
				for i := 0; i < 200; i++ {
					rec := rf.recA
					if i%2 == 1 {
						rec = rf.recB
					}
					if err := s.Replace(rec); err != nil && !errors.Is(err, ErrUnknownID) {
						t.Errorf("%s Replace: %v", name, err)
						return
					}
				}
			}()
			go func() { // revoker
				defer wg.Done()
				if err := s.Delete("flip"); err != nil {
					t.Errorf("%s Delete: %v", name, err)
				}
			}()
			go func() { // reader: whole version until gone, never torn
				defer wg.Done()
				for i := 0; i < 300; i++ {
					rec, ok := s.Get("flip")
					if ok && rf.version(rec) == "" {
						t.Errorf("%s Get(flip) observed a torn record: pk=%q", name, rec.PublicKey)
						return
					}
				}
			}()
			wg.Wait()
			if t.Failed() {
				return
			}
			if _, ok := s.Get("flip"); ok {
				t.Fatalf("%s revoked ID still present after replace storm", name)
			}
			if err := s.Replace(rf.recA); !errors.Is(err, ErrUnknownID) {
				t.Fatalf("%s Replace after revoke = %v, want ErrUnknownID", name, err)
			}
			if got := s.Len(); got != len(rf.stable) {
				t.Fatalf("%s Len = %d, want %d", name, got, len(rf.stable))
			}
			for j, probe := range rf.stableProbes {
				if rec, err := s.Identify(probe); err != nil || rec.ID != rf.stable[j].ID {
					t.Fatalf("%s stable Identify = (%v, %v)", name, rec, err)
				}
			}
		})
	}
}

// TestJournaledConcurrentReplace races Replace through the journal seam:
// every successful replace must be journaled exactly once as a
// tenant-stamped OpReplace, so the WAL and the replication stream replay to
// the same final template the readers observed (no acked-but-unjournaled
// swap, no journaled-but-unapplied one). Run with -race.
func TestJournaledConcurrentReplace(t *testing.T) {
	rf := newReenrollFixture(t, 30)
	j := &memJournal{}
	db := NewJournaled(NewScan(rf.f.fe.Line()), j)
	rf.seed(t, db)
	seeded := len(j.log)
	const swaps = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			rec := rf.recA
			if i%2 == 1 {
				rec = rf.recB
			}
			if err := db.Replace(rec); err != nil {
				t.Errorf("Replace: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			if rec, ok := db.Get("flip"); !ok || rf.version(rec) == "" {
				t.Errorf("torn or missing record through the journal seam")
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := len(j.log) - seeded; got != swaps {
		t.Fatalf("journal recorded %d replace mutations, want %d", got, swaps)
	}
	for _, m := range j.log[seeded:] {
		if m.Op != OpReplace || m.ID != "flip" || m.Tenant != "" || m.Record == nil {
			t.Fatalf("journaled mutation = %+v, want default-tenant OpReplace of flip", m)
		}
	}
	// The journal replays to the same record the live store holds.
	last := j.log[len(j.log)-1].Record
	live, ok := db.Get("flip")
	if !ok || rf.version(live) == "" || string(live.PublicKey) != string(last.PublicKey) {
		t.Fatalf("live record pk=%q diverges from last journaled replace pk=%q", live.PublicKey, last.PublicKey)
	}
}
