package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sketch"
)

// storeAPI is the surface *Scan and *Journaled share: the tests that loop
// over store variants drive each one through it.
type storeAPI interface {
	Insert(*Record) error
	Get(id string) (*Record, bool)
	GetInto(id string, dst *Record) bool
	Contains(id string) bool
	Delete(id string) error
	Replace(*Record) error
	Identify(probe *sketch.Sketch) (*Record, error)
	IdentifyInto(ctx context.Context, probe *sketch.Sketch, dst *Record) error
	All() []*Record
	Len() int
	Dimension() int
}

// fixture bundles a fuzzy extractor, a biometric source and empty stores:
// the production layout, the unpacked, unfiltered reference layout, and the
// production layout behind the journal-less tenant wrapper.
type fixture struct {
	fe     *core.FuzzyExtractor
	src    *biometric.Source
	stores map[string]storeAPI
}

func newFixture(t *testing.T, dim int, seed int64) *fixture {
	t.Helper()
	fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: dim})
	if err != nil {
		t.Fatal(err)
	}
	src, err := biometric.NewSource(fe.Line(), biometric.Paper(dim), seed)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		fe:  fe,
		src: src,
		stores: map[string]storeAPI{
			"scan":              NewScan(fe.Line()),
			"scan-w64-nocoarse": mustScanTuned(t, fe.Line(), Tuning{ResidueWidth: Width64, NoCoarseFilter: true}),
			"journaled":         NewJournaled(NewScan(fe.Line()), nil),
		},
	}
}

func mustScanTuned(t *testing.T, line *numberline.Line, tun Tuning) *Scan {
	t.Helper()
	s, err := NewScanTuned(line, 0, tun)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// matchRow is the reference condition check: every probe residue within
// circular distance t of the row's. The packed matcher and the store's
// Identify are both tested against it.
func matchRow(row, probe []int64, span, t int64) bool {
	for i, r := range row {
		d := r - probe[i]
		if d < 0 {
			d = -d
		}
		if d > span-d {
			d = span - d
		}
		if d > t {
			return false
		}
	}
	return true
}

// rawRecord builds a record straight from sketch movements, for tests that
// choose residues directly instead of enrolling a template.
func rawRecord(id string, movements []int64) *Record {
	return &Record{
		ID:        id,
		PublicKey: []byte("pk"),
		Helper:    &core.HelperData{Sketch: &sketch.RobustSketch{Sketch: &sketch.Sketch{Movements: movements}}},
	}
}

// residues reduces a sketch's movements mod ka.
func residues(line *numberline.Line, s *sketch.Sketch) []int64 {
	span := line.IntervalSpan()
	out := make([]int64, len(s.Movements))
	for i, m := range s.Movements {
		out[i] = (m%span + span) % span
	}
	return out
}

// oracleMatches is the brute-force identification oracle: the IDs of every
// record in s.All() whose residues match the probe's.
func oracleMatches(s storeAPI, line *numberline.Line, probe *sketch.Sketch) map[string]bool {
	span, t := line.IntervalSpan(), line.Threshold()
	want := residues(line, probe)
	out := make(map[string]bool)
	for _, rec := range s.All() {
		if matchRow(residues(line, rec.Helper.Sketch.Sketch), want, span, t) {
			out[rec.ID] = true
		}
	}
	return out
}

// checkOracle fails unless s.Identify(probe) returns a record the oracle
// matches, or ErrNotFound when the oracle matches none.
func checkOracle(t *testing.T, name string, s storeAPI, line *numberline.Line, probe *sketch.Sketch) error {
	t.Helper()
	want := oracleMatches(s, line, probe)
	rec, err := s.Identify(probe)
	if len(want) == 0 && !errors.Is(err, ErrNotFound) || len(want) > 0 && (err != nil || !want[rec.ID]) {
		t.Fatalf("%s: Identify = (%v, %v), oracle matches %v", name, rec, err, want)
	}
	return err
}

// enroll registers a user in every store and returns the record.
func (f *fixture) enroll(t *testing.T, u *biometric.User) *Record {
	t.Helper()
	_, helper, err := f.fe.Gen(u.Template)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{ID: u.ID, PublicKey: []byte("pk-" + u.ID), Helper: helper}
	for name, s := range f.stores {
		if err := s.Insert(rec); err != nil {
			t.Fatalf("%s Insert: %v", name, err)
		}
	}
	return rec
}

func (f *fixture) probe(t *testing.T, reading numberline.Vector) *sketch.Sketch {
	t.Helper()
	p, err := f.fe.SketchOnly(reading)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInsertValidation(t *testing.T) {
	f := newFixture(t, 16, 1)
	for name, s := range f.stores {
		if err := s.Insert(nil); !errors.Is(err, ErrNilRecord) {
			t.Errorf("%s nil record err = %v", name, err)
		}
		if err := s.Insert(&Record{ID: "x", PublicKey: []byte("pk")}); !errors.Is(err, ErrNilRecord) {
			t.Errorf("%s missing helper err = %v", name, err)
		}
	}
	u := f.src.NewUser("alice")
	_, helper, err := f.fe.Gen(u.Template)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range f.stores {
		if err := s.Insert(&Record{ID: "", PublicKey: []byte("pk"), Helper: helper}); !errors.Is(err, ErrNilRecord) {
			t.Errorf("%s empty ID err = %v", name, err)
		}
		if err := s.Insert(&Record{ID: "a", PublicKey: nil, Helper: helper}); !errors.Is(err, ErrNilRecord) {
			t.Errorf("%s empty pk err = %v", name, err)
		}
	}
}

func TestDuplicateID(t *testing.T) {
	f := newFixture(t, 16, 2)
	u := f.src.NewUser("alice")
	f.enroll(t, u)
	_, helper, err := f.fe.Gen(u.Template)
	if err != nil {
		t.Fatal(err)
	}
	dup := &Record{ID: u.ID, PublicKey: []byte("pk2"), Helper: helper}
	for name, s := range f.stores {
		if err := s.Insert(dup); !errors.Is(err, ErrDuplicateID) {
			t.Errorf("%s duplicate err = %v", name, err)
		}
	}
}

func TestDimensionConsistency(t *testing.T) {
	f := newFixture(t, 16, 3)
	u := f.src.NewUser("alice")
	f.enroll(t, u)
	// Build a 8-dim record with an unconstrained extractor.
	flexFE, err := core.New(core.Params{Line: numberline.PaperParams()})
	if err != nil {
		t.Fatal(err)
	}
	small, err := biometric.NewSource(flexFE.Line(), biometric.Paper(8), 4)
	if err != nil {
		t.Fatal(err)
	}
	u2 := small.NewUser("bob")
	_, helper, err := flexFE.Gen(u2.Template)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{ID: "bob", PublicKey: []byte("pk"), Helper: helper}
	for name, s := range f.stores {
		if err := s.Insert(rec); !errors.Is(err, ErrBadDimension) {
			t.Errorf("%s wrong-dimension err = %v", name, err)
		}
	}
}

func TestGetByID(t *testing.T) {
	f := newFixture(t, 16, 5)
	users := f.src.Population(10)
	for _, u := range users {
		f.enroll(t, u)
	}
	for name, s := range f.stores {
		rec, ok := s.Get("user-0003")
		if !ok || rec.ID != "user-0003" {
			t.Errorf("%s Get = (%v, %v)", name, rec, ok)
		}
		if _, ok := s.Get("nobody"); ok {
			t.Errorf("%s Get(nobody) returned a record", name)
		}
		if s.Len() != 10 {
			t.Errorf("%s Len = %d", name, s.Len())
		}
	}
}

func TestIdentifyGenuineProbe(t *testing.T) {
	f := newFixture(t, 64, 6)
	users := f.src.Population(50)
	for _, u := range users {
		f.enroll(t, u)
	}
	for trial := 0; trial < 20; trial++ {
		u := users[trial%len(users)]
		reading, err := f.src.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		probe := f.probe(t, reading)
		for name, s := range f.stores {
			rec, err := s.Identify(probe)
			if err != nil {
				t.Fatalf("%s Identify(%s): %v", name, u.ID, err)
			}
			if rec.ID != u.ID {
				t.Fatalf("%s identified %s as %s", name, u.ID, rec.ID)
			}
		}
	}
}

func TestIdentifyImpostor(t *testing.T) {
	f := newFixture(t, 64, 7)
	for _, u := range f.src.Population(50) {
		f.enroll(t, u)
	}
	for trial := 0; trial < 10; trial++ {
		probe := f.probe(t, f.src.ImpostorReading())
		for name, s := range f.stores {
			if _, err := s.Identify(probe); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s impostor err = %v, want ErrNotFound", name, err)
			}
		}
	}
}

func TestIdentifyNearMissRejected(t *testing.T) {
	// A reading one point beyond the threshold on one coordinate must not
	// identify (the sketch residue moves beyond t on that coordinate).
	f := newFixture(t, 64, 8)
	users := f.src.Population(10)
	for _, u := range users {
		f.enroll(t, u)
	}
	rejected := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		u := users[trial%len(users)]
		reading, err := f.src.NearMissReading(u, 1)
		if err != nil {
			t.Fatal(err)
		}
		probe := f.probe(t, reading)
		for name, s := range f.stores {
			if errors.Is(checkOracle(t, name, s, f.fe.Line(), probe), ErrNotFound) {
				rejected++
			}
		}
	}
	// The residue distance of the pushed coordinate is t+1 except in the
	// measure-zero-ish case where interval identifiers realign; all trials
	// must reject.
	if want := trials * len(f.stores); rejected != want {
		t.Errorf("near-miss rejected in %d/%d trials", rejected, want)
	}
}

func TestIdentifyProbeValidation(t *testing.T) {
	f := newFixture(t, 16, 9)
	u := f.src.NewUser("alice")
	f.enroll(t, u)
	for name, s := range f.stores {
		if _, err := s.Identify(nil); !errors.Is(err, ErrBadProbe) {
			t.Errorf("%s nil probe err = %v", name, err)
		}
		if _, err := s.Identify(&sketch.Sketch{Movements: []int64{1, 2}}); !errors.Is(err, ErrBadProbe) {
			t.Errorf("%s wrong-dimension probe err = %v", name, err)
		}
	}
}

func TestIdentifyEmptyStore(t *testing.T) {
	f := newFixture(t, 16, 10)
	probe := f.probe(t, f.src.ImpostorReading())
	for name, s := range f.stores {
		if _, err := s.Identify(probe); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s empty store err = %v", name, err)
		}
	}
}

// TestReplaceUnknownIDLeavesDimensionUnset pins the order of Replace's
// checks: on an empty store an unknown ID is refused before the record's
// dimension is adopted, so the store stays empty in every respect and a
// first insert of any dimension still succeeds.
func TestReplaceUnknownIDLeavesDimensionUnset(t *testing.T) {
	for name, s := range newFixture(t, 16, 13).stores {
		if err := s.Replace(rawRecord("ghost", make([]int64, 16))); !errors.Is(err, ErrUnknownID) {
			t.Fatalf("%s Replace(unknown) = %v, want ErrUnknownID", name, err)
		}
		if d := s.Dimension(); d != 0 {
			t.Fatalf("%s Dimension after a refused Replace = %d, want 0", name, d)
		}
		if err := s.Insert(rawRecord("first", make([]int64, 9))); err != nil {
			t.Fatalf("%s first Insert after a refused Replace: %v", name, err)
		}
		if d := s.Dimension(); d != 9 {
			t.Fatalf("%s Dimension = %d, want 9", name, d)
		}
	}
}

// TestStrategiesAgreeOnRandomWorkload checks every store layout against the
// brute-force oracle on a mixed workload of genuine and impostor probes,
// before and after deleting a third of the population.
func TestStrategiesAgreeOnRandomWorkload(t *testing.T) {
	f := newFixture(t, 32, 11)
	users := f.src.Population(100)
	for _, u := range users {
		f.enroll(t, u)
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		if trial == 100 {
			for _, u := range users[:len(users)/3] {
				for _, s := range f.stores {
					if err := s.Delete(u.ID); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		var reading numberline.Vector
		var err error
		if rng.Intn(2) == 0 {
			reading, err = f.src.GenuineReading(users[rng.Intn(len(users))])
			if err != nil {
				t.Fatal(err)
			}
		} else {
			reading = f.src.ImpostorReading()
		}
		probe := f.probe(t, reading)
		for name, s := range f.stores {
			checkOracle(t, fmt.Sprintf("trial %d %s", trial, name), s, f.fe.Line(), probe)
		}
	}
}

// TestBucketParameters pins the coarse filter's bucket sizing on the paper
// line, and its clamp to a record dimension below the field count, where
// identification must still work.
func TestBucketParameters(t *testing.T) {
	line, err := numberline.New(numberline.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	// span=400, t=100 -> 4 buckets of 2 key bits, so 32 summarised fields.
	if c := coarseParamsFor(line, 64, false); !c.enabled || c.buckets != 4 || c.fields != 32 {
		t.Errorf("coarse params at dim 64 = %+v", c)
	}
	// B rounds span/t down to a power of two: span/t = 5 keeps 2-bit lanes,
	// span/t = 13 takes 3-bit lanes, 21 of which fit the key.
	for _, c := range []struct {
		t, buckets int64
		bits       uint
		fields     int
	}{
		{t: 70, buckets: 4, bits: 2, fields: 32},
		{t: 30, buckets: 8, bits: 3, fields: 21},
	} {
		l := numberline.MustNew(numberline.Params{A: 100, K: 4, V: 500, T: c.t})
		got := coarseParamsFor(l, 64, false)
		if !got.enabled || got.buckets != c.buckets || got.bits != c.bits || got.fields != c.fields {
			t.Errorf("t=%d: coarse params %+v, want B=%d bits=%d F=%d", c.t, got, c.buckets, c.bits, c.fields)
		}
	}
	s := NewScan(line)
	fe := core.MustNew(core.Params{Line: numberline.PaperParams()})
	src := biometric.MustNewSource(fe.Line(), biometric.Paper(3), 13)
	u := src.NewUser("u")
	_, helper, err := fe.Gen(u.Template)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(&Record{ID: "u", PublicKey: []byte("pk"), Helper: helper}); err != nil {
		t.Fatal(err)
	}
	if got := s.tab.coarse.fields; got != 3 {
		t.Errorf("clamped coarse fields = %d, want 3", got)
	}
	reading, err := src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := fe.SketchOnly(reading)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Identify(probe)
	if err != nil || rec.ID != "u" {
		t.Errorf("Identify = (%v, %v)", rec, err)
	}
}

// TestByStrategy pins the surface the benchmark harness calls: "bucket" (the
// retired default) and "scan" both build a working sharded scan store, and
// any other name is an error.
func TestByStrategy(t *testing.T) {
	f := newFixture(t, 32, 18)
	users := f.src.Population(5)
	for _, name := range []string{"bucket", "scan"} {
		s, err := ByStrategyShards(name, f.fe.Line(), 0)
		if err != nil {
			t.Fatalf("ByStrategyShards(%q): %v", name, err)
		}
		if len(s.tab.shards) < 2 {
			t.Fatalf("ByStrategyShards(%q) = %T, want a sharded *Scan", name, s)
		}
		for _, u := range users {
			_, helper, err := f.fe.Gen(u.Template)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Insert(&Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}); err != nil {
				t.Fatal(err)
			}
		}
		reading, err := f.src.GenuineReading(users[3])
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := s.Identify(f.probe(t, reading)); err != nil || rec.ID != users[3].ID {
			t.Errorf("%s: Identify = (%v, %v)", name, rec, err)
		}
	}
	for _, name := range []string{"sorted", "btree"} {
		if _, err := ByStrategyShards(name, f.fe.Line(), 0); err == nil {
			t.Errorf("ByStrategyShards(%q) accepted", name)
		}
	}
}

func TestDelete(t *testing.T) {
	f := newFixture(t, 32, 16)
	users := f.src.Population(10)
	for _, u := range users {
		f.enroll(t, u)
	}
	victim := users[4]
	reading, err := f.src.GenuineReading(victim)
	if err != nil {
		t.Fatal(err)
	}
	probe := f.probe(t, reading)
	for name, s := range f.stores {
		// Identifiable before deletion.
		if _, err := s.Identify(probe); err != nil {
			t.Fatalf("%s pre-delete Identify: %v", name, err)
		}
		if err := s.Delete(victim.ID); err != nil {
			t.Fatalf("%s Delete: %v", name, err)
		}
		if s.Len() != 9 {
			t.Errorf("%s Len after delete = %d", name, s.Len())
		}
		if _, ok := s.Get(victim.ID); ok {
			t.Errorf("%s Get found deleted record", name)
		}
		if _, err := s.Identify(probe); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s post-delete Identify err = %v", name, err)
		}
		if err := s.Delete(victim.ID); !errors.Is(err, ErrUnknownID) {
			t.Errorf("%s double delete err = %v", name, err)
		}
		// Other users remain identifiable.
		otherReading, err := f.src.GenuineReading(users[7])
		if err != nil {
			t.Fatal(err)
		}
		otherProbe := f.probe(t, otherReading)
		rec, err := s.Identify(otherProbe)
		if err != nil || rec.ID != users[7].ID {
			t.Errorf("%s surviving record lookup = (%v, %v)", name, rec, err)
		}
		// Re-enrollment after revocation must succeed (fresh helper data).
		_, helper, err := f.fe.Gen(victim.Template)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Insert(&Record{ID: victim.ID, PublicKey: []byte("pk2"), Helper: helper}); err != nil {
			t.Errorf("%s re-enroll after delete: %v", name, err)
		}
	}
}

func userID(i int) string { return fmt.Sprintf("user-%04d", i) }

func TestConcurrentInsertAndIdentify(t *testing.T) {
	f := newFixture(t, 32, 14)
	users := f.src.Population(40)
	// Pre-enroll half; concurrently enroll the rest while identifying.
	for _, u := range users[:20] {
		f.enroll(t, u)
	}
	records := make([]*Record, len(users))
	for i, u := range users {
		_, helper, err := f.fe.Gen(u.Template)
		if err != nil {
			t.Fatal(err)
		}
		records[i] = &Record{ID: u.ID + "-c", PublicKey: []byte("pk"), Helper: helper}
	}
	for name, s := range f.stores {
		s := s
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, rec := range records[20:] {
				if err := s.Insert(rec); err != nil {
					t.Errorf("%s concurrent Insert: %v", name, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				u := users[i]
				reading, err := f.src.GenuineReading(u)
				if err != nil {
					t.Error(err)
					return
				}
				probe, err := f.fe.SketchOnly(reading)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Identify(probe); err != nil {
					t.Errorf("%s concurrent Identify: %v", name, err)
					return
				}
			}
		}()
		wg.Wait()
	}
}

func TestLargePopulationIdentifyAll(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := newFixture(t, 32, 15)
	users := f.src.Population(300)
	for _, u := range users {
		f.enroll(t, u)
	}
	for i, u := range users {
		reading, err := f.src.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		probe := f.probe(t, reading)
		for name, s := range f.stores {
			rec, err := s.Identify(probe)
			if err != nil {
				t.Fatalf("%s user %d: %v", name, i, err)
			}
			if rec.ID != u.ID {
				t.Fatalf("%s user %d misidentified as %s", name, i, rec.ID)
			}
		}
	}
}
