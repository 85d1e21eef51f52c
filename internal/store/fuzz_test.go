package store_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sketch"
	"fuzzyid/internal/store"
	"fuzzyid/internal/wire"
)

// fuzzLines are the small number lines FuzzStoreOps draws from: every lane
// width of the coarse filter, a span/t ratio that rounds B down, t = 0, and
// a ratio that disables the filter. Spans this small put most coordinates
// within t of each other and put residues on the ring seam often.
var fuzzLines = []numberline.Params{
	{A: 4, K: 2, V: 2, T: 2},  // span 8, span/t 4: B = 4, 2-bit lanes
	{A: 5, K: 2, V: 2, T: 2},  // span 10, span/t 5: B rounds down to 4
	{A: 13, K: 2, V: 2, T: 2}, // span 26, span/t 13: B = 8, 3-bit lanes
	{A: 8, K: 2, V: 2, T: 1},  // span 16, span/t 16: B = 16, 4-bit lanes
	{A: 8, K: 2, V: 2, T: 0},  // t = 0: exact matches only
	{A: 3, K: 2, V: 2, T: 2},  // span 6, span/t 3: filter disabled
}

// fuzzIDs is the small ID space, so duplicates, replaces of absent IDs and
// deletes of deleted IDs all occur. peerIDs is the disjoint range the
// concurrent arm's second goroutine drives.
var (
	fuzzIDs = []string{"a", "b", "c", "d", "e", "f"}
	peerIDs = []string{"A", "B", "C", "D", "E", "F"}
)

// opModel is the brute-force reference store over one ID range: a record
// matches a probe when every coordinate's circular distance is at most t.
type opModel struct {
	span, t int64
	dim     int
	ids     []string // the ID range this model owns
	adopted bool     // a successful Insert or Replace fixed the dimension
	order   []string
	recs    map[string]*store.Record
}

func newOpModel(line *numberline.Line, dim int, ids []string) *opModel {
	return &opModel{span: line.IntervalSpan(), t: line.Threshold(), dim: dim, ids: ids, recs: map[string]*store.Record{}}
}

// owns reports whether id is in the model's range.
func (m *opModel) owns(id string) bool {
	for _, o := range m.ids {
		if o == id {
			return true
		}
	}
	return false
}

func (m *opModel) matches(id string, probe []int64) bool {
	for i, mv := range m.recs[id].Helper.Sketch.Sketch.Movements {
		d := ((mv-probe[i])%m.span + m.span) % m.span
		if min(d, m.span-d) > m.t {
			return false
		}
	}
	return true
}

// identify returns the model's match set, or the error the store must give.
func (m *opModel) identify(probe []int64) (map[string]bool, error) {
	if len(probe) != m.dim {
		if m.adopted {
			return nil, store.ErrBadProbe
		}
		return nil, store.ErrNotFound
	}
	set := map[string]bool{}
	for _, id := range m.order {
		if m.matches(id, probe) {
			set[id] = true
		}
	}
	if len(set) == 0 {
		return nil, store.ErrNotFound
	}
	return set, nil
}

// opDecoder reads an op stream; an exhausted input reads as zeros.
type opDecoder struct {
	data []byte
	pos  int
}

func (d *opDecoder) next() int {
	if d.pos >= len(d.data) {
		return 0
	}
	d.pos++
	return int(d.data[d.pos-1])
}

func (d *opDecoder) more() bool { return d.pos < len(d.data) }

// vector draws dim movements from a decoded seed. One coordinate in eight is
// ±ka/2, the boundary coin, whose two signs share a residue; the rest are
// residues lifted by random multiples of the span, so the store's own
// reduction and its record of out-of-range movements are both exercised.
func (d *opDecoder) vector(m *opModel) []int64 {
	rng := rand.New(rand.NewSource(int64(d.next())))
	v := make([]int64, m.dim)
	for i := range v {
		switch rng.Intn(16) {
		case 0:
			v[i] = m.span / 2
		case 1:
			v[i] = -m.span / 2
		default:
			v[i] = rng.Int63n(m.span) + m.span*(rng.Int63n(5)-2)
		}
	}
	return v
}

// record builds the n-th record the fuzzer writes for id: the public key,
// seed and digest all vary with n, so a row whose metadata drifted from its
// movements is caught.
func (d *opDecoder) record(m *opModel, id string, n int) *store.Record {
	return &store.Record{
		ID:        id,
		PublicKey: []byte(fmt.Sprintf("pk-%s-%d", id, n)),
		Helper: &core.HelperData{
			Sketch: &sketch.RobustSketch{Sketch: &sketch.Sketch{Movements: d.vector(m)}, Digest: [32]byte{byte(n), 1}},
			Seed:   bytes.Repeat([]byte{byte(n)}, n%3),
		},
	}
}

// probe decodes one probe: mostly an enrolled record moved by at most t per
// coordinate, sometimes with one coordinate pushed to t+1, otherwise a fresh
// vector, and occasionally of the wrong dimension.
func (d *opDecoder) probe(m *opModel) []int64 {
	kind := d.next()
	if kind%16 == 15 {
		return make([]int64, m.dim+1+d.next()%3)
	}
	if kind%4 == 0 || len(m.order) == 0 {
		return d.vector(m)
	}
	base := m.recs[m.order[d.next()%len(m.order)]].Helper.Sketch.Sketch.Movements
	rng := rand.New(rand.NewSource(int64(d.next())))
	p := make([]int64, m.dim)
	for i, mv := range base {
		p[i] = mv + rng.Int63n(2*m.t+1) - m.t
	}
	if kind&4 != 0 {
		i := rng.Intn(m.dim)
		p[i] = base[i] + (m.t+1)*(1-2*rng.Int63n(2))
	}
	return p
}

// encodeRecord is the record's canonical bytes, as the WAL and snapshots
// write them.
func encodeRecord(rec *store.Record) []byte {
	e := wire.NewEncoder(64)
	wire.EncodeRecord(e, rec)
	return e.Bytes()
}

// opStore is the surface *store.Scan and *store.Journaled share that the
// fuzzer drives.
type opStore interface {
	Insert(*store.Record) error
	Replace(*store.Record) error
	Delete(id string) error
	IdentifyInto(ctx context.Context, probe *sketch.Sketch, dst *store.Record) error
	Contains(id string) bool
	GetInto(id string, dst *store.Record) bool
	All() []*store.Record
	Len() int
	CheckCells() error
}

// errJournalDown is the staging failure recJournal injects.
var errJournalDown = errors.New("journal down")

// recJournal records every mutation it stages, in journal order. It refuses
// to stage a mutation whose ID is armed in fail, as a journal whose append
// failed; a run arms only IDs of its own range, so concurrent runs over
// disjoint ranges never see each other's faults.
type recJournal struct {
	mu   sync.Mutex
	log  []store.Mutation
	fail map[string]bool
}

func (j *recJournal) Begin(m store.Mutation) (store.Commit, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fail[m.ID] {
		return nil, errJournalDown
	}
	j.log = append(j.log, m)
	return nil, nil
}

func (j *recJournal) arm(id string, on bool) {
	j.mu.Lock()
	j.fail[id] = on
	j.mu.Unlock()
}

// replay is the recorded log as a store.ReplayFunc.
func (j *recJournal) replay(apply func(store.Mutation) error) error {
	for _, m := range j.log {
		if err := apply(m); err != nil {
			return err
		}
	}
	return nil
}

// fuzzArm is one store under test; j is set for the *Journaled arm.
type fuzzArm struct {
	name string
	s    opStore
	j    *recJournal
}

// newArms builds the store at 16- and 64-bit widths with the coarse filter
// on and off, plus a *Journaled over the production layout that records into
// an in-memory journal.
func newArms(t *testing.T, line *numberline.Line) []fuzzArm {
	var arms []fuzzArm
	for _, w := range []int{store.Width16, store.Width64} {
		for _, noCoarse := range []bool{false, true} {
			s, err := store.NewScanTuned(line, 3, store.Tuning{ResidueWidth: w, NoCoarseFilter: noCoarse})
			if err != nil {
				t.Fatal(err)
			}
			arms = append(arms, fuzzArm{name: fmt.Sprintf("w%d-coarse%v", w, !noCoarse), s: s})
		}
	}
	j := &recJournal{fail: map[string]bool{}}
	return append(arms, fuzzArm{name: "journaled", s: store.NewJournaled(store.NewScanShards(line, 3), j), j: j})
}

// opRun drives one decoded op sequence over one ID range of the arms,
// checking every verdict against the range's model. shared marks a run
// whose stores a concurrent run over a disjoint range also mutates: an
// identify may then match the other range's records, the dimension may have
// been adopted by the other range, and Len and All are checked only once
// both runs are done.
type opRun struct {
	d       *opDecoder
	m       *opModel
	arms    []fuzzArm
	scratch []store.Record // one reused record per arm
	shared  bool
	fail    func(format string, args ...any)
}

func (r *opRun) checkRecord(op string, ai int, rec *store.Record) {
	if want := r.m.recs[rec.ID]; !bytes.Equal(encodeRecord(rec), encodeRecord(want)) {
		r.fail("%s %s: record %q = %v, model %v", r.arms[ai].name, op, rec.ID,
			rec.Helper.Sketch.Sketch.Movements, want.Helper.Sketch.Sketch.Movements)
	}
}

func (r *opRun) checkMatch(op string, ai int, rec *store.Record, err error, set map[string]bool, want error) {
	name := r.arms[ai].name
	if r.shared {
		switch {
		case err == nil && !r.m.owns(rec.ID):
			return // the other range's record: its run checks its content
		case errors.Is(want, store.ErrNotFound) && !r.m.adopted && errors.Is(err, store.ErrBadProbe):
			return // the other range adopted the dimension
		}
	}
	switch {
	case want != nil:
		if !errors.Is(err, want) {
			r.fail("%s %s: err = %v, model %v", name, op, err, want)
		}
	case err != nil:
		r.fail("%s %s: err = %v, model matches %v", name, op, err, set)
	case !set[rec.ID]:
		r.fail("%s %s: matched %q, model matches %v", name, op, rec.ID, set)
	default:
		r.checkRecord(op, ai, rec)
	}
}

// run applies up to 200 decoded ops.
func (r *opRun) run() {
	d, m := r.d, r.m
	for ops := 0; d.more() && ops < 200; ops++ {
		switch op := d.next() % 4; op {
		case 0, 1: // Insert, Replace
			id := m.ids[d.next()%len(m.ids)]
			rec := d.record(m, id, ops)
			_, exists := m.recs[id]
			var want error
			if op == 0 && exists {
				want = store.ErrDuplicateID
			} else if op == 1 && !exists {
				want = store.ErrUnknownID
			}
			landed := r.mutate([]string{"Insert", "Replace"}[op], id, want, func(s opStore) error {
				if op == 0 {
					return s.Insert(rec)
				}
				return s.Replace(rec)
			})
			if landed {
				m.adopted = true
				if !exists {
					m.order = append(m.order, id)
				}
				m.recs[id] = rec
			}
		case 2: // Delete
			id := m.ids[d.next()%len(m.ids)]
			var want error
			if _, exists := m.recs[id]; !exists {
				want = store.ErrUnknownID
			}
			if r.mutate("Delete", id, want, func(s opStore) error { return s.Delete(id) }) {
				delete(m.recs, id)
				for i, o := range m.order {
					if o == id {
						m.order = append(m.order[:i], m.order[i+1:]...)
						break
					}
				}
			}
		case 3: // Identify, into the reused scratch record
			p := d.probe(m)
			set, want := m.identify(p)
			for ai, a := range r.arms {
				err := a.s.IdentifyInto(context.Background(), &sketch.Sketch{Movements: p}, &r.scratch[ai])
				r.checkMatch("Identify", ai, &r.scratch[ai], err, set, want)
			}
		}
		if r.shared {
			for ai := range r.arms {
				r.checkLookups(ai)
			}
		} else {
			checkState(r.fail, r.arms, r.m)
		}
	}
}

// mutate applies one mutation of id to every arm and checks each verdict
// against want, the model's; it reports whether the mutation landed. A
// decoded byte may take the journaled arm's journal down for this mutation
// (only one the model admits reaches the journal): that arm must then fail
// with the staging error, and the journal-less arms sit the mutation out, so
// every arm keeps the model's state.
func (r *opRun) mutate(op, id string, want error, do func(opStore) error) bool {
	down := r.d.next()%8 == 7 && want == nil
	for _, a := range r.arms {
		w := want
		if down {
			if a.j == nil {
				continue
			}
			a.j.arm(id, true)
			w = errJournalDown
		}
		err := do(a.s)
		if down {
			a.j.arm(id, false)
		}
		if !errors.Is(err, w) {
			r.fail("%s %s(%q): err = %v, model %v", a.name, op, id, err, w)
		}
	}
	return want == nil && !down
}

// checkLookups checks Contains and GetInto of every ID in the run's range.
func (r *opRun) checkLookups(ai int) {
	s := r.arms[ai].s
	for _, id := range r.m.ids {
		_, enrolled := r.m.recs[id]
		if s.Contains(id) != enrolled || s.GetInto(id, &r.scratch[ai]) != enrolled {
			r.fail("%s Contains/GetInto(%q) disagree with model %v", r.arms[ai].name, id, enrolled)
		}
		if enrolled {
			r.checkRecord("Get", ai, &r.scratch[ai])
		}
	}
}

// checkState checks every arm against the models of every range that
// drove it: Len, each range's lookups, and All — whose records, filtered to
// one range, must be that range's model order, each encoding to the exact
// bytes the model holds — and checks each arm's cell index against its rows.
func checkState(fail func(string, ...any), arms []fuzzArm, models ...*opModel) {
	want := 0
	for _, m := range models {
		want += len(m.order)
	}
	for ai, a := range arms {
		if err := a.s.CheckCells(); err != nil {
			fail("%s cell index: %v", a.name, err)
		}
		if a.s.Len() != want {
			fail("%s Len = %d, model %d", a.name, a.s.Len(), want)
		}
		all := a.s.All()
		if len(all) != want {
			fail("%s All has %d records, model %d", a.name, len(all), want)
		}
		for _, m := range models {
			r := &opRun{m: m, arms: arms, scratch: make([]store.Record, len(arms)), fail: fail}
			r.checkLookups(ai)
			i := 0
			for _, rec := range all {
				if !m.owns(rec.ID) {
					continue
				}
				if i >= len(m.order) || rec.ID != m.order[i] {
					fail("%s All: %q at range position %d, model order %v", a.name, rec.ID, i, m.order)
				}
				r.checkRecord("All", ai, rec)
				i++
			}
		}
	}
}

// checkReplay rebuilds the journaled arm from its journal through
// store.Open: the rebuilt store must hold exactly the models' records.
func checkReplay(fail func(string, ...any), line *numberline.Line, arms []fuzzArm, models ...*opModel) {
	for _, a := range arms {
		if a.j == nil {
			continue
		}
		rebuilt, err := store.Open(line, 3, a.j.replay)
		if err != nil {
			fail("%s: replaying its journal: %v", a.name, err)
		}
		checkState(fail, []fuzzArm{{name: a.name + " replayed", s: rebuilt}}, models...)
	}
}

// storeOpsSeeds is FuzzStoreOps's generated seed corpus: 120 random op
// bytes on every fuzz line at dimensions 3, 21 and 33.
func storeOpsSeeds() [][]byte {
	var seeds [][]byte
	for li := range fuzzLines {
		for _, dim := range []int{3, 21, 33} {
			rng := rand.New(rand.NewSource(int64(100*li + dim)))
			data := []byte{byte(li), byte(dim - 1)}
			for i := 0; i < 120; i++ {
				data = append(data, byte(rng.Intn(256)))
			}
			seeds = append(seeds, data)
		}
	}
	return seeds
}

// decodeOps splits an input into its number line, dimension and op bytes.
func decodeOps(data []byte) (*numberline.Line, int, []byte) {
	d := &opDecoder{data: data}
	line := numberline.MustNew(fuzzLines[d.next()%len(fuzzLines)])
	dim := 1 + d.next()%40
	return line, dim, data[d.pos:]
}

// FuzzStoreOps is a differential fuzzer over the whole store. It decodes its
// input into Insert, Replace, Delete and Identify operations on a small
// line and dimension, applies each to the *Scan at 16- and
// 64-bit widths with the coarse filter on and off, to a *Journaled whose
// journal sometimes fails to stage, and to opModel. Any divergence fails: an
// error, a verdict, a matched ID outside the model's match set, Len, Get,
// All or the cell index — and every record a store returns must encode to
// exactly the bytes of the record the model holds, so a lossy packed row
// fails too. After the sequence the journal, replayed through store.Open,
// must rebuild the model's record set. The body runs on one goroutine, so
// the fuzzer's coverage is deterministic; TestStoreOpsConcurrent drives the
// same checks from two.
func FuzzStoreOps(f *testing.F) {
	for _, data := range storeOpsSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		line, dim, ops := decodeOps(data)
		arms := newArms(t, line)
		m := newOpModel(line, dim, fuzzIDs)
		seq := &opRun{d: &opDecoder{data: ops}, m: m, arms: arms, scratch: make([]store.Record, len(arms)), fail: t.Fatalf}
		seq.run()
		checkReplay(t.Fatalf, line, arms, m)
	})
}

// TestStoreOpsConcurrent replays each of FuzzStoreOps's seeds on fresh arms
// from two goroutines over disjoint ID ranges; each checks its own range's
// verdicts as it goes, and Len, All, lookups, the cell index and the
// journal replay are checked against both models once both finish (run it
// under -race).
func TestStoreOpsConcurrent(t *testing.T) {
	for i, data := range storeOpsSeeds() {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			line, dim, ops := decodeOps(data)
			arms := newArms(t, line)
			// The peer decodes the same ops rotated by half, so the two
			// goroutines interleave different sequences.
			peerOps := append(append([]byte{}, ops[len(ops)/2:]...), ops[:len(ops)/2]...)
			runs := []*opRun{
				{d: &opDecoder{data: ops}, m: newOpModel(line, dim, fuzzIDs)},
				{d: &opDecoder{data: peerOps}, m: newOpModel(line, dim, peerIDs)},
			}
			stop := func(format string, args ...any) {
				t.Errorf(format, args...)
				runtime.Goexit()
			}
			var wg sync.WaitGroup
			for _, r := range runs {
				r.arms, r.scratch, r.shared, r.fail = arms, make([]store.Record, len(arms)), true, stop
				wg.Add(1)
				go func() {
					defer wg.Done()
					r.run()
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			checkState(t.Fatalf, arms, runs[0].m, runs[1].m)
			checkReplay(t.Fatalf, line, arms, runs[0].m, runs[1].m)
		})
	}
}
