package store_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
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
// deletes of deleted IDs all occur.
var fuzzIDs = []string{"a", "b", "c", "d", "e", "f"}

// opModel is the brute-force reference store: a record matches a probe when
// every coordinate's circular distance is at most t.
type opModel struct {
	span, t int64
	dim     int
	adopted bool // a successful Insert or Replace fixed the dimension
	order   []string
	recs    map[string]*store.Record
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

// FuzzStoreOps is a differential fuzzer over the whole Scan store. It
// decodes its input into Insert, Replace, Delete, Identify and
// IdentifyBatch operations on a small line and dimension, applies each to
// the store at 16- and 64-bit widths with the coarse filter on and off, and
// to opModel. Any divergence fails: an error, a verdict, a matched ID
// outside the model's match set, Len, Get or All — and every record the
// store returns must encode to exactly the bytes of the record the model
// holds, so a lossy packed row fails too.
func FuzzStoreOps(f *testing.F) {
	for li := range fuzzLines {
		for _, dim := range []int{3, 21, 33} {
			rng := rand.New(rand.NewSource(int64(100*li + dim)))
			data := []byte{byte(li), byte(dim - 1)}
			for i := 0; i < 120; i++ {
				data = append(data, byte(rng.Intn(256)))
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &opDecoder{data: data}
		line := numberline.MustNew(fuzzLines[d.next()%len(fuzzLines)])
		m := &opModel{
			span: line.IntervalSpan(),
			t:    line.Threshold(),
			dim:  1 + d.next()%40,
			recs: map[string]*store.Record{},
		}
		var stores []store.Store
		var names []string
		for _, w := range []int{store.Width16, store.Width64} {
			for _, noCoarse := range []bool{false, true} {
				s, err := store.NewScanTuned(line, 3, store.Tuning{ResidueWidth: w, NoCoarseFilter: noCoarse})
				if err != nil {
					t.Fatal(err)
				}
				stores = append(stores, s)
				names = append(names, fmt.Sprintf("w%d-coarse%v", w, !noCoarse))
			}
		}
		// scratch is one reused record per store: every lookup lands in a
		// buffer an earlier, possibly longer or exception-laden record left.
		scratch := make([]store.Record, len(stores))
		checkRecord := func(op string, si int, rec *store.Record) {
			t.Helper()
			if want := m.recs[rec.ID]; !bytes.Equal(encodeRecord(rec), encodeRecord(want)) {
				t.Fatalf("%s %s: record %q = %v, model %v", names[si], op, rec.ID,
					rec.Helper.Sketch.Sketch.Movements, want.Helper.Sketch.Sketch.Movements)
			}
		}
		checkMatch := func(op string, si int, rec *store.Record, err error, set map[string]bool, want error) {
			t.Helper()
			switch {
			case want != nil:
				if !errors.Is(err, want) {
					t.Fatalf("%s %s: err = %v, model %v", names[si], op, err, want)
				}
			case err != nil:
				t.Fatalf("%s %s: err = %v, model matches %v", names[si], op, err, set)
			case !set[rec.ID]:
				t.Fatalf("%s %s: matched %q, model matches %v", names[si], op, rec.ID, set)
			default:
				checkRecord(op, si, rec)
			}
		}
		for ops := 0; d.more() && ops < 200; ops++ {
			switch op := d.next() % 5; op {
			case 0, 1: // Insert, Replace
				id := fuzzIDs[d.next()%len(fuzzIDs)]
				rec := d.record(m, id, ops)
				_, exists := m.recs[id]
				var want error
				if op == 0 && exists {
					want = store.ErrDuplicateID
				} else if op == 1 && !exists {
					want = store.ErrUnknownID
				}
				for si, s := range stores {
					var err error
					if op == 0 {
						err = s.Insert(rec)
					} else {
						err = s.Replace(rec)
					}
					if !errors.Is(err, want) {
						t.Fatalf("%s op %d on %q: err = %v, model %v", names[si], op, id, err, want)
					}
				}
				if want == nil {
					m.adopted = true
					if !exists {
						m.order = append(m.order, id)
					}
					m.recs[id] = rec
				}
			case 2: // Delete
				id := fuzzIDs[d.next()%len(fuzzIDs)]
				_, exists := m.recs[id]
				for si, s := range stores {
					if err := s.Delete(id); exists != (err == nil) || !exists && !errors.Is(err, store.ErrUnknownID) {
						t.Fatalf("%s Delete(%q): err = %v, enrolled %v", names[si], id, err, exists)
					}
				}
				if exists {
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
				for si, s := range stores {
					err := s.IdentifyInto(context.Background(), &sketch.Sketch{Movements: p}, &scratch[si])
					checkMatch("Identify", si, &scratch[si], err, set, want)
				}
			case 4: // IdentifyBatch
				probes := make([]*sketch.Sketch, 1+d.next()%3)
				sets := make([]map[string]bool, len(probes))
				wants := make([]error, len(probes))
				var batchErr error
				for i := range probes {
					probes[i] = &sketch.Sketch{Movements: d.probe(m)}
					sets[i], wants[i] = m.identify(probes[i].Movements)
					if errors.Is(wants[i], store.ErrBadProbe) {
						batchErr = store.ErrBadProbe
					}
				}
				for si, s := range stores {
					recs, err := s.IdentifyBatch(probes)
					if batchErr != nil || err != nil {
						if !errors.Is(err, batchErr) {
							t.Fatalf("%s IdentifyBatch: err = %v, model %v", names[si], err, batchErr)
						}
						continue
					}
					for i, rec := range recs {
						var miss error
						if rec == nil {
							miss = store.ErrNotFound
						}
						checkMatch(fmt.Sprintf("IdentifyBatch[%d]", i), si, rec, miss, sets[i], wants[i])
					}
				}
			}
			for si, s := range stores {
				if s.Len() != len(m.order) {
					t.Fatalf("%s Len = %d, model %d", names[si], s.Len(), len(m.order))
				}
				for _, id := range fuzzIDs {
					_, enrolled := m.recs[id]
					if s.Contains(id) != enrolled || s.GetInto(id, &scratch[si]) != enrolled {
						t.Fatalf("%s Contains/GetInto(%q) disagree with model %v", names[si], id, enrolled)
					}
					if enrolled {
						checkRecord("Get", si, &scratch[si])
					}
				}
				all := s.All()
				if len(all) != len(m.order) {
					t.Fatalf("%s All has %d records, model %d", names[si], len(all), len(m.order))
				}
				for i, rec := range all {
					if rec.ID != m.order[i] {
						t.Fatalf("%s All[%d] = %q, model %q", names[si], i, rec.ID, m.order[i])
					}
					checkRecord("All", si, rec)
				}
			}
		}
	})
}
