// Benchmarks regenerating the paper's evaluation (§VII), one family per
// table/figure, plus micro-benchmarks of every substrate. See EXPERIMENTS.md
// for the mapping and the measured results.
//
//	go test -bench=. -benchmem
package fuzzyid

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fuzzyid/internal/bch"
	"fuzzyid/internal/biometric"
	"fuzzyid/internal/core"
	"fuzzyid/internal/extract"
	"fuzzyid/internal/gf"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/shield"
	"fuzzyid/internal/sigscheme"
	"fuzzyid/internal/sketch"
	"fuzzyid/internal/store"
	"fuzzyid/internal/wire"
)

// benchEnv is a full deployment for protocol-level benchmarks.
type benchEnv struct {
	sys    *System
	client *Client
	stop   func()
	src    *biometric.Source
	users  []*biometric.User
}

func newBenchEnv(b *testing.B, dim, population int, opts ...Option) *benchEnv {
	b.Helper()
	sys, err := NewSystem(Params{Line: PaperLine(), Dimension: dim}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	client, stop := sys.LocalClient()
	src, err := biometric.NewSource(sys.Extractor().Line(), biometric.Paper(dim), 4242)
	if err != nil {
		stop()
		b.Fatal(err)
	}
	users := src.Population(population)
	for _, u := range users {
		if err := client.Enroll(u.ID, u.Template); err != nil {
			stop()
			b.Fatal(err)
		}
	}
	return &benchEnv{sys: sys, client: client, stop: stop, src: src, users: users}
}

func benchVector(b *testing.B, line *numberline.Line, n int, seed int64) numberline.Vector {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	v := make(numberline.Vector, n)
	for i := range v {
		v[i] = line.Normalize(rng.Int63n(line.RingSize()) - line.RingSize()/2)
	}
	return v
}

// --- Table II: Gen/Rep at the paper's working dimension n = 5000 ---------

func BenchmarkTable2Gen(b *testing.B) {
	fe, err := core.New(core.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	x := benchVector(b, fe.Line(), 5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fe.Gen(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Rep(b *testing.B) {
	fe, err := core.New(core.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	x := benchVector(b, fe.Line(), 5000, 2)
	_, helper, err := fe.Gen(x)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fe.Rep(x, helper); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §VII verification mode: protocol latency vs dimension n -------------

func BenchmarkFig4Verification(b *testing.B) {
	for _, n := range []int{1000, 5000, 11000, 21000, 31000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			env := newBenchEnv(b, n, 1)
			defer env.stop()
			u := env.users[0]
			reading, err := env.src.GenuineReading(u)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.client.Verify(u.ID, reading); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 4: identification latency vs database size N -----------------

func BenchmarkFig4IdentifyProposed(b *testing.B) {
	for _, n := range []int{100, 200, 400, 800, 1600} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			env := newBenchEnv(b, 1000, n)
			defer env.stop()
			reading, err := env.src.GenuineReading(env.users[n/2])
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := env.client.Identify(reading)
				if err != nil {
					b.Fatal(err)
				}
				if id != env.users[n/2].ID {
					b.Fatalf("identified %q", id)
				}
			}
		})
	}
}

func BenchmarkFig4IdentifyNormal(b *testing.B) {
	for _, n := range []int{100, 200, 400, 800} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			env := newBenchEnv(b, 1000, n)
			defer env.stop()
			reading, err := env.src.GenuineReading(env.users[n/2])
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.client.IdentifyNormal(reading); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §V: the per-record sketch comparison behind the constant search -----

func BenchmarkFalseCloseScan(b *testing.B) {
	line, err := numberline.New(numberline.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	sk := sketch.NewChebyshev(line)
	x := benchVector(b, line, 1000, 3)
	y := benchVector(b, line, 1000, 4)
	sx, err := sk.Sketch(x)
	if err != nil {
		b.Fatal(err)
	}
	sy, err := sk.Sketch(y)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Match(sx, sy); err != nil {
			b.Fatal(err)
		}
	}
}

// --- store-level lookup cost, isolated from crypto ------------------------

func BenchmarkStoreIdentify(b *testing.B) {
	const dim = 256
	fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: dim})
	if err != nil {
		b.Fatal(err)
	}
	src, err := biometric.NewSource(fe.Line(), biometric.Paper(dim), 99)
	if err != nil {
		b.Fatal(err)
	}
	users := src.Population(5000)
	records := make([]*store.Record, len(users))
	for i, u := range users {
		_, helper, err := fe.Gen(u.Template)
		if err != nil {
			b.Fatal(err)
		}
		records[i] = &store.Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}
	}
	reading, err := src.GenuineReading(users[2500])
	if err != nil {
		b.Fatal(err)
	}
	probe, err := fe.SketchOnly(reading)
	if err != nil {
		b.Fatal(err)
	}
	db := store.NewScan(fe.Line())
	for _, rec := range records {
		if err := db.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := db.Identify(probe)
		if err != nil {
			b.Fatal(err)
		}
		if rec.ID != users[2500].ID {
			b.Fatal("misidentified")
		}
	}
}

// --- sharded store vs the seed's single-mutex store -----------------------

// seedScanStore reimplements the original single-mutex scan store (one
// global RWMutex, one heap-allocated residue slice per entry, a fresh probe
// residue slice per lookup) as the baseline the sharded store is measured
// against.
type seedScanStore struct {
	line    *numberline.Line
	mu      sync.RWMutex
	entries []*seedEntry
}

type seedEntry struct {
	rec *store.Record
	res []int64
}

func seedResidues(line *numberline.Line, movements []int64) []int64 {
	span := line.IntervalSpan()
	out := make([]int64, len(movements))
	for i, m := range movements {
		r := m % span
		if r < 0 {
			r += span
		}
		out[i] = r
	}
	return out
}

func (s *seedScanStore) insert(rec *store.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, &seedEntry{
		rec: rec,
		res: seedResidues(s.line, rec.Helper.Sketch.Sketch.Movements),
	})
}

func (s *seedScanStore) identify(probe *sketch.Sketch) (*store.Record, error) {
	probeRes := seedResidues(s.line, probe.Movements)
	s.mu.RLock()
	defer s.mu.RUnlock()
	span, t := s.line.IntervalSpan(), s.line.Threshold()
scan:
	for _, e := range s.entries {
		for i, r := range e.res {
			d := r - probeRes[i]
			if d < 0 {
				d = -d
			}
			if d > span-d {
				d = span - d
			}
			if d > t {
				continue scan
			}
		}
		return e.rec, nil
	}
	return nil, store.ErrNotFound
}

// storePopulation builds N enrolled records plus a genuine probe for the
// record in the middle of the enrollment order.
func storePopulation(b *testing.B, dim, n int) ([]*store.Record, *sketch.Sketch, string, *numberline.Line) {
	b.Helper()
	fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: dim})
	if err != nil {
		b.Fatal(err)
	}
	src, err := biometric.NewSource(fe.Line(), biometric.Paper(dim), 4711)
	if err != nil {
		b.Fatal(err)
	}
	users := src.Population(n)
	records := make([]*store.Record, len(users))
	for i, u := range users {
		_, helper, err := fe.Gen(u.Template)
		if err != nil {
			b.Fatal(err)
		}
		records[i] = &store.Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}
	}
	reading, err := src.GenuineReading(users[n/2])
	if err != nil {
		b.Fatal(err)
	}
	probe, err := fe.SketchOnly(reading)
	if err != nil {
		b.Fatal(err)
	}
	return records, probe, users[n/2].ID, fe.Line()
}

// BenchmarkIdentifyParallel drives concurrent Identify traffic (b.RunParallel)
// against the seed-style single-mutex store and the sharded scan store, at
// database sizes up to 100k. This is the workload the sharding targets:
// many simultaneous lookups that should scale with cores instead of
// serialising on one lock and allocating per probe.
func BenchmarkIdentifyParallel(b *testing.B) {
	const dim = 64
	for _, n := range []int{5000, 20000, 100000} {
		records, probe, wantID, line := storePopulation(b, dim, n)
		b.Run(fmt.Sprintf("seed-scan/N=%d", n), func(b *testing.B) {
			db := &seedScanStore{line: line}
			for _, rec := range records {
				db.insert(rec)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					rec, err := db.identify(probe)
					if err != nil {
						b.Fatal(err)
					}
					if rec.ID != wantID {
						b.Fatal("misidentified")
					}
				}
			})
		})
		b.Run(fmt.Sprintf("scan/N=%d", n), func(b *testing.B) {
			db := store.NewScan(line)
			for _, rec := range records {
				if err := db.Insert(rec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					rec, err := db.Identify(probe)
					if err != nil {
						b.Fatal(err)
					}
					if rec.ID != wantID {
						b.Fatal("misidentified")
					}
				}
			})
		})
	}
}

// BenchmarkIdentifyNoMatch measures the open-set reject path: a
// genuine-quality probe of a user who was never enrolled, so the scan must
// consider every row before refusing. This is the worst case the packed
// layout and the coarse pre-filter target; the "int64-nofilter" variant is
// the pre-packing layout (64-bit residues, no coarse filter) kept as the
// in-tree baseline for the comparison.
func BenchmarkIdentifyNoMatch(b *testing.B) {
	const dim = 64
	for _, n := range []int{20000, 100000} {
		fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: dim})
		if err != nil {
			b.Fatal(err)
		}
		src, err := biometric.NewSource(fe.Line(), biometric.Paper(dim), 4711)
		if err != nil {
			b.Fatal(err)
		}
		users := src.Population(n)
		records := make([]*store.Record, len(users))
		for i, u := range users {
			_, helper, err := fe.Gen(u.Template)
			if err != nil {
				b.Fatal(err)
			}
			records[i] = &store.Record{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}
		}
		ghost := src.NewUser("ghost-never-enrolled")
		reading, err := src.GenuineReading(ghost)
		if err != nil {
			b.Fatal(err)
		}
		probe, err := fe.SketchOnly(reading)
		if err != nil {
			b.Fatal(err)
		}
		variants := []struct {
			name string
			tun  store.Tuning
		}{
			{"packed+coarse", store.Tuning{}},
			{"packed-nocoarse", store.Tuning{NoCoarseFilter: true}},
			{"int64-nofilter", store.Tuning{ResidueWidth: 64, NoCoarseFilter: true}},
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/N=%d", v.name, n), func(b *testing.B) {
				db, err := store.NewScanTuned(fe.Line(), 0, v.tun)
				if err != nil {
					b.Fatal(err)
				}
				for _, rec := range records {
					if err := db.Insert(rec); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.Identify(probe); err != store.ErrNotFound {
						b.Fatalf("ghost probe matched: %v", err)
					}
				}
			})
		}
	}
}

// BenchmarkStoreIdentifyBatch measures the amortised per-probe cost of the
// batch lookup path against resolving the same probes one by one.
func BenchmarkStoreIdentifyBatch(b *testing.B) {
	const (
		dim       = 64
		n         = 5000
		batchSize = 16
	)
	records, _, _, line := storePopulation(b, dim, n)
	fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: dim})
	if err != nil {
		b.Fatal(err)
	}
	src, err := biometric.NewSource(fe.Line(), biometric.Paper(dim), 4711)
	if err != nil {
		b.Fatal(err)
	}
	users := src.Population(n)
	probes := make([]*sketch.Sketch, batchSize)
	for i := range probes {
		reading, err := src.GenuineReading(users[(i*311)%n])
		if err != nil {
			b.Fatal(err)
		}
		if probes[i], err = fe.SketchOnly(reading); err != nil {
			b.Fatal(err)
		}
	}
	db := store.NewScan(line)
	for _, rec := range records {
		if err := db.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			recs, err := db.IdentifyBatch(probes)
			if err != nil {
				b.Fatal(err)
			}
			if recs[0] == nil {
				b.Fatal("probe 0 not identified")
			}
		}
	})
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range probes {
				if _, err := db.Identify(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- substrate micro-benchmarks -------------------------------------------

func BenchmarkSketchSS(b *testing.B) {
	line, err := numberline.New(numberline.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	sk := sketch.NewChebyshev(line)
	x := benchVector(b, line, 5000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Sketch(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSketchRec(b *testing.B) {
	line, err := numberline.New(numberline.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	sk := sketch.NewChebyshev(line)
	x := benchVector(b, line, 5000, 6)
	s, err := sk.Sketch(x)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Recover(x, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtract(b *testing.B) {
	input := make([]byte, 5000*8)
	rng := rand.New(rand.NewSource(7))
	rng.Read(input)
	seed := make([]byte, 32)
	rng.Read(seed)
	for _, e := range extract.All() {
		b.Run(e.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				if _, err := e.Extract(seed, input, 32); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSigScheme(b *testing.B) {
	seed := make([]byte, 32)
	for i := range seed {
		seed[i] = byte(i)
	}
	msg := sigscheme.ChallengeMessage([]byte("challenge"), []byte("nonce"))
	for _, s := range sigscheme.All() {
		b.Run(s.Name()+"/derive+sign+verify", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				priv, pub, err := s.DeriveKeyPair(seed)
				if err != nil {
					b.Fatal(err)
				}
				sig, err := s.Sign(priv, msg)
				if err != nil {
					b.Fatal(err)
				}
				if !s.Verify(pub, msg, sig) {
					b.Fatal("verify failed")
				}
			}
		})
	}
}

func BenchmarkBCH(b *testing.B) {
	code, err := bch.New(8, 5) // BCH(255, 215, 5)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	msg := make(bch.Bits, code.K())
	for i := range msg {
		msg[i] = byte(rng.Intn(2))
	}
	cw, err := code.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	rx := cw.Clone()
	for _, p := range rng.Perm(code.N())[:code.T()] {
		rx[p] ^= 1
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := code.Encode(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-t-errors", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := code.Decode(rx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCodeOffset(b *testing.B) {
	code, err := bch.New(8, 5)
	if err != nil {
		b.Fatal(err)
	}
	co := sketch.NewCodeOffset(code)
	rng := rand.New(rand.NewSource(9))
	w := make(bch.Bits, co.N())
	for i := range w {
		w[i] = byte(rng.Intn(2))
	}
	s, err := co.Sketch(w)
	if err != nil {
		b.Fatal(err)
	}
	w2 := w.Clone()
	for _, p := range rng.Perm(co.N())[:co.T()] {
		w2[p] ^= 1
	}
	b.Run("sketch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := co.Sketch(w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := co.Recover(w2, s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPinSketch(b *testing.B) {
	ps, err := sketch.NewPinSketch(12, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	perm := rng.Perm(int(ps.Universe()))
	set := make([]gf.Elem, 40)
	for i := range set {
		set[i] = gf.Elem(perm[i] + 1)
	}
	syn, err := ps.Sketch(set)
	if err != nil {
		b.Fatal(err)
	}
	probe := append([]gf.Elem(nil), set[4:]...)
	for i := 0; i < 4; i++ {
		probe = append(probe, gf.Elem(perm[40+i]+1))
	}
	b.Run("sketch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ps.Sketch(set); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recover-8diff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ps.Recover(probe, syn); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFuzzyVault(b *testing.B) {
	fv, err := sketch.NewFuzzyVault(12, 9, 200)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	perm := rng.Perm(4095)
	features := make([]gf.Elem, 24)
	for i := range features {
		features[i] = gf.Elem(perm[i] + 1)
	}
	secret := make([]gf.Elem, fv.SecretLen())
	for i := range secret {
		secret[i] = gf.Elem(rng.Intn(1 << 12))
	}
	locked, err := fv.Lock(features, secret)
	if err != nil {
		b.Fatal(err)
	}
	probe := features[:14]
	b.Run("lock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fv.Lock(features, secret); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unlock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fv.Unlock(probe, locked); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkQIMShield(b *testing.B) {
	qim, err := shield.New(0.01)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	const n = 256
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = xs[i] + (rng.Float64()*2-1)*0.004
	}
	bits, err := shield.GenerateBits(n)
	if err != nil {
		b.Fatal(err)
	}
	ws, err := qim.ConcealVector(xs, bits)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("conceal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qim.ConcealVector(xs, bits); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reveal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qim.RevealVector(ys, ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWireHelperRoundTrip(b *testing.B) {
	fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: 5000})
	if err != nil {
		b.Fatal(err)
	}
	x := benchVector(b, fe.Line(), 5000, 10)
	_, helper, err := fe.Gen(x)
	if err != nil {
		b.Fatal(err)
	}
	msg := &wire.Challenge{Helper: helper, Challenge: []byte("c")}
	buf, err := wire.Marshal(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wire.Marshal(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.Unmarshal(out); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Durable enroll: the group-commit WAL under concurrent writers -------

// BenchmarkDurableEnroll measures the full durable enrollment path — client
// pipe, protocol, store insert, WAL append, fsync — under SyncAlways, across
// writer counts and with group commit on vs off. ns/op is wall time per
// enrollment aggregated over all writers; the on/off gap at 8 and 64 writers
// is the fsync amortization (DESIGN.md §11). Committed numbers live in
// bench/baseline.json via the "durable" experiment table.
func BenchmarkDurableEnroll(b *testing.B) {
	const dim = 64
	for _, writers := range []int{1, 8, 64} {
		for _, group := range []bool{true, false} {
			mode := "on"
			if !group {
				mode = "off"
			}
			b.Run(fmt.Sprintf("writers=%d/group=%s", writers, mode), func(b *testing.B) {
				opts := []Option{WithPersistence(b.TempDir())}
				if !group {
					opts = append(opts, WithoutGroupCommit())
				}
				sys, err := NewSystem(Params{Line: PaperLine(), Dimension: dim}, opts...)
				if err != nil {
					b.Fatal(err)
				}
				defer sys.Close()
				clients := make([]*Client, writers)
				for w := range clients {
					client, stop := sys.LocalClient()
					defer stop()
					clients[w] = client
				}
				// Pre-generate every enrollment outside the timer: template
				// generation (Gen) is the crypto cost other benchmarks own.
				type enrollment struct {
					id       string
					template Vector
				}
				work := make([][]enrollment, writers)
				for w := range work {
					src, err := biometric.NewSource(sys.Extractor().Line(), biometric.Paper(dim), 9000+int64(w))
					if err != nil {
						b.Fatal(err)
					}
					per := b.N/writers + 1
					work[w] = make([]enrollment, per)
					for i := range work[w] {
						u := src.NewUser(fmt.Sprintf("du-w%d-%d", w, i))
						work[w][i] = enrollment{id: u.ID, template: u.Template}
					}
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				errs := make([]error, writers)
				var counter atomic.Int64
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := range work[w] {
							if counter.Add(1) > int64(b.N) {
								return
							}
							if err := clients[w].Enroll(work[w][i].id, work[w][i].template); err != nil {
								errs[w] = err
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				for w, err := range errs {
					if err != nil {
						b.Fatalf("writer %d: %v", w, err)
					}
				}
			})
		}
	}
}
