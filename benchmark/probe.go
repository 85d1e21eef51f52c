package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fuzzyid/internal/core"
	"fuzzyid/internal/extract"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/persist"
	"fuzzyid/internal/qos"
	"fuzzyid/internal/sigscheme"
	"fuzzyid/internal/sketch"
	"fuzzyid/internal/store"
	"fuzzyid/internal/wire"
)

const (
	// probeCalls is the sample a replay probe aims for; probeBudget cuts a
	// slow probe (a 40 000-row miss scan) short, never below probeMinCalls.
	probeCalls    = 2000
	probeMinCalls = 30
	probeBudget   = 400 * time.Millisecond
	// probePool is how many distinct users' inputs a probe rotates through.
	probePool = 32
)

// probeSet holds the replay-probe results: one value per metric name and the
// number of calls behind it.
type probeSet struct {
	value map[string]float64
	calls map[string]int
}

// timeCalls calls fn up to n times, each call timed on its own, and records
// the median in µs. Probes run on one goroutine with the server stopped.
func (p *probeSet) timeCalls(name string, n int, fn func(i int) error) error {
	samples := make([]time.Duration, 0, n)
	deadline := time.Now().Add(probeBudget)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := fn(i)
		samples = append(samples, time.Since(t0))
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		if i+1 >= probeMinCalls && time.Now().After(deadline) {
			break
		}
	}
	p.value[name] = us(percentile(samples, 0.5))
	p.calls[name] = len(samples)
	return nil
}

// allocKB is the exact heap allocation per call of fn, from the runtime's
// own counters.
func allocKB(calls int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(calls) / 1024
}

// replayProbes times each layer's public functions on the workload's own
// inputs and parameters, from outside the layer. div scales the sample and
// the store population down for the smoke pass.
func replayProbes(wl workload, seed int64, scratch string, div int) (*probeSet, error) {
	p := &probeSet{value: map[string]float64{}, calls: map[string]int{}}
	n := max(probeCalls/div, probeMinCalls)
	fe, err := newExtractor(wl.dim, extract.HMAC{})
	if err != nil {
		return nil, err
	}
	vec := vectors{seed: seed, dim: wl.dim, line: fe.Line()}
	scheme := sigscheme.Default()

	// The pool: templates, one genuine reading each, and what Gen made of them.
	type sample struct {
		tmpl, reading numberline.Vector
		key           []byte
		helper        *core.HelperData
		probe         *sketch.Sketch
	}
	pool := make([]sample, probePool)
	for i := range pool {
		s := &pool[i]
		s.tmpl, s.reading = make(numberline.Vector, wl.dim), make(numberline.Vector, wl.dim)
		vec.template(s.tmpl, uint32(i), 0)
		vec.reading(s.reading, op{kind: opGenuine, user: uint32(i), nonce: uint64(i)})
	}

	// core
	if err := p.timeCalls("core.gen_us", n, func(i int) error {
		s := &pool[i%probePool]
		s.key, s.helper, err = fe.Gen(s.tmpl)
		return err
	}); err != nil {
		return nil, err
	}
	if err := p.timeCalls("core.rep_us", n, func(i int) error {
		s := &pool[i%probePool]
		_, err := fe.Rep(s.reading, s.helper)
		return err
	}); err != nil {
		return nil, err
	}
	if err := p.timeCalls("core.sketch_us", n, func(i int) error {
		s := &pool[i%probePool]
		s.probe, err = fe.SketchOnly(s.reading)
		return err
	}); err != nil {
		return nil, err
	}
	p.value["core.gen_alloc_kb"] = allocKB(probePool, func(i int) { _, _, _ = fe.Gen(pool[i].tmpl) })
	p.value["core.rep_alloc_kb"] = allocKB(probePool, func(i int) { _, _ = fe.Rep(pool[i].reading, pool[i].helper) })
	p.calls["core.gen_alloc_kb"], p.calls["core.rep_alloc_kb"] = probePool, probePool

	// sigscheme: the server's half (the device's derive and sign are traced in place)
	priv, pub, err := scheme.DeriveKeyPair(pool[0].key)
	if err != nil {
		return nil, err
	}
	msg := sigscheme.ChallengeMessage(make([]byte, 32), make([]byte, 32))
	sig, err := scheme.Sign(priv, msg)
	if err != nil {
		return nil, err
	}
	if err := p.timeCalls("sigscheme.verify_us", n, func(int) error {
		if !scheme.Verify(pub, msg, sig) {
			return errors.New("signature did not verify")
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// wire: each message's encode and decode, timed apart so the stage table
	// can put each half on the side that pays it
	codec := func(name string, build func(s *sample) wire.Message) error {
		var frames [probePool][]byte
		if err := p.timeCalls(name+".encode", n, func(i int) error {
			frames[i%probePool], err = wire.Marshal(build(&pool[i%probePool]))
			return err
		}); err != nil {
			return err
		}
		return p.timeCalls(name+".decode", n, func(i int) error {
			_, err := wire.Unmarshal(frames[i%probePool])
			return err
		})
	}
	challenge := func(s *sample) wire.Message {
		return &wire.Challenge{Helper: s.helper, Challenge: msg[:32]}
	}
	if err := codec("wire.challenge", challenge); err != nil {
		return nil, err
	}
	if err := codec("wire.identify_req", func(s *sample) wire.Message {
		return &wire.IdentifyRequest{Probe: s.probe}
	}); err != nil {
		return nil, err
	}
	if err := codec("wire.enroll", func(s *sample) wire.Message {
		return &wire.EnrollRequest{ID: userID(0), PublicKey: pub, Helper: s.helper}
	}); err != nil {
		return nil, err
	}
	for _, m := range []string{"wire.challenge", "wire.identify_req", "wire.enroll"} {
		p.value[m+"_codec_us"] = p.value[m+".encode"] + p.value[m+".decode"]
		p.calls[m+"_codec_us"] = p.calls[m+".encode"]
	}
	p.value["wire.challenge_alloc_kb"] = allocKB(probePool, func(i int) {
		buf, _ := wire.Marshal(challenge(&pool[i]))
		_, _ = wire.Unmarshal(buf)
	})
	p.calls["wire.challenge_alloc_kb"] = probePool

	// qos
	ctl := qos.New(qos.Config{})
	if err := p.timeCalls("qos.admit_us", n, func(int) error {
		release, err := ctl.Admit("default", 0)
		if err == nil {
			release()
		}
		return err
	}); err != nil {
		return nil, err
	}

	if err := storeProbes(p, wl, vec, fe, n); err != nil {
		return nil, err
	}
	if wl.durable {
		rec := &store.Record{ID: userID(0), PublicKey: pub, Helper: pool[0].helper}
		if err := persistProbe(p, rec, scratch, n); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// storeProbes builds the server's default store (bucket strategy, default
// shards) at the workload's population and times its four operations. The
// population is generated on the fly and owned by the store alone, so the
// live heap after a GC, over N, is the store's cost per record.
func storeProbes(p *probeSet, wl workload, vec vectors, fe *core.FuzzyExtractor, n int) error {
	record := func(u uint32, ver uint16, x numberline.Vector) (*store.Record, error) {
		vec.template(x, u, ver)
		_, helper, err := fe.Gen(x)
		return &store.Record{ID: userID(u), PublicKey: make([]byte, 32), Helper: helper}, err
	}
	x := make(numberline.Vector, wl.dim)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	db, err := store.ByStrategyShards("bucket", fe.Line(), 0)
	if err != nil {
		return err
	}
	inserts := make([]time.Duration, 0, wl.population)
	for u := 0; u < wl.population; u++ {
		rec, err := record(uint32(u), 0, x)
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = db.Insert(rec)
		inserts = append(inserts, time.Since(t0))
		if err != nil {
			return fmt.Errorf("probe store.insert_us: %w", err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.value["store.insert_us"], p.calls["store.insert_us"] = us(percentile(inserts, 0.5)), len(inserts)
	p.value["store.heap_bytes_per_record"] = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(wl.population)
	p.calls["store.heap_bytes_per_record"] = wl.population

	// Probes of enrolled users spread over the population, so a hit's cost
	// averages over where in the store the match sits.
	hits, misses := make([]*sketch.Sketch, probePool), make([]*sketch.Sketch, probePool)
	users := make([]uint32, probePool)
	for i := range hits {
		users[i] = uint32(i * wl.population / probePool)
		vec.reading(x, op{kind: opGenuine, user: users[i], nonce: uint64(i)})
		if hits[i], err = fe.SketchOnly(x); err != nil {
			return err
		}
		vec.reading(x, op{kind: opGhost, user: uint32(i), nonce: uint64(i)})
		if misses[i], err = fe.SketchOnly(x); err != nil {
			return err
		}
	}
	if err := p.timeCalls("store.identify_hit_us", n, func(i int) error {
		rec, err := db.Identify(hits[i%probePool])
		if err == nil && rec.ID != userID(users[i%probePool]) {
			err = fmt.Errorf("matched %s, want %s", rec.ID, userID(users[i%probePool]))
		}
		return err
	}); err != nil {
		return err
	}
	if err := p.timeCalls("store.identify_miss_us", n, func(i int) error {
		if _, err := db.Identify(misses[i%probePool]); !errors.Is(err, store.ErrNotFound) {
			return fmt.Errorf("ghost probe: %v, want not found", err)
		}
		return nil
	}); err != nil {
		return err
	}
	replacements := make([]*store.Record, min(n, wl.population))
	for i := range replacements {
		if replacements[i], err = record(uint32(i), 1, x); err != nil {
			return err
		}
	}
	return p.timeCalls("store.replace_us", len(replacements), func(i int) error {
		return db.Replace(replacements[i])
	})
}

// persistProbe appends one enrollment at a time to a fresh WAL under the
// shipped durability (fsync before acknowledging), one writer.
func persistProbe(p *probeSet, rec *store.Record, scratch string, n int) error {
	dir := filepath.Join(scratch, "probe-wal")
	defer os.RemoveAll(dir)
	log, err := persist.Open(dir)
	if err != nil {
		return err
	}
	if err := log.Replay(func(store.Mutation) error { return nil }); err != nil {
		return err
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = userID(uint32(i))
	}
	err = p.timeCalls("persist.append_us", n, func(i int) error {
		r := *rec
		r.ID = ids[i]
		return log.Append(store.InsertMutation(&r))
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	return err
}
