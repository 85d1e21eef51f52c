package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"fuzzyid/internal/numberline"
)

// opKind is one operation class of a workload. Stale is the second half of
// the ghost class: a genuine-quality reading of a template that a re-enroll
// has since replaced, which the server must reject exactly like a ghost.
type opKind uint8

const (
	opGenuine opKind = iota
	opGhost
	opStale
	opEnroll
	opReEnroll
	numKinds
)

var kindNames = [numKinds]string{"identify-genuine", "identify-ghost", "identify-stale", "enroll-fresh", "re-enroll"}

// mix is a workload's exact op composition in percent: identify-genuine,
// identify-ghost (ghost and stale together), enroll-fresh, re-enroll.
type mix struct{ genuine, ghost, enroll, reenroll int }

// workload is one fixed-sequence traffic mix against one server
// configuration.
type workload struct {
	name       string
	why        string
	dim        int
	durable    bool // -data DIR -sync always -snapshot-interval 0
	population int  // users enrolled during set-up
	// opsPerSecond sizes the measured sequence: ops = opsPerSecond × -seconds.
	// It is this box's speed at the commit that defined the benchmark, frozen
	// so later commits execute the same sequence however fast they are.
	opsPerSecond int
	mix          mix
}

// The four workloads of ISSUE 11. Populations and rates are the issue's
// sizes scaled to the driver's time cap (see README.md, "Scale"); every
// workload carries a minority share of the op class it would otherwise lack,
// because the benchmark contract wants every end-to-end metric on every
// workload.
var workloads = []workload{
	{
		name: "paper-dim", dim: 5000, population: 2000, opsPerSecond: 1400,
		mix: mix{genuine: 90, enroll: 10},
		why: "Table II's n=5000: per-op cost is device Gen/Rep/Sketch, 40 KB wire codec and signatures; store lookup is microseconds",
	},
	{
		name: "identify-scale", dim: 64, population: 100000, opsPerSecond: 800,
		mix: mix{genuine: 80, ghost: 10, enroll: 10},
		why: "Fig. 4's axis: a large population at dim 64 makes the store scan dominate; hits set p50, full-scan ghost rejects set p95",
	},
	{
		name: "enroll-durable", dim: 64, durable: true, population: 4000, opsPerSecond: 4000,
		mix: mix{genuine: 10, enroll: 90},
		why: "Write path: wire decode, qos admit, store insert, WAL append and group fsync, then SIGKILL, restart and verify",
	},
	{
		name: "lifecycle-mixed", dim: 512, durable: true, population: 20000, opsPerSecond: 2200,
		mix: mix{genuine: 60, ghost: 10, enroll: 20, reenroll: 10},
		why: "Reads beside writes and re-enrolls through the same store/persist/qos at the default dimension, where no layer dominates",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled divides the population and op rate by div (the -smoke pass).
func (w workload) scaled(div int) workload {
	w.population = max(w.population/div, 8)
	w.opsPerSecond = max(w.opsPerSecond/div, 8)
	return w
}

// op is one element of a worker's fixed sequence. Everything the harness
// sends is a function of (seed, op), so two commits given the same seed
// execute byte-identical inputs.
type op struct {
	kind    opKind
	user    uint32 // user index; for opGhost an index into the never-enrolled space
	version uint16 // template version the reading is drawn from (re-enroll installs version+1)
	nonce   uint64 // seeds the reading's noise
}

// sequence is the whole measured run: one op list per worker, the state the
// oracle needs for the durability check, and the digest that names it.
type sequence struct {
	workers  [][]op
	fresh    []uint32 // users enrolled by the sequence, in ack order per worker
	versions []uint16 // final template version of every set-up user
	sha256   string
}

func (s *sequence) total() int {
	n := 0
	for _, w := range s.workers {
		n += len(w)
	}
	return n
}

// splitmix is the harness's generator: a math/rand Source64 that is cheap to
// construct per user and per op, so no vector has to be kept in memory.
type splitmix struct{ s uint64 }

func (g *splitmix) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *splitmix) Uint64() uint64 { return g.next() }
func (g *splitmix) Int63() int64   { return int64(g.next() >> 1) }
func (g *splitmix) Seed(s int64)   { g.s = uint64(s) }

// derive mixes a stream label into the run seed so the op sequence, the
// templates and the noise never share a stream.
func derive(seed int64, parts ...uint64) uint64 {
	g := splitmix{s: uint64(seed)}
	h := g.next()
	for _, p := range parts {
		g.s = h ^ p
		h = g.next()
	}
	return h
}

// Stream labels for derive.
const (
	streamOps uint64 = iota + 1
	streamTemplate
	streamGhost
	streamNoise
	streamSample
)

// buildSequence derives the per-worker op lists. Users are partitioned
// between workers (user u belongs to worker u mod W), so every expected
// verdict is fixed by the sequence alone, whatever the interleaving.
func buildSequence(w workload, seed int64, workers, ops int) *sequence {
	s := &sequence{workers: make([][]op, workers), versions: make([]uint16, w.population)}
	digest := sha256.New()
	for wi := 0; wi < workers; wi++ {
		rng := rand.New(&splitmix{s: derive(seed, streamOps, uint64(wi))})
		n := ops / workers
		kinds := make([]opKind, 0, n)
		for _, share := range []struct {
			kind opKind
			pct  int
		}{{opGhost, w.mix.ghost}, {opEnroll, w.mix.enroll}, {opReEnroll, w.mix.reenroll}} {
			for i := 0; i < n*share.pct/100; i++ {
				kinds = append(kinds, share.kind)
			}
		}
		for len(kinds) < n {
			kinds = append(kinds, opGenuine)
		}
		rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

		own := (w.population - wi + workers - 1) / workers // users wi, wi+W, ...
		var reenrolled []uint32
		var ghosts, fresh int
		list := make([]op, n)
		for i, k := range kinds {
			o := op{kind: k, nonce: rng.Uint64()}
			switch k {
			case opGenuine:
				o.user = uint32(wi + workers*rng.Intn(own))
				o.version = s.versions[o.user]
			case opReEnroll:
				o.user = uint32(wi + workers*rng.Intn(own))
				o.version = s.versions[o.user]
				if o.version == 0 {
					reenrolled = append(reenrolled, o.user)
				}
				s.versions[o.user]++
			case opEnroll:
				o.user = uint32(w.population + wi + workers*fresh)
				fresh++
				s.fresh = append(s.fresh, o.user)
			case opGhost:
				if len(reenrolled) > 0 && ghosts%2 == 1 {
					o.kind = opStale
					o.user = reenrolled[rng.Intn(len(reenrolled))]
					o.version = s.versions[o.user] - 1
				} else {
					o.user = uint32(wi + workers*ghosts)
				}
				ghosts++
			}
			list[i] = o
			var rec [15]byte
			rec[0] = byte(o.kind)
			binary.BigEndian.PutUint32(rec[1:], o.user)
			binary.BigEndian.PutUint16(rec[5:], o.version)
			binary.BigEndian.PutUint64(rec[7:], o.nonce)
			digest.Write(rec[:])
		}
		s.workers[wi] = list
	}
	s.sha256 = hex.EncodeToString(digest.Sum(nil))
	return s
}

// vectors draws templates and readings on the paper line. Templates are
// uniform on the ring; a genuine reading is the template plus uniform noise
// within ±t per coordinate, so Rep and the store match always succeed.
type vectors struct {
	seed int64
	dim  int
	line *numberline.Line
}

func (v vectors) fill(dst numberline.Vector, state uint64) {
	g := splitmix{s: state}
	ring, lo := uint64(v.line.RingSize()), v.line.Min()
	for i := range dst {
		dst[i] = lo + int64(g.next()%ring)
	}
}

// template writes version ver of user u's enrolled biometric into dst.
func (v vectors) template(dst numberline.Vector, u uint32, ver uint16) {
	v.fill(dst, derive(v.seed, streamTemplate, uint64(u), uint64(ver)))
}

// ghost writes the g-th never-enrolled template into dst.
func (v vectors) ghost(dst numberline.Vector, g uint32) {
	v.fill(dst, derive(v.seed, streamGhost, uint64(g)))
}

// noise turns the template in dst into a genuine reading of it.
func (v vectors) noise(dst numberline.Vector, nonce uint64) {
	g := splitmix{s: derive(v.seed, streamNoise, nonce)}
	t := v.line.Threshold()
	span := uint64(2*t + 1)
	for i := range dst {
		dst[i] = v.line.Normalize(dst[i] + int64(g.next()%span) - t)
	}
}

// reading writes the op's probe biometric into dst.
func (v vectors) reading(dst numberline.Vector, o op) {
	if o.kind == opGhost {
		v.ghost(dst, o.user)
	} else {
		v.template(dst, o.user, o.version)
	}
	v.noise(dst, o.nonce)
}

func userID(u uint32) string { return fmt.Sprintf("u%08d", u) }
