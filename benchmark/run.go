package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"sync"
	"syscall"
	"time"

	"fuzzyid/internal/core"
	"fuzzyid/internal/extract"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/protocol"
	"fuzzyid/internal/sigscheme"
	"fuzzyid/internal/transport"
)

const (
	// setupRepeats is how many times an untraced run sets up from scratch;
	// setup_s is the median, so one slow start does not decide it.
	setupRepeats = 3
	// tracedShare is the fraction of the untraced op count a traced run
	// executes (half of them through the traced client).
	tracedShare = 4
	// verifySample is how many acknowledged users the durability check
	// verifies against the restarted server.
	verifySample = 200
)

// runConfig is one run of one workload.
type runConfig struct {
	wl      workload
	seed    int64
	seconds int
	workers int
	traced  bool
	launch  func(w workload, dataDir string) (*server, error)
	scratch string // parent of the run's data directories
	repeats int    // set-ups per run (setupRepeats unless traced or smoke)
}

// runResult is everything one run measured.
type runResult struct {
	cfg       runConfig
	opsSHA256 string
	ops       int // length of the measured sequence
	attempted int // ops plus the durability check's records and verifications
	failed    int
	errors    []string // first few failures, for the operator

	setupS []float64
	wall   time.Duration
	lat    [numKinds][]time.Duration // untraced ops
	latTr  [numKinds][]time.Duration // ops that went through the traced client
	spans  [][]span                  // per worker

	before, after *statsDoc
	serverCPU     time.Duration
	deviceCPU     time.Duration
	serverPeakMB  float64

	liveRecords int
	diskBytes   int64
	recover     time.Duration
	recovered   int
}

// fail counts n failed ops and keeps the first few reasons.
func (r *runResult) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.errors) < 5 {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

// newClient dials one worker's connection to the server. Both the plain and
// the traced client are built here: tracing only swaps wrappers in at the
// connection, signature-scheme and extractor seams.
func newClient(addr string, dim int, tr *tracer) (*transport.Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	var (
		ext    extract.Extractor = extract.HMAC{}
		scheme                   = sigscheme.Default()
	)
	if tr != nil {
		conn = &tracedConn{Conn: conn, t: tr}
		ext = tracedExtractor{Extractor: ext, t: tr}
		scheme = tracedScheme{Scheme: scheme, t: tr}
	}
	fe, err := newExtractor(dim, ext)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return transport.NewClient(conn, protocol.NewDevice(fe, scheme)), nil
}

func newExtractor(dim int, ext extract.Extractor) (*core.FuzzyExtractor, error) {
	return core.New(core.Params{Line: numberline.PaperParams(), Dimension: dim}, core.WithExtractor(ext))
}

// do runs one op and reports whether the reply is the verdict the sequence
// implies: a genuine reading identifies as exactly its user, a ghost or
// stale reading is rejected, an enroll or re-enroll is acknowledged.
func do(c *transport.Client, o op, x, y numberline.Vector) error {
	switch o.kind {
	case opGenuine:
		id, err := c.Identify(x)
		if err != nil {
			return err
		}
		if want := userID(o.user); id != want {
			return fmt.Errorf("identified as %q, want %q", id, want)
		}
		return nil
	case opGhost, opStale:
		id, err := c.Identify(x)
		if err == nil {
			return fmt.Errorf("%s identified as %q, want a reject", kindNames[o.kind], id)
		}
		if !protocol.IsRejected(err) {
			return err
		}
		return nil
	case opEnroll:
		return c.Enroll(userID(o.user), x)
	case opReEnroll:
		return c.ReEnroll(userID(o.user), x, y)
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// prepare draws the op's inputs: x is the probe (or the enrolled template),
// y the replacement template of a re-enroll.
func prepare(o op, vec vectors, x, y numberline.Vector) {
	switch o.kind {
	case opEnroll:
		vec.template(x, o.user, 0)
	case opReEnroll:
		vec.reading(x, o)
		vec.template(y, o.user, o.version+1)
	default:
		vec.reading(x, o)
	}
}

// run executes one workload once: set-up, the measured sequence, and for
// durable workloads the crash-restart check.
func run(cfg runConfig) (*runResult, error) {
	ops := cfg.wl.opsPerSecond * cfg.seconds
	if cfg.traced {
		ops /= tracedShare
	}
	seq := buildSequence(cfg.wl, cfg.seed, cfg.workers, ops)
	res := &runResult{cfg: cfg, opsSHA256: seq.sha256, ops: seq.total()}
	fe, err := newExtractor(cfg.wl.dim, extract.HMAC{})
	if err != nil {
		return nil, err
	}
	vec := vectors{seed: cfg.seed, dim: cfg.wl.dim, line: fe.Line()}

	// Data directories of the throw-away set-ups are kept until the run ends
	// and dirty pages are flushed before measuring: deleting or writing back
	// hundreds of megabytes beside the measured window slowed it by a third.
	var srv *server
	var dataDir string
	var dataDirs []string
	defer func() {
		if srv != nil {
			srv.stop()
		}
		for _, dir := range dataDirs {
			os.RemoveAll(dir)
		}
		if len(dataDirs) > 0 {
			syscall.Sync() // the next run must not inherit this one's deletions
		}
	}()
	for i := 0; i < cfg.repeats; i++ {
		if srv != nil {
			srv.kill()
		}
		dataDir = ""
		if cfg.wl.durable {
			if dataDir, err = os.MkdirTemp(cfg.scratch, "data-"); err != nil {
				return nil, err
			}
			dataDirs = append(dataDirs, dataDir)
		}
		start := time.Now()
		if srv, err = cfg.launch(cfg.wl, dataDir); err != nil {
			return nil, err
		}
		if err := enrollPopulation(srv.addr, cfg, vec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(start).Seconds())
	}
	if cfg.wl.durable {
		syscall.Sync()
	}

	if err := measure(cfg, srv, seq, vec, res); err != nil {
		return nil, err
	}
	if cfg.wl.durable {
		if srv, err = crashCheck(cfg, srv, dataDir, seq, vec, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// enrollPopulation enrolls users 0..N-1, each by the worker that owns it.
func enrollPopulation(addr string, cfg runConfig, vec vectors) error {
	errs := make(chan error, cfg.workers)
	for wi := 0; wi < cfg.workers; wi++ {
		go func() {
			c, err := newClient(addr, cfg.wl.dim, nil)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			x := make(numberline.Vector, cfg.wl.dim)
			for u := wi; u < cfg.wl.population; u += cfg.workers {
				vec.template(x, uint32(u), 0)
				if err := c.Enroll(userID(uint32(u)), x); err != nil {
					errs <- fmt.Errorf("enroll %s: %w", userID(uint32(u)), err)
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for wi := 0; wi < cfg.workers; wi++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// measure runs the fixed sequence, one closed-loop connection per worker. In
// a traced run every second op goes through the traced client, so the traced
// and untraced latencies of a run come from the same server state and load.
func measure(cfg runConfig, srv *server, seq *sequence, vec vectors, res *runResult) error {
	type worker struct {
		plain, traced *transport.Client
		tr            *tracer
		lat, latTr    [numKinds][]time.Duration
		failures      []string
		failed        int
	}
	ws := make([]*worker, cfg.workers)
	for wi := range ws {
		w := &worker{}
		var err error
		if w.plain, err = newClient(srv.addr, cfg.wl.dim, nil); err != nil {
			return err
		}
		defer w.plain.Close()
		if cfg.traced {
			w.tr = &tracer{worker: wi}
			if w.traced, err = newClient(srv.addr, cfg.wl.dim, w.tr); err != nil {
				return err
			}
			defer w.traced.Close()
		}
		ws[wi] = w
	}

	var err error
	if res.before, err = srv.stats(); err != nil {
		return err
	}
	cpu0, self0 := srv.proc().cpu, selfCPU()
	var wg sync.WaitGroup
	start := time.Now()
	for wi, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.tr != nil {
				w.tr.epoch = start
			}
			x := make(numberline.Vector, cfg.wl.dim)
			y := make(numberline.Vector, cfg.wl.dim)
			for i, o := range seq.workers[wi] {
				prepare(o, vec, x, y)
				c, lat := w.plain, &w.lat
				if w.tr != nil && i%2 == 1 {
					c, lat = w.traced, &w.latTr
					w.tr.begin(i, kindNames[o.kind])
				}
				t0 := time.Now()
				err := do(c, o, x, y)
				dur := time.Since(t0)
				if c == w.traced {
					w.tr.end(t0, dur)
				}
				if err != nil {
					w.failed++
					if len(w.failures) < 3 {
						w.failures = append(w.failures, fmt.Sprintf("worker %d op %d %s %s: %v", wi, i, kindNames[o.kind], userID(o.user), err))
					}
					continue
				}
				lat[o.kind] = append(lat[o.kind], dur)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	p := srv.proc()
	res.serverCPU, res.serverPeakMB = p.cpu-cpu0, p.peakMB
	res.deviceCPU = selfCPU() - self0
	if res.after, err = srv.stats(); err != nil {
		return err
	}

	res.attempted += res.ops
	for _, w := range ws {
		for k := range w.lat {
			res.lat[k] = append(res.lat[k], w.lat[k]...)
			res.latTr[k] = append(res.latTr[k], w.latTr[k]...)
		}
		res.failed += w.failed
		for _, f := range w.failures {
			res.fail(0, "%s", f)
		}
		if w.tr != nil {
			res.spans = append(res.spans, w.tr.spans)
		}
	}
	return nil
}

// crashCheck SIGKILLs the server after the last acknowledgement, restarts it
// on the same data directory, and requires every acknowledged record back:
// the recovered count must equal the acknowledged count, and a sample of
// users must verify with a fresh reading of their current template. Every
// shortfall is a failed op.
func crashCheck(cfg runConfig, srv *server, dataDir string, seq *sequence, vec vectors, res *runResult) (*server, error) {
	res.liveRecords = cfg.wl.population + len(seq.fresh)
	var err error
	if res.diskBytes, err = dirBytes(dataDir); err != nil {
		return srv, err
	}
	srv.kill()
	srv, err = cfg.launch(cfg.wl, dataDir)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	res.recover, res.recovered = srv.startup, srv.recovered
	res.attempted += res.liveRecords
	if missing := res.liveRecords - res.recovered; missing != 0 {
		res.fail(max(missing, -missing), "recovered %d records, acknowledged %d", res.recovered, res.liveRecords)
	}

	c, err := newClient(srv.addr, cfg.wl.dim, nil)
	if err != nil {
		return srv, err
	}
	defer c.Close()
	pick := splitmix{s: derive(cfg.seed, streamSample)}
	x := make(numberline.Vector, cfg.wl.dim)
	for i := 0; i < min(verifySample, res.liveRecords); i++ {
		var u uint32
		var ver uint16
		if k := int(pick.next() % uint64(res.liveRecords)); k < cfg.wl.population {
			u, ver = uint32(k), seq.versions[k]
		} else {
			u = seq.fresh[k-cfg.wl.population]
		}
		vec.reading(x, op{kind: opGenuine, user: u, version: ver, nonce: pick.next()})
		res.attempted++
		if err := c.Verify(userID(u), x); err != nil {
			res.fail(1, "after restart, verify %s: %v", userID(u), err)
		}
	}
	return srv, nil
}

// selfCPU is the harness process's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scratchDir creates the per-process directory that holds data directories
// and probe logs, inside the checkout's build directory.
func scratchDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "run-")
}

// percentile returns the exact p-th percentile (nearest rank) of the
// samples: the smallest value with at least p of the mass at or below it.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(samples))
	rank := int(math.Ceil(p*float64(len(s))-1e-9)) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
