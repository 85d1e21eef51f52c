// Command benchmark is the repository's benchmark (ISSUE 11): four
// fixed-sequence workloads driven against the real fuzzyid-server binary,
// every reply checked against an oracle, end-to-end metrics from an untraced
// run and per-layer metrics from a traced run plus replay probes. See
// README.md in this directory.
//
//	go run ./benchmark                                   # whole set, report + JSON summary
//	go run ./benchmark -workload paper-dim -trace 0      # one run, one result line (the driver's form)
//	go run ./benchmark -aa                               # A/A: two sets, two seeds, against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"fuzzyid"
)

const outDir = "benchmark/out"

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print one result line (empty = the whole set)")
		seed    = flag.Int64("seed", 1, "seed of the generator: same seed, same inputs")
		seconds = flag.Int("seconds", 10, "sizes the fixed op sequence: ops = the workload's frozen ops/s × seconds")
		trace   = flag.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run + replay probes, per-layer metrics")
		workers = flag.Int("workers", runtime.NumCPU(), "closed-loop connections (at most nproc)")
		aa      = flag.Bool("aa", false, "A/A mode: run the untraced set twice on -seed and twice on -seed+1, compare against the bounds")
		smoke   = flag.Bool("smoke", false, "whole set at 1/100 scale against an in-process server; checks names and verdicts only")
	)
	flag.Parse()
	if *workers < 1 || *workers > runtime.NumCPU() {
		fatal(fmt.Errorf("-workers %d: want 1..nproc (%d)", *workers, runtime.NumCPU()))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		fatal(errors.New("usage: benchmark [-workload NAME -trace 0|1] [-seed N] [-seconds N] [-workers N] [-aa] [-smoke]"))
	}
	h, err := newHarness(*seed, *seconds, *workers, *smoke)
	if err != nil {
		fatal(err)
	}
	code := 0
	switch {
	case *smoke:
		err = h.smoke()
	case *aa:
		code, err = h.aa()
	case *name != "":
		code, err = h.single(*name, *trace == 1)
	default:
		code, err = h.fullSet()
	}
	h.close()
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// harness is one invocation: where servers come from, where files go, and
// the sizing every run shares.
type harness struct {
	seed    int64
	seconds int
	workers int
	div     int // 1, or 100 for the smoke pass
	scratch string
	launch  func(w workload, dataDir string) (*server, error)
	env     environment

	mu       sync.Mutex
	children []*server // every server launched, for the signal handler
}

func newHarness(seed int64, seconds, workers int, smoke bool) (*harness, error) {
	h := &harness{seed: seed, seconds: seconds, workers: workers, div: 1}
	var err error
	if h.scratch, err = scratchDir(); err != nil {
		return nil, err
	}
	if smoke {
		h.div, h.launch = 100, inProcessServer
	} else {
		bin, err := buildServer()
		if err != nil {
			h.close()
			return nil, err
		}
		h.launch = func(w workload, dataDir string) (*server, error) {
			s, err := spawnServer(bin, w, dataDir)
			if err == nil {
				h.mu.Lock()
				h.children = append(h.children, s)
				h.mu.Unlock()
			}
			return s, err
		}
	}
	h.env = readEnvironment(h.scratch)
	h.env.Workers, h.env.Seconds, h.env.Seed = workers, seconds, seed

	// A killed harness must not leave a server or a data directory behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.mu.Lock()
		for _, s := range h.children {
			s.kill() // harmless on one that already exited
		}
		h.close()
		os.Exit(130)
	}()
	return h, nil
}

func (h *harness) close() { os.RemoveAll(h.scratch) }

func (h *harness) config(w workload, seed int64, traced bool) runConfig {
	cfg := runConfig{
		wl: w.scaled(h.div), seed: seed, seconds: h.seconds, workers: h.workers, traced: traced,
		launch: h.launch, scratch: h.scratch, repeats: setupRepeats,
	}
	if traced || h.div > 1 {
		cfg.repeats = 1
	}
	return cfg
}

// result is the driver's result line: exactly these four keys.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// single is the driver's form: one workload, one run, one result line as the
// last line of standard output; everything else goes to standard error.
func (h *harness) single(name string, traced bool) (int, error) {
	w, ok := workloadByName(name)
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", name)
	}
	fmt.Fprintf(os.Stderr, "environment: %+v\n", h.env)
	r, err := run(h.config(w, h.seed, traced))
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(os.Stderr, "%s: ops_sha256 %s, %d ops in %.2fs\n", name, r.opsSHA256, r.ops, r.wall.Seconds())
	var m metrics
	defs := endToEndDefs
	if traced {
		p, err := replayProbes(r.cfg.wl, h.seed, h.scratch, h.div)
		if err != nil {
			return 0, err
		}
		var stages []stageTable
		m, stages = layerReport(r, p)
		defs = perLayerDefs
		printStageTables(os.Stderr, name, stages)
		if err := writeTrace(name, r); err != nil {
			return 0, err
		}
	} else {
		m = endToEnd(r)
		latencyDetail(os.Stderr, r)
	}
	printMetrics(os.Stderr, name, m, defs)
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics{}}
	for _, d := range defs {
		out.Metrics[d.name] = m[d.name]
	}
	line, err := json.Marshal(out)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(line))
	return h.verdict(r), nil
}

// verdict prints a run's failures and turns them into the exit code: a run
// with any failed op exits non-zero, after printing.
func (h *harness) verdict(r *runResult) int {
	for _, e := range r.errors {
		fmt.Fprintln(os.Stderr, "FAILED:", e)
	}
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d ops failed\n", r.cfg.wl.name, r.failed, r.attempted)
		return 1
	}
	return 0
}

// workloadReport is one workload's part of the JSON summary.
type workloadReport struct {
	Name      string       `json:"name"`
	OpsSHA256 string       `json:"ops_sha256"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	EndToEnd  metrics      `json:"end_to_end"`
	PerLayer  metrics      `json:"per_layer"`
	Stages    []stageTable `json:"stages"`
}

// summary is the whole-set report. Claim is last and null: the benchmark
// measures, it claims nothing.
type summary struct {
	Env       environment      `json:"environment"`
	Workloads []workloadReport `json:"workloads"`
	Claim     *string          `json:"claim"`
}

// fullSet runs every workload untraced, then traced, and prints the report:
// all nine end-to-end figures, every per-layer metric, the stage tables, and
// the JSON summary last.
func (h *harness) fullSet() (int, error) {
	sum, code, err := h.runSet(os.Stdout)
	if err != nil {
		return 0, err
	}
	buf, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return 0, err
	}
	fmt.Println(string(buf))
	return code, nil
}

func (h *harness) runSet(out *os.File) (*summary, int, error) {
	sum := &summary{Env: h.env}
	code := 0
	fmt.Fprintf(out, "environment: %+v\n", h.env)
	for _, w := range workloads {
		r, err := run(h.config(w, h.seed, false))
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", w.name, err)
		}
		tr, err := run(h.config(w, h.seed, true))
		if err != nil {
			return nil, 0, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		p, err := replayProbes(tr.cfg.wl, h.seed, h.scratch, h.div)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", w.name, err)
		}
		rep := workloadReport{
			Name: w.name, OpsSHA256: r.opsSHA256,
			Attempted: r.attempted + tr.attempted, Failed: r.failed + tr.failed,
			EndToEnd: endToEnd(r),
		}
		rep.PerLayer, rep.Stages = layerReport(tr, p)
		fmt.Fprintf(out, "\n== %s: ops_sha256 %s, %d ops in %.2fs ==\n", w.name, r.opsSHA256, r.ops, r.wall.Seconds())
		printMetrics(out, "end to end (untraced run)", rep.EndToEnd, fullReportDefs)
		latencyDetail(out, r)
		printMetrics(out, "per layer (traced run + replay probes)", rep.PerLayer, perLayerDefs)
		printStageTables(out, w.name, rep.Stages)
		for _, t := range rep.Stages {
			if h.div == 1 && t.Class == kindNames[opGenuine] && t.Coverage < 0.9 { // a speed check: not for the smoke pass
				fmt.Fprintf(out, "COVERAGE: %s stage table explains %.0f%% of the untraced p50, want >= 90%%\n", w.name, t.Coverage*100)
				code = 1
			}
		}
		if h.div == 1 {
			if err := writeTrace(w.name, tr); err != nil {
				return nil, 0, err
			}
		}
		code = max(code, h.verdict(r), h.verdict(tr))
		sum.Workloads = append(sum.Workloads, rep)
	}
	fmt.Fprintln(out)
	return sum, code, nil
}

// writeTrace writes the traced run's spans, kept in memory until now.
func writeTrace(name string, r *runResult) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var all []span
	for _, s := range r.spans {
		all = append(all, s...)
	}
	buf, err := json.Marshal(struct {
		Workload  string `json:"workload"`
		OpsSHA256 string `json:"ops_sha256"`
		Spans     []span `json:"spans"`
	}{name, r.opsSHA256, all})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+name+".json"), buf, 0o644)
}

// smoke runs the whole set at 1/100 scale against an in-process server and
// asserts only what does not depend on speed: no op failed, and the harness
// emits exactly the metrics and workloads BENCHMARK.json names.
func (h *harness) smoke() error {
	sum, code, err := h.runSet(os.Stderr)
	if err != nil {
		return err
	}
	if code != 0 {
		return errors.New("smoke: a run failed (see above)")
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	return checkSpec(spec, sum)
}

// inProcessServer serves the workload from inside the harness process, for
// the smoke pass. Its "crash" is an orderly close: the smoke pass checks
// names and verdicts, the spawned binary's SIGKILL checks durability.
func inProcessServer(w workload, dataDir string) (*server, error) {
	opts := []fuzzyid.Option{fuzzyid.WithTelemetry(), fuzzyid.WithQoS(fuzzyid.QoSLimits{Weight: 1})}
	if dataDir != "" {
		opts = append(opts, fuzzyid.WithPersistence(dataDir))
	}
	start := time.Now()
	sys, err := fuzzyid.NewSystem(fuzzyid.Params{Line: fuzzyid.PaperLine(), Dimension: w.dim}, opts...)
	if err != nil {
		return nil, err
	}
	srv, err := sys.Listen("127.0.0.1:0")
	if err != nil {
		sys.Close()
		return nil, err
	}
	closeAll := func() {
		srv.Close() // closes a persistent system too
		if dataDir == "" {
			sys.Close()
		}
	}
	return &server{
		addr: srv.Addr().String(), pid: os.Getpid(), recovered: sys.Enrolled(), startup: time.Since(start),
		statsJSON: sys.StatsJSON, kill: closeAll, stop: closeAll,
	}, nil
}
