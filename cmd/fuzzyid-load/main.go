// Command fuzzyid-load drives sustained traffic against a live
// fuzzyid-server and reports throughput and latency percentiles per
// scenario — the repeatable load suite behind every scaling claim this
// repo makes (see DESIGN.md §7).
//
//	fuzzyid-server -addr 127.0.0.1:7700 -dim 128 &
//	fuzzyid-load   -addr 127.0.0.1:7700 -dim 128 -workers 8 -duration 10s
//
// Each worker is a closed loop over its own TCP connection: it issues one
// operation, waits for the verdict, records the latency, and immediately
// issues the next, so concurrency is exactly -workers and the measured
// latency includes the full protocol round trips. Latencies are accumulated
// in the same fixed-bucket histograms the server's own telemetry uses
// (internal/telemetry), so client-side and server-side percentiles are
// directly comparable.
//
// Scenarios (-scenario, comma-separated or "all", run in the order given):
//
//	enroll     — enrollment-heavy write traffic: every op enrolls a fresh user
//	identify   — read traffic: identify a genuine reading of an enrolled user
//	mixed      — 80% identify / 10% verify / 10% enroll
//	batch      — batched identification: -batch readings per session
//	churn      — revoke/re-enroll cycles over a worker-owned user slice
//	aging      — template lifecycle: each worker's owned users age (their
//	             biometric drifts by -drift-step per op, a bounded random
//	             walk), verify degrades as readings leave the enrolled
//	             template's acceptance ball, and the worker re-enrolls the
//	             user online through the atomic re-enroll protocol, then
//	             confirms verification recovered. The report carries drift
//	             steps, degraded verifies, re-enrolls, recoveries and
//	             recovery failures (CI gates on zero failures).
//	noise      — impostor probes that should miss (server-side reject path)
//	nomatch    — open-set worst case: genuine-looking readings of users who
//	             were never enrolled, so every probe forces a full scan and a
//	             reject — the path the packed residue matrix and coarse
//	             pre-filter exist for (see DESIGN.md §10)
//	open-set   — mixed open-set identification: an -open-frac fraction of
//	             probes are genuine-quality readings of never-enrolled users
//	             (they must be rejected; any identification is a false
//	             accept), the rest are genuine readings of enrolled users
//	             (they must hit). The report carries ghost/genuine probe
//	             counts, rejects, hits and false accepts — the workload a
//	             deployment actually sees, rather than nomatch's 100% ghost
//	             worst case.
//	imposter   — empirical false-accept measurement: every op verifies a
//	             claimed enrolled identity against a genuine-quality reading
//	             of a *different* enrolled user. Every accept is a false
//	             accept; §V bounds the rate by ((2t+1)/ka)^n, so at any
//	             realistic dimension the expected count is zero.
//	mass-enroll — write-only durable-ingest storm: every worker enrolls
//	             fresh users flat out, nothing is read back. The report adds
//	             per-worker throughput and — when the server runs with
//	             telemetry — the fsync-amortization ratio (WAL appends per
//	             fsync over the scenario window), the direct measure of how
//	             well group commit batches concurrent writers. Pair with
//	             -sync / -group-window on the server (or -sync here in
//	             -spawn-server mode) to A/B durability policies. Not part
//	             of "all": it grows the database without bound.
//	replicated — identify traffic fanned out across -replicas followers
//	             (requires -replicas; not part of "all")
//	multitenant — skewed 90/10 identify/enroll traffic spread across
//	             -tenants freshly created, run-scoped namespaces (harmonic
//	             skew: tenant i gets weight 1/(i+1)); the report breaks
//	             throughput down per tenant, and the namespaces are dropped
//	             again when the run ends (requires -tenants >= 2; not part
//	             of "all")
//	noisy-neighbor — the adversarial QoS scenario: -tenants well-behaved
//	             victim namespaces run closed-loop identify traffic at
//	             -workers each, while one flood namespace hammers the server
//	             with -flood-workers spinning clients under a deliberately
//	             tight per-tenant rate override (-flood-rate/-flood-burst,
//	             installed over the wire after its population enrolls). The
//	             report carries per-tenant rows under stable labels
//	             ("victim-0".., "flood") with ops, sheds (typed overload
//	             refusals) and full latency histograms, so CI can gate the
//	             victims' p99 against bench/noisy-baseline.json while
//	             requiring the flood to actually shed. Against a server
//	             running -qos=false the override is skipped (with a warning)
//	             and nothing sheds — the A/B half of the CI degradation
//	             check. Namespaces are run-scoped and dropped at the end.
//	             (Not part of "all".)
//
// With -replicas addr1,addr2 every worker's reads fan out round-robin
// across those follower servers (mutations stay pinned to -addr, which must
// be the primary); before the first scenario the harness waits for every
// replica to report zero lag, so the measured traffic runs against
// caught-up followers. The replicated scenario is identify traffic under
// that fan-out — compare its ops/s against a plain identify run on the
// same hardware to measure read scaling (see OPERATIONS.md).
//
// With -format json the report is machine-readable (CI diffs it across
// runs); -server-stats additionally embeds the server's own telemetry
// snapshot fetched over the native stats session, so request counts can be
// cross-checked against what the server observed.
//
// With -spawn-server the harness becomes a sweet-style macro-benchmark rig:
// it launches the named fuzzyid-server binary as a subprocess (appending
// -addr and -stats-addr), samples its RSS from /proc while the scenarios
// run, scrapes its GC pause totals from the stats endpoint, and embeds the
// resource account as the report's "macro" section — throughput,
// latency percentiles, peak RSS and GC pause in one JSON document:
//
//	fuzzyid-load -spawn-server ./fuzzyid-server -spawn-args "-dim 64" \
//	             -dim 64 -scenario identify,nomatch -format json > report.json
//
// With -compare/-candidate the harness gates one such report against a
// baseline instead of generating load: per-scenario p99 latency and peak
// RSS may regress by at most -threshold (scenarios under -min-ms are
// noise and skipped), mirroring the fuzzyid-bench perf gate. CI runs this
// against bench/macro-baseline.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyid"
	"fuzzyid/internal/biometric"
	"fuzzyid/internal/macrobench"
	"fuzzyid/internal/protocol"
	"fuzzyid/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fuzzyid-load:", err)
		os.Exit(1)
	}
}

// scenarioOrder is the "all" sequence. Write-heavy scenarios run first so
// the read scenarios see a database grown by them — the realistic ordering
// for a system whose store only grows.
// The lifecycle scenarios run after churn (aging mutates templates through
// re-enrollment, and the read scenarios behind it must see the re-anchored
// population) with the pure reject-path scenarios last.
var scenarioOrder = []string{"enroll", "identify", "mixed", "batch", "churn", "aging", "noise", "nomatch", "open-set", "imposter"}

type config struct {
	addr     string
	replicas []string
	dim      int
	workers  int
	duration time.Duration
	users    int
	batch    int
	tenants  int
	seed     int64
	scheme   string
	ext      string
	cluster  bool // route across a keyspace-sharded cluster

	// Noisy-neighbor scenario knobs.
	floodWorkers int
	floodRate    float64
	floodBurst   int

	// Lifecycle scenario knobs.
	openFrac  float64 // open-set: fraction of never-enrolled probes
	driftStep int64   // aging: per-op random-walk bound (0 = threshold/4)
}

// report is the machine-readable output contract (-format json); append
// only, so CI diffs stay comparable across versions.
type report struct {
	Addr      string   `json:"addr"`
	Replicas  []string `json:"replicas,omitempty"`
	Dim       int      `json:"dim"`
	Workers   int      `json:"workers"`
	DurationS float64  `json:"duration_s"`
	Users     int      `json:"users"`
	Seed      int64    `json:"seed"`
	// Sync is the WAL durability policy passed to a spawned server via
	// -sync (absent otherwise).
	Sync        string                 `json:"sync,omitempty"`
	Scenarios   []scenarioResult       `json:"scenarios"`
	ServerStats *fuzzyid.StatsSnapshot `json:"server_stats,omitempty"`
	// Macro is the spawned server's resource account (peak RSS, GC pause);
	// present only with -spawn-server.
	Macro *macrobench.Usage `json:"macro,omitempty"`
}

// scenarioResult summarises one scenario run.
type scenarioResult struct {
	Scenario string  `json:"scenario"`
	Ops      uint64  `json:"ops"`
	Errors   uint64  `json:"errors"`
	Misses   uint64  `json:"misses"`
	Seconds  float64 `json:"seconds"`
	// ThroughputOpsS counts completed operations per second across all
	// workers (a batch session is one operation).
	ThroughputOpsS float64                     `json:"throughput_ops_s"`
	Latency        telemetry.HistogramSnapshot `json:"latency"`
	// PerWorkerOpsS is each worker's completed ops per second — the
	// per-writer durable throughput view (mass-enroll only).
	PerWorkerOpsS []float64 `json:"per_worker_ops_s,omitempty"`
	// FsyncAmortization is the mean number of WAL appends acknowledged per
	// fsync over the scenario window, computed from the server's telemetry
	// counters (mass-enroll only; absent when the server runs without
	// -telemetry). 1.0 means every write paid a private fsync; higher means
	// group commit batched concurrent writers.
	FsyncAmortization float64 `json:"fsync_amortization,omitempty"`
	// Tenants breaks the multitenant scenario's throughput down per
	// namespace (absent for single-tenant scenarios).
	Tenants []tenantResult `json:"tenants,omitempty"`
	// OpenSet, Aging and Imposter carry the lifecycle scenarios'
	// accuracy accounting (absent for other scenarios).
	OpenSet  *openSetStats  `json:"open_set,omitempty"`
	Aging    *agingStats    `json:"aging,omitempty"`
	Imposter *imposterStats `json:"imposter,omitempty"`
}

// openSetStats is the open-set scenario's accuracy account. FalseAccepts
// must be zero on a correct system (a ghost probe identified as someone);
// GhostRejects + FalseAccepts = GhostProbes, GenuineHits <= GenuineProbes.
type openSetStats struct {
	GhostProbes   uint64 `json:"ghost_probes"`
	GhostRejects  uint64 `json:"ghost_rejects"`
	FalseAccepts  uint64 `json:"false_accepts"`
	GenuineProbes uint64 `json:"genuine_probes"`
	GenuineHits   uint64 `json:"genuine_hits"`
}

// agingStats is the aging scenario's lifecycle account. RecoveryFailures
// (a verify that still failed immediately after a successful re-enroll)
// must be zero: the re-enroll anchored the stored template at the current
// drifted biometric, so the next genuine reading is within threshold by
// construction.
type agingStats struct {
	DriftSteps        uint64 `json:"drift_steps"`
	DegradedVerifies  uint64 `json:"degraded_verifies"`
	ReEnrolls         uint64 `json:"reenrolls"`
	RecoveredVerifies uint64 `json:"recovered_verifies"`
	RecoveryFailures  uint64 `json:"recovery_failures"`
}

// imposterStats is the imposter scenario's false-accept account. Every
// attempt claims an enrolled identity with a genuine-quality reading of a
// different user; §V bounds the accept rate by ((2t+1)/ka)^n.
type imposterStats struct {
	Attempts     uint64 `json:"attempts"`
	FalseAccepts uint64 `json:"false_accepts"`
}

// tenantResult is one namespace's share of a multitenant or noisy-neighbor
// scenario. For noisy-neighbor, Tenant is the stable role label
// ("victim-0".., "flood") so CI baselines stay comparable across runs while
// Namespace carries the run-scoped name actually created on the server.
type tenantResult struct {
	Tenant         string  `json:"tenant"`
	Ops            uint64  `json:"ops"`
	ThroughputOpsS float64 `json:"throughput_ops_s"`
	// Namespace is the run-scoped namespace behind the stable label
	// (noisy-neighbor only).
	Namespace string `json:"namespace,omitempty"`
	// Shed counts sessions the server refused with a typed overload error
	// (noisy-neighbor only).
	Shed uint64 `json:"shed,omitempty"`
	// Latency is this tenant's own client-side latency histogram
	// (noisy-neighbor only) — the per-tenant p99 the CI gate reads.
	Latency *telemetry.HistogramSnapshot `json:"latency,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fuzzyid-load", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7700", "server address (the primary when -replicas is set)")
		replicas    = fs.String("replicas", "", "comma-separated follower addresses for read fan-out")
		clustered   = fs.Bool("cluster", false, "route across a keyspace-sharded cluster (-addr is any member)")
		scenario    = fs.String("scenario", "all", "comma-separated scenario list: "+strings.Join(scenarioOrder, ", ")+", 'replicated', 'multitenant', 'mass-enroll', or 'all'")
		workers     = fs.Int("workers", 8, "concurrent closed-loop workers (one connection each)")
		duration    = fs.Duration("duration", 5*time.Second, "wall-clock budget per scenario")
		users       = fs.Int("users", 50, "pre-enrolled population size (per tenant, for multitenant)")
		tenants     = fs.Int("tenants", 1, "tenant namespaces for the multitenant scenario")
		dim         = fs.Int("dim", 512, "feature-vector dimension (must match the server)")
		batch       = fs.Int("batch", 16, "readings per batch-scenario session")
		seed        = fs.Int64("seed", 1, "workload seed (templates and noise); use a distinct seed per run against a live server, or re-enrolled twin templates make identify ambiguous")
		scheme      = fs.String("scheme", "ed25519", "signature scheme (must match the server)")
		ext         = fs.String("extractor", "hmac-sha256", "strong extractor (must match the server)")
		openFrac    = fs.Float64("open-frac", 0.5, "open-set: fraction of probes from never-enrolled users")
		driftStep   = fs.Int64("drift-step", 0, "aging: per-op drift random-walk bound (0 = threshold/4)")
		floodW      = fs.Int("flood-workers", 32, "noisy-neighbor: spinning clients in the flood namespace")
		floodRate   = fs.Float64("flood-rate", 50, "noisy-neighbor: rate override (sessions/s) installed on the flood namespace (0 = no override)")
		floodBurst  = fs.Int("flood-burst", 25, "noisy-neighbor: burst override installed on the flood namespace")
		format      = fs.String("format", "text", "output format: text or json")
		serverStats = fs.Bool("server-stats", false, "embed the server's telemetry snapshot (native stats session) in the report")
		spawnServer = fs.String("spawn-server", "", "launch this fuzzyid-server binary as a measured subprocess (macro-bench mode)")
		spawnArgs   = fs.String("spawn-args", "", "extra arguments for the spawned server (space-separated; -addr and -stats-addr are appended)")
		spawnStats  = fs.String("spawn-stats", "127.0.0.1:7701", "stats endpoint address for the spawned server")
		syncPol     = fs.String("sync", "", "with -spawn-server: WAL durability policy for the spawned server (always or os; empty = server default)")
		rssInterval = fs.Duration("rss-interval", 100*time.Millisecond, "RSS sampling interval for the spawned server")
		compareWith = fs.String("compare", "", "gate mode: baseline report JSON (use with -candidate)")
		candidate   = fs.String("candidate", "", "gate mode: candidate report JSON to check against -compare")
		threshold   = fs.Float64("threshold", 0.5, "gate mode: allowed fractional regression of p99 latency and peak RSS")
		minMS       = fs.Float64("min-ms", 0.2, "gate mode: ignore scenarios whose p99 is below this on both sides (noise floor)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*compareWith == "") != (*candidate == "") {
		return errors.New("-compare and -candidate must be used together")
	}
	if *compareWith != "" {
		return runCompare(stdout, *compareWith, *candidate, *threshold, *minMS)
	}
	if *workers <= 0 || *users <= 0 || *batch <= 0 || *duration <= 0 {
		return errors.New("-workers, -users, -batch and -duration must be positive")
	}
	scenarios, err := parseScenarios(*scenario)
	if err != nil {
		return err
	}
	var replicaAddrs []string
	for _, a := range strings.Split(*replicas, ",") {
		if a = strings.TrimSpace(a); a != "" {
			replicaAddrs = append(replicaAddrs, a)
		}
	}
	if *clustered && len(replicaAddrs) > 0 {
		return errors.New("-cluster and -replicas are mutually exclusive (the cluster map names each partition's replicas)")
	}
	if *openFrac < 0 || *openFrac > 1 {
		return fmt.Errorf("-open-frac=%g: want a fraction in [0, 1]", *openFrac)
	}
	if *driftStep < 0 {
		return fmt.Errorf("-drift-step=%d: want >= 0 (0 = automatic)", *driftStep)
	}
	for _, name := range scenarios {
		// Churn and aging stripe the population across the workers; every
		// worker needs at least one user to own.
		if (name == "churn" || name == "aging") && *users < *workers {
			return fmt.Errorf("%s needs -users >= -workers (got %d users for %d workers)", name, *users, *workers)
		}
		if name == "imposter" && *users < 2 {
			return errors.New("the imposter scenario needs -users >= 2 (it claims one user with another's reading)")
		}
		if name == "replicated" && len(replicaAddrs) == 0 {
			return errors.New("the replicated scenario needs -replicas (follower addresses)")
		}
		if name == "multitenant" && *tenants < 2 {
			return errors.New("the multitenant scenario needs -tenants >= 2")
		}
		if name == "noisy-neighbor" && (*floodW <= 0 || *tenants < 1) {
			return errors.New("the noisy-neighbor scenario needs -flood-workers > 0 and -tenants >= 1")
		}
	}
	cfg := config{
		addr: *addr, replicas: replicaAddrs, dim: *dim, workers: *workers,
		duration: *duration, users: *users, batch: *batch, tenants: *tenants,
		seed: *seed, scheme: *scheme, ext: *ext, cluster: *clustered,
		floodWorkers: *floodW, floodRate: *floodRate, floodBurst: *floodBurst,
		openFrac: *openFrac, driftStep: *driftStep,
	}
	switch *syncPol {
	case "", "always", "os":
	default:
		return fmt.Errorf("-sync=%s: want always or os", *syncPol)
	}
	if *syncPol != "" && *spawnServer == "" {
		return errors.New("-sync only applies with -spawn-server (set the policy on your own server directly)")
	}
	var proc *macrobench.Proc
	if *spawnServer != "" {
		sargs := strings.Fields(*spawnArgs)
		if *syncPol != "" {
			sargs = append(sargs, "-sync", *syncPol)
		}
		proc, err = macrobench.Start(*spawnServer, sargs, *addr, *spawnStats, *rssInterval)
		if err != nil {
			return err
		}
	}
	rep, err := drive(cfg, scenarios, *serverStats)
	if rep != nil {
		rep.Sync = *syncPol
	}
	if proc != nil {
		// Stop (and account) the spawned server even when the run failed.
		usage, uerr := proc.Stop()
		if err == nil && uerr != nil {
			err = fmt.Errorf("macro usage: %w", uerr)
		}
		if rep != nil {
			rep.Macro = &usage
		}
	}
	if err != nil {
		return err
	}
	switch *format {
	case "text":
		return writeText(stdout, rep)
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	default:
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}
}

func parseScenarios(s string) ([]string, error) {
	if s == "all" {
		return scenarioOrder, nil
	}
	// "replicated", "multitenant", "mass-enroll" and "noisy-neighbor" are
	// requested explicitly, never part of "all": the first two only make
	// sense with -replicas / -tenants configured, mass-enroll grows the
	// database without bound (and would skew the read scenarios behind it),
	// and noisy-neighbor deliberately floods the server.
	known := map[string]bool{"replicated": true, "multitenant": true, "mass-enroll": true, "noisy-neighbor": true}
	for _, name := range scenarioOrder {
		known[name] = true
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown scenario %q (known: %s)", name, strings.Join(scenarioOrder, ", "))
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, errors.New("empty scenario list")
	}
	return out, nil
}

// worker is one closed loop: its own connection, its own noise source and
// RNG (so scenarios are reproducible per seed without cross-worker locking),
// and a worker-owned churn slice so revoke/re-enroll cycles never race
// between workers.
type worker struct {
	id     int
	client *fuzzyid.Client
	src    *biometric.Source
	rng    *rand.Rand
	pop    []*biometric.User // shared, read-only after the enroll phase
	churn  []*biometric.User // disjoint per worker
	nonce  int64             // uniquifies enroll-scenario IDs across runs
	batch  int
	seq    int // counter for fresh enroll IDs

	// Multitenant scenario state: one tenant-bound client per namespace,
	// plus the shared skew table and counters (nil outside multitenant).
	mt        *mtState
	mtClients []*fuzzyid.Client

	// Lifecycle scenario state: the shared accuracy counters (reset per
	// scenario), the per-worker aging population (lazily built over the
	// worker's churn slice), and the drift/open-set knobs.
	lc        *lifecycleState
	aging     []*agingUser
	driftStep int64
	openFrac  float64
}

// lifecycleState accumulates the open-set / aging / imposter accuracy
// counters across every worker of one scenario run.
type lifecycleState struct {
	ghostProbes, ghostRejects, falseAccepts atomic.Uint64
	genuineProbes, genuineHits              atomic.Uint64

	driftSteps, degraded, reenrolls   atomic.Uint64
	recovered, recoveryFailures       atomic.Uint64
	imposterAttempts, imposterAccepts atomic.Uint64
}

// agingUser tracks one worker-owned user through the aging scenario: u is
// the population entry (u.Template always mirrors what the server has
// enrolled), current is the user's drifted biometric — what their finger or
// iris actually looks like now.
type agingUser struct {
	u       *biometric.User
	current fuzzyid.Vector
}

// mtState is the multitenant scenario's shared state: the created
// namespaces, their populations, the harmonic skew table and the
// per-tenant op counters the per-tenant throughput report is built from.
type mtState struct {
	names []string
	pops  [][]*biometric.User // read-only after setup
	cum   []float64           // cumulative skew weights, normalised to 1
	ops   []atomic.Uint64
}

// newMTState builds the skew table: tenant i is picked with weight
// 1/(i+1), so the first namespace dominates — the realistic shape of a
// consolidated service hosting one big app and a tail of small ones.
func newMTState(names []string) *mtState {
	mt := &mtState{
		names: names,
		pops:  make([][]*biometric.User, len(names)),
		cum:   make([]float64, len(names)),
		ops:   make([]atomic.Uint64, len(names)),
	}
	total := 0.0
	for i := range names {
		total += 1 / float64(i+1)
	}
	acc := 0.0
	for i := range names {
		acc += 1 / float64(i+1) / total
		mt.cum[i] = acc
	}
	return mt
}

// pick maps a uniform [0,1) draw to a tenant index via the skew table.
func (mt *mtState) pick(r float64) int {
	for i, c := range mt.cum {
		if r < c {
			return i
		}
	}
	return len(mt.cum) - 1
}

// op runs one operation of the named scenario. It reports errMiss when the
// server (correctly or not) did not identify the probe — an expected
// outcome for noise traffic, a quality signal elsewhere.
var errMiss = errors.New("load: probe not identified")

func (w *worker) op(scenario string) error {
	switch scenario {
	case "enroll":
		w.seq++
		u := w.src.NewUser(fmt.Sprintf("load-%x-w%d-%d", w.nonce, w.id, w.seq))
		return w.client.Enroll(u.ID, u.Template)
	case "mass-enroll":
		// Write-only durable ingest: identical wire traffic to enroll, under
		// its own ID prefix so mixed runs never collide. The distinct name
		// keeps its report rows (per-worker throughput, fsync amortization)
		// and CI baselines separate from the read-mixed enroll scenario.
		w.seq++
		u := w.src.NewUser(fmt.Sprintf("mass-%x-w%d-%d", w.nonce, w.id, w.seq))
		return w.client.Enroll(u.ID, u.Template)
	case "identify", "replicated":
		// replicated is identify traffic under the -replicas read fan-out;
		// the separate name keeps reports and CI comparisons explicit.
		u := w.pop[w.rng.Intn(len(w.pop))]
		return w.identify(u)
	case "mixed":
		switch r := w.rng.Intn(10); {
		case r < 8:
			return w.op("identify")
		case r == 8:
			u := w.pop[w.rng.Intn(len(w.pop))]
			reading, err := w.src.GenuineReading(u)
			if err != nil {
				return err
			}
			return w.client.Verify(u.ID, reading)
		default:
			return w.op("enroll")
		}
	case "batch":
		readings := make([]fuzzyid.Vector, w.batch)
		picked := make([]*biometric.User, w.batch)
		for i := range readings {
			picked[i] = w.pop[w.rng.Intn(len(w.pop))]
			r, err := w.src.GenuineReading(picked[i])
			if err != nil {
				return err
			}
			readings[i] = r
		}
		ids, err := w.client.IdentifyBatch(readings)
		if err != nil {
			return err
		}
		for i, id := range ids {
			if id != picked[i].ID {
				return errMiss
			}
		}
		return nil
	case "churn":
		if len(w.churn) == 0 {
			return fmt.Errorf("load: worker %d owns no churn users (need users >= workers)", w.id)
		}
		u := w.churn[w.rng.Intn(len(w.churn))]
		reading, err := w.src.GenuineReading(u)
		if err != nil {
			return err
		}
		if err := w.client.Revoke(u.ID, reading); err != nil {
			return err
		}
		return w.client.Enroll(u.ID, u.Template)
	case "aging":
		return w.opAging()
	case "open-set":
		return w.opOpenSet()
	case "imposter":
		return w.opImposter()
	case "multitenant":
		ti := mtPick(w)
		w.mt.ops[ti].Add(1)
		client := w.mtClients[ti]
		if w.rng.Intn(10) == 0 { // 10% enrolls keep every namespace growing
			w.seq++
			u := w.src.NewUser(fmt.Sprintf("mt-%x-w%d-%d", w.nonce, w.id, w.seq))
			return client.Enroll(u.ID, u.Template)
		}
		pop := w.mt.pops[ti]
		return w.identifyWith(client, pop[w.rng.Intn(len(pop))])
	case "noise":
		// An impostor probe: a fresh random vector, almost surely far from
		// every enrolled template, so the expected outcome is a miss.
		_, err := w.client.Identify(w.src.ImpostorReading())
		if err == nil {
			return nil // a false accept; counted as an op, visible server-side
		}
		if protocol.IsRejected(err) || errors.Is(err, protocol.ErrNoMatch) {
			return errMiss
		}
		return err
	case "nomatch":
		// The open-set worst case by name: a genuine-quality reading of a
		// user who was never enrolled. Unlike noise's raw random vectors,
		// the probe is drawn from the same template distribution as the
		// population, so the server runs its full reject path against
		// realistic in-distribution data — every row must be scanned (or
		// coarse-filtered away) before the probe can be refused.
		w.seq++
		ghost := w.src.NewUser(fmt.Sprintf("ghost-%x-w%d-%d", w.nonce, w.id, w.seq))
		reading, err := w.src.GenuineReading(ghost)
		if err != nil {
			return err
		}
		_, err = w.client.Identify(reading)
		if err == nil {
			return nil // a false accept; counted as an op, visible server-side
		}
		if protocol.IsRejected(err) || errors.Is(err, protocol.ErrNoMatch) {
			return errMiss
		}
		return err
	default:
		return fmt.Errorf("load: unknown scenario %q", scenario)
	}
}

// mtPick draws the next tenant index from the worker's RNG.
func mtPick(w *worker) int { return w.mt.pick(w.rng.Float64()) }

// opAging runs one step of the template-lifecycle loop on a worker-owned
// user: drift the user's biometric, attempt a verify with a genuine reading
// of the *drifted* biometric, and — when the drift has carried the reading
// out of the enrolled template's acceptance ball — re-enroll online through
// the atomic re-enroll protocol (the challenge is answered with the
// still-enrolled template; the harness plays the enrollment-grade recapture
// a real device would take) and confirm verification recovers against the
// freshly anchored template.
func (w *worker) opAging() error {
	if len(w.aging) == 0 {
		if len(w.churn) == 0 {
			return fmt.Errorf("load: worker %d owns no aging users (need users >= workers)", w.id)
		}
		for _, u := range w.churn {
			w.aging = append(w.aging, &agingUser{u: u, current: append(fuzzyid.Vector(nil), u.Template...)})
		}
	}
	au := w.aging[w.rng.Intn(len(w.aging))]
	drifted, err := w.src.Drift(au.current, w.driftStep)
	if err != nil {
		return err
	}
	au.current = drifted
	w.lc.driftSteps.Add(1)
	reading, err := w.src.GenuineReading(&biometric.User{ID: au.u.ID, Template: au.current})
	if err != nil {
		return err
	}
	err = w.client.Verify(au.u.ID, reading)
	if err == nil {
		return nil // not yet degraded
	}
	if !protocol.IsRejected(err) && !errors.Is(err, protocol.ErrNoMatch) {
		return err
	}
	// Degraded: the drifted reading no longer verifies against the enrolled
	// template. Re-enroll online, anchoring the stored template at the
	// current biometric, and confirm the very next reading verifies.
	w.lc.degraded.Add(1)
	if err := w.client.ReEnroll(au.u.ID, au.u.Template, au.current); err != nil {
		return fmt.Errorf("re-enroll %s: %w", au.u.ID, err)
	}
	w.lc.reenrolls.Add(1)
	au.u.Template = append(fuzzyid.Vector(nil), au.current...)
	recheck, err := w.src.GenuineReading(au.u)
	if err != nil {
		return err
	}
	if err := w.client.Verify(au.u.ID, recheck); err != nil {
		if protocol.IsRejected(err) || errors.Is(err, protocol.ErrNoMatch) {
			w.lc.recoveryFailures.Add(1)
			return errMiss
		}
		return err
	}
	w.lc.recovered.Add(1)
	return nil
}

// opOpenSet runs one probe of the mixed open-set workload: with probability
// openFrac a genuine-quality reading of a never-enrolled ghost (must be
// rejected; an identification is a false accept), otherwise a genuine
// reading of an enrolled user (must hit).
func (w *worker) opOpenSet() error {
	if w.rng.Float64() < w.openFrac {
		w.lc.ghostProbes.Add(1)
		w.seq++
		ghost := w.src.NewUser(fmt.Sprintf("ghost-%x-w%d-%d", w.nonce, w.id, w.seq))
		reading, err := w.src.GenuineReading(ghost)
		if err != nil {
			return err
		}
		_, err = w.client.Identify(reading)
		if err == nil {
			w.lc.falseAccepts.Add(1)
			return nil // counted in the report; the CI gate reads it
		}
		if protocol.IsRejected(err) || errors.Is(err, protocol.ErrNoMatch) {
			w.lc.ghostRejects.Add(1)
			return errMiss
		}
		return err
	}
	w.lc.genuineProbes.Add(1)
	u := w.pop[w.rng.Intn(len(w.pop))]
	err := w.identify(u)
	if err == nil {
		w.lc.genuineHits.Add(1)
	}
	return err
}

// opImposter runs one wrong-user verification: claim one enrolled identity
// with a genuine-quality reading of a different enrolled user. An accept is
// a false accept — §V bounds its probability by ((2t+1)/ka)^n per attempt.
func (w *worker) opImposter() error {
	a := w.pop[w.rng.Intn(len(w.pop))]
	b := w.pop[w.rng.Intn(len(w.pop))]
	for b == a {
		b = w.pop[w.rng.Intn(len(w.pop))]
	}
	reading, err := w.src.GenuineReading(a)
	if err != nil {
		return err
	}
	w.lc.imposterAttempts.Add(1)
	err = w.client.Verify(b.ID, reading)
	if err == nil {
		w.lc.imposterAccepts.Add(1)
		return nil // false accept; counted in the report
	}
	if protocol.IsRejected(err) || errors.Is(err, protocol.ErrNoMatch) {
		return errMiss
	}
	return err
}

func (w *worker) identify(u *biometric.User) error {
	return w.identifyWith(w.client, u)
}

// identifyWith runs one genuine-reading identification on the given client
// (the worker's primary client, or a tenant-bound one).
func (w *worker) identifyWith(client *fuzzyid.Client, u *biometric.User) error {
	reading, err := w.src.GenuineReading(u)
	if err != nil {
		return err
	}
	id, err := client.Identify(reading)
	if err != nil {
		if protocol.IsRejected(err) || errors.Is(err, protocol.ErrNoMatch) {
			return errMiss
		}
		return err
	}
	if id != u.ID {
		return errMiss
	}
	return nil
}

// drive connects the workers, enrolls the shared population, runs every
// scenario and assembles the report.
func drive(cfg config, scenarios []string, wantServerStats bool) (*report, error) {
	sys, err := fuzzyid.NewSystem(
		fuzzyid.Params{Line: fuzzyid.PaperLine(), Dimension: cfg.dim},
		fuzzyid.WithSignatureScheme(cfg.scheme),
		fuzzyid.WithExtractor(cfg.ext),
	)
	if err != nil {
		return nil, err
	}
	var clientOpts []fuzzyid.ClientOption
	if len(cfg.replicas) > 0 {
		clientOpts = append(clientOpts, fuzzyid.WithReplicas(cfg.replicas...))
	}
	if cfg.cluster {
		// Cluster routing, plus retries so the brief per-slot freeze during a
		// live split/move reads as latency, not errors.
		clientOpts = append(clientOpts, fuzzyid.WithCluster(), fuzzyid.WithOverloadRetry(8))
	}
	nonce := time.Now().UnixNano()
	driftStep := cfg.driftStep
	if driftStep == 0 {
		// A quarter-threshold walk degrades verification within a handful of
		// ops at any realistic dimension without teleporting the biometric.
		if driftStep = sys.Extractor().Line().Threshold() / 4; driftStep < 1 {
			driftStep = 1
		}
	}
	workers := make([]*worker, cfg.workers)
	for i := range workers {
		client, err := sys.Dial(cfg.addr, clientOpts...)
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		defer client.Close()
		// Worker seeds are spaced by 2^16 per -seed so two runs with
		// different seeds against the same server can never regenerate the
		// same template streams: a duplicate template enrolled under a new
		// ID would make identification legitimately ambiguous (the store
		// may return either twin) and read as a spurious miss.
		src, err := biometric.NewSource(sys.Extractor().Line(), biometric.Paper(cfg.dim), cfg.seed<<16+int64(i))
		if err != nil {
			return nil, err
		}
		workers[i] = &worker{
			id: i, client: client, src: src,
			rng:   rand.New(rand.NewSource(cfg.seed ^ int64(i)<<32)),
			nonce: nonce, batch: cfg.batch,
			driftStep: driftStep, openFrac: cfg.openFrac,
		}
	}
	pop, err := enrollPopulation(workers, cfg.users, nonce)
	if err != nil {
		return nil, err
	}
	var mt *mtState
	for _, name := range scenarios {
		if name == "multitenant" {
			// setupMultitenant binds the shared state onto every worker.
			if mt, err = setupMultitenant(sys, cfg, workers, clientOpts, nonce); err != nil {
				return nil, err
			}
			break
		}
	}
	if len(cfg.replicas) > 0 {
		// Measured traffic must run against caught-up followers, or misses
		// would reflect bootstrap timing rather than matching quality.
		if err := waitReplicasSynced(sys, cfg.replicas, 30*time.Second); err != nil {
			return nil, err
		}
	}
	for i, w := range workers {
		w.pop = pop
		// Stripe the population so each worker churns a disjoint slice.
		for j := i; j < len(pop); j += len(workers) {
			w.churn = append(w.churn, pop[j])
		}
	}
	rep := &report{
		Addr: cfg.addr, Replicas: cfg.replicas, Dim: cfg.dim, Workers: cfg.workers,
		DurationS: cfg.duration.Seconds(), Users: cfg.users, Seed: cfg.seed,
	}
	for _, name := range scenarios {
		var (
			res scenarioResult
			err error
		)
		if name == "noisy-neighbor" {
			res, err = runNoisyNeighbor(sys, cfg, clientOpts, workers[0].client, nonce)
		} else {
			res, err = runScenario(name, workers, cfg.duration)
		}
		if err != nil {
			return nil, err
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}
	for _, w := range workers {
		for _, c := range w.mtClients {
			c.Close()
		}
	}
	if mt != nil {
		// The scenario's namespaces are run-scoped: drop them so repeated
		// runs against a live server do not accumulate tenants (and, with
		// -data, WAL partitions). Best-effort — a severed connection at
		// this point must not fail an otherwise-complete report.
		for _, name := range mt.names {
			if err := workers[0].client.DropTenant(name); err != nil {
				fmt.Fprintf(os.Stderr, "fuzzyid-load: drop tenant %s: %v\n", name, err)
			}
		}
	}
	if wantServerStats {
		buf, err := workers[0].client.Stats()
		if err != nil {
			if protocol.IsRejected(err) {
				// The server answered but has no registry: say so plainly
				// instead of surfacing the raw rejection.
				return nil, fmt.Errorf("server stats: telemetry disabled on server %s — restart fuzzyid-server with -telemetry=true (or drop -server-stats)", cfg.addr)
			}
			return nil, fmt.Errorf("server stats: %w", err)
		}
		snap, err := fuzzyid.ParseStats(buf)
		if err != nil {
			return nil, fmt.Errorf("server stats: %w", err)
		}
		rep.ServerStats = snap
	}
	return rep, nil
}

// setupMultitenant creates cfg.tenants fresh namespaces (run-unique names,
// so repeated runs against a live server never collide), binds one
// tenant-scoped client per worker per namespace, and enrolls an
// independent cfg.users population into each.
func setupMultitenant(sys *fuzzyid.System, cfg config, workers []*worker, clientOpts []fuzzyid.ClientOption, nonce int64) (*mtState, error) {
	names := make([]string, cfg.tenants)
	for i := range names {
		names[i] = fmt.Sprintf("lt%x-%d", nonce, i)
		if err := workers[0].client.CreateTenant(names[i]); err != nil {
			return nil, fmt.Errorf("create tenant %s: %w", names[i], err)
		}
	}
	mt := newMTState(names)
	for _, w := range workers {
		w.mt = mt
		w.mtClients = make([]*fuzzyid.Client, len(names))
		for ti, name := range names {
			opts := append(append([]fuzzyid.ClientOption{}, clientOpts...), fuzzyid.WithTenant(name))
			client, err := sys.Dial(cfg.addr, opts...)
			if err != nil {
				return nil, fmt.Errorf("worker %d tenant %s: %w", w.id, name, err)
			}
			w.mtClients[ti] = client
		}
	}
	// Each namespace gets its own population: the same user index enrolls
	// different templates in different tenants, which is exactly what the
	// isolation tests assert the server keeps apart.
	for ti := range names {
		pop := make([]*biometric.User, cfg.users)
		var wg sync.WaitGroup
		errs := make([]error, len(workers))
		for wi, w := range workers {
			wg.Add(1)
			go func(wi int, w *worker) {
				defer wg.Done()
				for i := wi; i < cfg.users; i += len(workers) {
					u := w.src.NewUser(fmt.Sprintf("mtpop-%x-t%d-%04d", nonce, ti, i))
					if err := w.mtClients[ti].Enroll(u.ID, u.Template); err != nil {
						errs[wi] = fmt.Errorf("enroll tenant %s population %s: %w", names[ti], u.ID, err)
						return
					}
					pop[i] = u
				}
			}(wi, w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		mt.pops[ti] = pop
	}
	return mt, nil
}

// nnTenant is one namespace of the noisy-neighbor scenario: a stable role
// label for the report, the run-scoped namespace on the server, its
// population, one client per worker, and the per-tenant measurements.
type nnTenant struct {
	label   string // "victim-<i>" or "flood" — stable across runs
	name    string // run-scoped namespace actually created
	clients []*fuzzyid.Client
	srcs    []*biometric.Source
	rngs    []*rand.Rand
	pop     []*biometric.User

	hist   telemetry.Histogram
	ops    atomic.Uint64
	shed   atomic.Uint64
	misses atomic.Uint64
	fails  atomic.Uint64
}

// runNoisyNeighbor is the adversarial QoS scenario: cfg.tenants victim
// namespaces serving well-behaved closed-loop identify traffic while a
// flood namespace — throttled by a per-tenant override installed over the
// wire — hammers the server with cfg.floodWorkers spinning clients. Victim
// latency lands in per-tenant histograms, flood refusals are counted as
// sheds, and the namespaces are dropped when the run ends.
func runNoisyNeighbor(sys *fuzzyid.System, cfg config, clientOpts []fuzzyid.ClientOption, admin *fuzzyid.Client, nonce int64) (scenarioResult, error) {
	tenants := make([]*nnTenant, 0, cfg.tenants+1)
	for i := 0; i < cfg.tenants; i++ {
		tenants = append(tenants, &nnTenant{
			label: fmt.Sprintf("victim-%d", i),
			name:  fmt.Sprintf("nn%x-victim-%d", nonce, i),
		})
	}
	flood := &nnTenant{label: "flood", name: fmt.Sprintf("nn%x-flood", nonce)}
	tenants = append(tenants, flood)
	defer func() {
		// Run-scoped namespaces: drop them (best-effort) so repeated runs
		// against a live server do not accumulate tenants.
		for _, tn := range tenants {
			for _, c := range tn.clients {
				c.Close()
			}
			if err := admin.DropTenant(tn.name); err != nil {
				fmt.Fprintf(os.Stderr, "fuzzyid-load: drop tenant %s: %v\n", tn.name, err)
			}
		}
	}()
	for ti, tn := range tenants {
		if err := admin.CreateTenant(tn.name); err != nil {
			return scenarioResult{}, fmt.Errorf("create tenant %s: %w", tn.name, err)
		}
		n := cfg.workers
		if tn == flood {
			n = cfg.floodWorkers
		}
		for wi := 0; wi < n; wi++ {
			opts := append(append([]fuzzyid.ClientOption{}, clientOpts...), fuzzyid.WithTenant(tn.name))
			client, err := sys.Dial(cfg.addr, opts...)
			if err != nil {
				return scenarioResult{}, fmt.Errorf("tenant %s worker %d: %w", tn.label, wi, err)
			}
			tn.clients = append(tn.clients, client)
			// Distinct seed stream per (tenant, worker), spaced like the
			// main harness so reruns never regenerate twin templates.
			src, err := biometric.NewSource(sys.Extractor().Line(), biometric.Paper(cfg.dim),
				cfg.seed<<16+int64(ti)<<8+int64(wi)+7777)
			if err != nil {
				return scenarioResult{}, err
			}
			tn.srcs = append(tn.srcs, src)
			tn.rngs = append(tn.rngs, rand.New(rand.NewSource(cfg.seed^int64(ti)<<24^int64(wi)<<32)))
		}
		// Enroll this namespace's population BEFORE any override lands, so
		// setup is never throttled.
		tn.pop = make([]*biometric.User, cfg.users)
		for i := range tn.pop {
			wi := i % len(tn.clients)
			u := tn.srcs[wi].NewUser(fmt.Sprintf("nn-%x-%s-%04d", nonce, tn.label, i))
			if err := tn.clients[wi].Enroll(u.ID, u.Template); err != nil {
				return scenarioResult{}, fmt.Errorf("enroll %s population: %w", tn.label, err)
			}
			tn.pop[i] = u
		}
	}
	if cfg.floodRate > 0 {
		limits := fuzzyid.QoSLimits{Rate: cfg.floodRate, Burst: cfg.floodBurst}
		if err := admin.SetTenantLimits(flood.name, limits); err != nil {
			if fuzzyid.IsRejected(err) {
				// The server runs without admission control (-qos=false):
				// the A/B half of the CI degradation check. The flood runs
				// unthrottled and nothing sheds.
				fmt.Fprintln(os.Stderr, "fuzzyid-load: admission control disabled on the server; flood runs unthrottled")
			} else {
				return scenarioResult{}, fmt.Errorf("set flood limits: %w", err)
			}
		}
	}
	var (
		victimHist telemetry.Histogram // scenario-level latency = victims only
		errMu      sync.Mutex
		firstErr   error
	)
	start := time.Now()
	deadline := start.Add(cfg.duration)
	var wg sync.WaitGroup
	for _, tn := range tenants {
		for wi := range tn.clients {
			wg.Add(1)
			go func(tn *nnTenant, wi int) {
				defer wg.Done()
				client, src, rng := tn.clients[wi], tn.srcs[wi], tn.rngs[wi]
				for time.Now().Before(deadline) {
					u := tn.pop[rng.Intn(len(tn.pop))]
					reading, err := src.GenuineReading(u)
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						tn.fails.Add(1)
						return
					}
					opStart := time.Now()
					id, err := client.Identify(reading)
					elapsed := time.Since(opStart)
					tn.hist.Observe(elapsed)
					if tn.label != "flood" {
						victimHist.Observe(elapsed)
					}
					tn.ops.Add(1)
					switch {
					case err == nil:
						if id != u.ID {
							tn.misses.Add(1)
						}
					case protocol.IsRejected(err) || errors.Is(err, protocol.ErrNoMatch):
						tn.misses.Add(1)
					default:
						if _, overloaded := fuzzyid.IsOverloaded(err); overloaded {
							tn.shed.Add(1)
							continue // the expected outcome for the flood
						}
						tn.fails.Add(1)
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
				}
			}(tn, wi)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := scenarioResult{Scenario: "noisy-neighbor", Seconds: elapsed.Seconds(), Latency: victimHist.Snapshot()}
	for _, tn := range tenants {
		res.Ops += tn.ops.Load()
		res.Errors += tn.fails.Load()
		res.Misses += tn.misses.Load()
		snap := tn.hist.Snapshot()
		tr := tenantResult{
			Tenant: tn.label, Namespace: tn.name,
			Ops: tn.ops.Load(), Shed: tn.shed.Load(), Latency: &snap,
		}
		if res.Seconds > 0 {
			tr.ThroughputOpsS = float64(tr.Ops) / res.Seconds
		}
		res.Tenants = append(res.Tenants, tr)
	}
	if res.Seconds > 0 {
		res.ThroughputOpsS = float64(res.Ops) / res.Seconds
	}
	if firstErr != nil {
		return res, fmt.Errorf("scenario noisy-neighbor: %w", firstErr)
	}
	return res, nil
}

// waitReplicasSynced polls every replica's replication status until it
// reports a live stream with zero lag, so the scenarios run against
// caught-up followers.
func waitReplicasSynced(sys *fuzzyid.System, replicas []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, addr := range replicas {
		probe, err := sys.Dial(addr)
		if err != nil {
			return fmt.Errorf("replica %s: %w", addr, err)
		}
		for {
			st, err := probe.ReplStatus()
			if err == nil && st.Role == "replica" && st.Connected && st.Lag == 0 && st.Applied > 0 {
				break
			}
			if err == nil && st.Role != "replica" {
				probe.Close()
				return fmt.Errorf("replica %s reports role %q (is -replicas pointing at a follower?)", addr, st.Role)
			}
			if time.Now().After(deadline) {
				probe.Close()
				if err != nil {
					return fmt.Errorf("replica %s did not sync: %w", addr, err)
				}
				return fmt.Errorf("replica %s did not sync: lag %d, connected %v", addr, st.Lag, st.Connected)
			}
			time.Sleep(50 * time.Millisecond)
		}
		probe.Close()
	}
	return nil
}

// enrollPopulation enrolls the shared user set, fanned out over the workers.
func enrollPopulation(workers []*worker, n int, nonce int64) ([]*biometric.User, error) {
	pop := make([]*biometric.User, n)
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for wi, w := range workers {
		wg.Add(1)
		go func(wi int, w *worker) {
			defer wg.Done()
			for i := wi; i < n; i += len(workers) {
				u := w.src.NewUser(fmt.Sprintf("pop-%x-%04d", nonce, i))
				if err := w.client.Enroll(u.ID, u.Template); err != nil {
					errs[wi] = fmt.Errorf("enroll population %s: %w", u.ID, err)
					return
				}
				pop[i] = u
			}
		}(wi, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pop, nil
}

// runScenario runs one scenario closed-loop on every worker for the
// wall-clock budget and folds the measurements into one result. Latencies
// go through the same histogram code the server exports, so the two sides
// are comparable bucket for bucket.
func runScenario(name string, workers []*worker, d time.Duration) (scenarioResult, error) {
	var (
		hist     telemetry.Histogram
		ops      atomic.Uint64
		misses   atomic.Uint64
		fails    atomic.Uint64
		perOps   = make([]atomic.Uint64, len(workers))
		errMu    sync.Mutex
		firstErr error // first hard error, for the report
	)
	// mass-enroll reports how well the server amortized fsyncs over the
	// scenario window, from the WAL counter deltas. Best-effort: servers
	// without -telemetry (or without -data) simply omit the field.
	var preAppends, preFsyncs uint64
	statsOK := false
	if name == "mass-enroll" && len(workers) > 0 {
		preAppends, preFsyncs, statsOK = walStats(workers[0].client)
	}
	// The lifecycle scenarios share one fresh counter block per run, so
	// repeating a scenario in one invocation never double-counts, and aging
	// re-derives its drifted population from the current templates.
	var lc *lifecycleState
	if name == "open-set" || name == "aging" || name == "imposter" {
		lc = &lifecycleState{}
		for _, w := range workers {
			w.lc = lc
			w.aging = nil
		}
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for wi, w := range workers {
		wg.Add(1)
		go func(wi int, w *worker) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				opStart := time.Now()
				err := w.op(name)
				hist.Observe(time.Since(opStart))
				ops.Add(1)
				perOps[wi].Add(1)
				switch {
				case err == nil:
				case errors.Is(err, errMiss):
					misses.Add(1)
				default:
					fails.Add(1)
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return // a broken connection would only spin; stop this worker
				}
			}
		}(wi, w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := scenarioResult{
		Scenario: name,
		Ops:      ops.Load(),
		Errors:   fails.Load(),
		Misses:   misses.Load(),
		Seconds:  elapsed.Seconds(),
		Latency:  hist.Snapshot(),
	}
	if res.Seconds > 0 {
		res.ThroughputOpsS = float64(res.Ops) / res.Seconds
	}
	if name == "mass-enroll" {
		res.PerWorkerOpsS = make([]float64, len(workers))
		if res.Seconds > 0 {
			for wi := range perOps {
				res.PerWorkerOpsS[wi] = float64(perOps[wi].Load()) / res.Seconds
			}
		}
		if statsOK {
			if appends, fsyncs, ok := walStats(workers[0].client); ok && fsyncs > preFsyncs {
				res.FsyncAmortization = float64(appends-preAppends) / float64(fsyncs-preFsyncs)
			}
		}
	}
	switch name {
	case "open-set":
		res.OpenSet = &openSetStats{
			GhostProbes:   lc.ghostProbes.Load(),
			GhostRejects:  lc.ghostRejects.Load(),
			FalseAccepts:  lc.falseAccepts.Load(),
			GenuineProbes: lc.genuineProbes.Load(),
			GenuineHits:   lc.genuineHits.Load(),
		}
	case "aging":
		res.Aging = &agingStats{
			DriftSteps:        lc.driftSteps.Load(),
			DegradedVerifies:  lc.degraded.Load(),
			ReEnrolls:         lc.reenrolls.Load(),
			RecoveredVerifies: lc.recovered.Load(),
			RecoveryFailures:  lc.recoveryFailures.Load(),
		}
	case "imposter":
		res.Imposter = &imposterStats{
			Attempts:     lc.imposterAttempts.Load(),
			FalseAccepts: lc.imposterAccepts.Load(),
		}
	}
	if name == "multitenant" && len(workers) > 0 && workers[0].mt != nil {
		mt := workers[0].mt
		for ti, tname := range mt.names {
			tr := tenantResult{Tenant: tname, Ops: mt.ops[ti].Load()}
			if res.Seconds > 0 {
				tr.ThroughputOpsS = float64(tr.Ops) / res.Seconds
			}
			res.Tenants = append(res.Tenants, tr)
		}
	}
	if firstErr != nil && res.Ops == res.Errors {
		// Every op failed: surface the cause instead of reporting zeros.
		return res, fmt.Errorf("scenario %s: all ops failed: %w", name, firstErr)
	}
	return res, nil
}

// walStats fetches the server's WAL append and fsync counters via a native
// stats session. ok is false when the server runs without telemetry or the
// session fails — callers treat that as "no amortization data", not an error.
func walStats(c *fuzzyid.Client) (appends, fsyncs uint64, ok bool) {
	buf, err := c.Stats()
	if err != nil {
		return 0, 0, false
	}
	snap, err := fuzzyid.ParseStats(buf)
	if err != nil {
		return 0, 0, false
	}
	return snap.Counter("persist.wal.appends"), snap.Counter("persist.wal.fsyncs"), true
}

func writeText(w io.Writer, rep *report) error {
	fmt.Fprintf(w, "fuzzyid-load: %s (dim=%d, %d workers, %d users, %.1fs per scenario)\n",
		rep.Addr, rep.Dim, rep.Workers, rep.Users, rep.DurationS)
	if len(rep.Replicas) > 0 {
		fmt.Fprintf(w, "read fan-out: %s\n", strings.Join(rep.Replicas, ", "))
	}
	fmt.Fprintf(w, "%-10s %10s %8s %8s %12s %10s %10s %10s\n",
		"scenario", "ops", "errors", "misses", "ops/s", "p50 ms", "p95 ms", "p99 ms")
	for _, s := range rep.Scenarios {
		fmt.Fprintf(w, "%-10s %10d %8d %8d %12.1f %10.3f %10.3f %10.3f\n",
			s.Scenario, s.Ops, s.Errors, s.Misses, s.ThroughputOpsS,
			s.Latency.P50MS, s.Latency.P95MS, s.Latency.P99MS)
		for _, tr := range s.Tenants {
			fmt.Fprintf(w, "  tenant %-20s %10d ops %12.1f ops/s",
				tr.Tenant, tr.Ops, tr.ThroughputOpsS)
			if tr.Shed > 0 {
				fmt.Fprintf(w, " %10d shed", tr.Shed)
			}
			if tr.Latency != nil {
				fmt.Fprintf(w, "   p99 %.3fms", tr.Latency.P99MS)
			}
			fmt.Fprintln(w)
		}
		if len(s.PerWorkerOpsS) > 0 {
			lo, hi := s.PerWorkerOpsS[0], s.PerWorkerOpsS[0]
			for _, v := range s.PerWorkerOpsS[1:] {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			fmt.Fprintf(w, "  per-worker durable enrolls/s: min %.1f, max %.1f\n", lo, hi)
		}
		if s.FsyncAmortization > 0 {
			fmt.Fprintf(w, "  fsync amortization: %.1f appends/fsync\n", s.FsyncAmortization)
		}
		if s.OpenSet != nil {
			fmt.Fprintf(w, "  open-set: %d ghost probes (%d rejected, %d FALSE ACCEPTS), %d genuine probes (%d hits)\n",
				s.OpenSet.GhostProbes, s.OpenSet.GhostRejects, s.OpenSet.FalseAccepts,
				s.OpenSet.GenuineProbes, s.OpenSet.GenuineHits)
		}
		if s.Aging != nil {
			fmt.Fprintf(w, "  aging: %d drift steps, %d degraded verifies, %d re-enrolls, %d recovered, %d RECOVERY FAILURES\n",
				s.Aging.DriftSteps, s.Aging.DegradedVerifies, s.Aging.ReEnrolls,
				s.Aging.RecoveredVerifies, s.Aging.RecoveryFailures)
		}
		if s.Imposter != nil {
			fmt.Fprintf(w, "  imposter: %d wrong-user attempts, %d FALSE ACCEPTS\n",
				s.Imposter.Attempts, s.Imposter.FalseAccepts)
		}
	}
	if rep.ServerStats != nil {
		fmt.Fprintf(w, "server: %d conns accepted, %d bytes in, %d bytes out\n",
			rep.ServerStats.Counter("transport.conns.accepted"),
			rep.ServerStats.Counter("transport.bytes.in"),
			rep.ServerStats.Counter("transport.bytes.out"))
	}
	if rep.Macro != nil {
		fmt.Fprintf(w, "macro: peak RSS %.1f MiB, GC pause %.2f ms over %d cycles, heap %.1f MiB live\n",
			float64(rep.Macro.PeakRSSBytes)/(1<<20), rep.Macro.GCPauseTotalMS,
			rep.Macro.GCCycles, float64(rep.Macro.HeapAllocBytes)/(1<<20))
	}
	return nil
}

// runCompare is the gate mode: fail (with one line per violation) when the
// candidate report's p99 latencies or peak RSS regress past the threshold
// against the baseline.
func runCompare(stdout io.Writer, basePath, candPath string, threshold, minMS float64) error {
	base, err := macrobench.ReadReport(basePath)
	if err != nil {
		return err
	}
	cand, err := macrobench.ReadReport(candPath)
	if err != nil {
		return err
	}
	violations := macrobench.Compare(base, cand, threshold, minMS)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(stdout, "REGRESSION:", v)
		}
		return fmt.Errorf("%d macro-bench regression(s) beyond %.0f%%", len(violations), threshold*100)
	}
	fmt.Fprintf(stdout, "macro-bench gate passed: %d scenario(s) within %.0f%% of baseline\n",
		len(cand.Scenarios), threshold*100)
	return nil
}
