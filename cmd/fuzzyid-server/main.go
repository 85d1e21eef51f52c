// Command fuzzyid-server runs the authentication server (AS) of §V over
// TCP. It accepts enrollment, verification and identification sessions from
// fuzzyid-client (or any implementation of the wire protocol).
//
//	fuzzyid-server -addr 127.0.0.1:7700 -dim 512 -shards 8
//
// With -data the enrollment database is durable: mutations are written to a
// WAL under the directory before they are acknowledged, the database is
// recovered from the newest snapshot plus the WAL tail on boot, and the log
// is compacted every -snapshot-interval and on graceful shutdown.
//
//	fuzzyid-server -addr 127.0.0.1:7700 -data /var/lib/fuzzyid
//
// Telemetry is on by default (lock-free counters and histograms; see
// DESIGN.md §7). -stats-addr additionally serves the JSON snapshot over
// HTTP for scrapers:
//
//	fuzzyid-server -addr 127.0.0.1:7700 -stats-addr 127.0.0.1:7701
//	curl http://127.0.0.1:7701/stats
//
// The same address serves the Go profiler under /debug/pprof/:
//
//	go tool pprof http://127.0.0.1:7701/debug/pprof/profile?seconds=30
//
// Read scaling (DESIGN.md §8, OPERATIONS.md): -serve-replication makes the
// server a primary that streams its mutation log to followers, and
// -replica-of starts a read-only follower that bootstraps from the
// primary's snapshot and then tails the stream. Followers serve identify,
// verify and stats locally and redirect enroll/revoke to the primary.
//
//	fuzzyid-server -addr 127.0.0.1:7700 -data /var/lib/fuzzyid -serve-replication
//	fuzzyid-server -addr 127.0.0.1:7710 -replica-of 127.0.0.1:7700
//
// Multi-tenancy (DESIGN.md §9): the server always hosts the "default"
// tenant; named tenants — independent identification populations sharing
// the process — are created at runtime ("fuzzyid-client tenant create
// -name myapp") and, with -data, recovered from their per-tenant
// partitions under <data>/tenants/ on boot. Clients select a namespace per
// connection (-tenant on fuzzyid-client), and a replicating primary
// streams every tenant to its followers.
//
// Clustering (DESIGN.md §14, OPERATIONS.md): -cluster shards the user
// keyspace across several partition primaries; every node of the cluster is
// started with the same spec, and -advertise names this node within it
// (default -addr). Keyed sessions for other partitions are redirected with a
// versioned cluster map; fuzzyid-client routes automatically with -cluster.
//
//	fuzzyid-server -addr 127.0.0.1:7700 -cluster '127.0.0.1:7700;127.0.0.1:7710'
//	fuzzyid-server -addr 127.0.0.1:7710 -cluster '127.0.0.1:7700;127.0.0.1:7710'
//
// Overload protection (DESIGN.md §12, OPERATIONS.md §8): per-tenant
// admission control is on by default — identification scans are scheduled
// weighted-fair across tenants and sessions beyond a tenant's envelope are
// shed with a typed, retryable overload error instead of degrading
// everyone. Tune the default envelope with -qos-rate/-qos-burst/
// -qos-concurrency/-qos-weight, the queueing bound with -qos-budget, the
// scan pool with -qos-scan-slots, and install per-tenant overrides at
// runtime with "fuzzyid-client tenant limits". -qos=false disables it all.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fuzzyid"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fuzzyid-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	p, err := setup(args)
	if err != nil {
		return err
	}
	stopSnap := make(chan struct{})
	snapDone := make(chan struct{})
	close(snapDone)
	if p.sys.Persistent() && p.snapIvl > 0 {
		snapDone = make(chan struct{})
		go snapshotLoop(p.sys, p.snapIvl, stopSnap, snapDone)
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	<-sigCh
	fmt.Println("shutting down")
	// Stop the snapshot loop and wait for an in-flight compaction to
	// finish before Close: a snapshot racing the shutdown flush would
	// trip over the closed journal.
	close(stopSnap)
	<-snapDone
	return p.Close()
}

// snapshotLoop compacts the persistence log periodically until stop closes,
// then closes done.
func snapshotLoop(sys *fuzzyid.System, interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if err := sys.Snapshot(); err != nil {
				fmt.Fprintln(os.Stderr, "fuzzyid-server: snapshot:", err)
			}
		}
	}
}

// proc is a fully started server process: the protocol listener, the system
// behind it, and (optionally) the HTTP stats endpoint.
type proc struct {
	srv     *fuzzyid.Server
	sys     *fuzzyid.System
	snapIvl time.Duration
	stats   *http.Server
	statsLn net.Listener
}

// StatsAddr returns the HTTP stats endpoint address ("" without -stats-addr).
func (p *proc) StatsAddr() string {
	if p.statsLn == nil {
		return ""
	}
	return p.statsLn.Addr().String()
}

// Close shuts the stats endpoint, then the protocol server (which drains
// sessions and flushes persistence through its attached closer).
func (p *proc) Close() error {
	var errs []error
	if p.stats != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := p.stats.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		cancel()
	}
	if err := p.srv.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// setup parses flags, builds the system and starts listening. Split from
// run so tests can exercise everything except the signal wait.
func setup(args []string) (*proc, error) {
	fs := flag.NewFlagSet("fuzzyid-server", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7700", "listen address")
		dim       = fs.Int("dim", 512, "feature-vector dimension n (0 = accept any)")
		scheme    = fs.String("scheme", "ed25519", "signature scheme: ed25519 or ecdsa-p256")
		ext       = fs.String("extractor", "hmac-sha256", "strong extractor: sha256, hmac-sha256 or toeplitz")
		shards    = fs.Int("shards", 0, "store shard count (0 = scheduler parallelism)")
		data      = fs.String("data", "", "persistence directory (empty = in-memory only)")
		syncPol   = fs.String("sync", "always", "WAL durability with -data: always (fsync before ack; survives power loss) or os (kernel flush per append; survives SIGKILL only)")
		groupWin  = fs.Duration("group-window", -1, "group-commit leader linger with -data -sync=always: how long one fsync waits to absorb concurrent enrolls (negative = default 2ms, 0 = sync immediately but still batch)")
		snapIvl   = fs.Duration("snapshot-interval", 5*time.Minute, "WAL compaction interval with -data (0 = only on shutdown)")
		maxConns  = fs.Int("maxconns", 0, "refuse connections past this concurrent cap (0 = unbounded)")
		telemetry = fs.Bool("telemetry", true, "collect operation counters and latency histograms")
		statsAddr = fs.String("stats-addr", "", "serve the telemetry JSON snapshot over HTTP on this address (requires -telemetry)")
		serveRepl = fs.Bool("serve-replication", false, "act as a replication primary: stream the mutation log to followers")
		replicaOf = fs.String("replica-of", "", "act as a read-only follower of the primary at this address")
		clSpec    = fs.String("cluster", "", "keyspace-sharded cluster spec: partition groups separated by ';', each 'primary,replica,...'; this node is named by -advertise")
		advertise = fs.String("advertise", "", "this node's address as it appears in -cluster (defaults to -addr)")

		qosOn     = fs.Bool("qos", true, "per-tenant admission control: fair scan scheduling, bounded queues, typed retryable overload sheds")
		qosRate   = fs.Float64("qos-rate", 0, "default sustained sessions/second per tenant (0 = unlimited)")
		qosBurst  = fs.Int("qos-burst", 0, "default back-to-back session allowance before -qos-rate bites (0 = one second of credit)")
		qosConc   = fs.Int("qos-concurrency", 0, "default cap on in-flight sessions per tenant (0 = unlimited)")
		qosWeight = fs.Int("qos-weight", 1, "default tenant weight in the identification scan pool")
		qosBudget = fs.Duration("qos-budget", 0, "how long an admitted-but-queued session may wait before it is shed (0 = default 500ms)")
		qosSlots  = fs.Int("qos-scan-slots", 0, "identification scan pool size scheduled weighted-fair across tenants (0 = 2x parallelism, negative = ungated)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *statsAddr != "" && !*telemetry {
		return nil, errors.New("-stats-addr requires -telemetry=true")
	}
	if *replicaOf != "" && *data != "" {
		return nil, errors.New("-replica-of is incompatible with -data (followers bootstrap from the primary's snapshot)")
	}
	if *replicaOf != "" && *serveRepl {
		return nil, errors.New("-replica-of is incompatible with -serve-replication (chained replication is not supported)")
	}
	opts := []fuzzyid.Option{
		fuzzyid.WithSignatureScheme(*scheme),
		fuzzyid.WithExtractor(*ext),
		fuzzyid.WithShards(*shards),
	}
	if *telemetry {
		opts = append(opts, fuzzyid.WithTelemetry())
	}
	if *data != "" {
		opts = append(opts, fuzzyid.WithPersistence(*data))
	}
	switch *syncPol {
	case "always":
	case "os":
		opts = append(opts, fuzzyid.WithRelaxedSync())
	default:
		return nil, fmt.Errorf("-sync=%s: want always or os", *syncPol)
	}
	if *groupWin >= 0 {
		opts = append(opts, fuzzyid.WithGroupWindow(*groupWin))
	}
	if *serveRepl {
		opts = append(opts, fuzzyid.WithReplication())
	}
	if *replicaOf != "" {
		opts = append(opts, fuzzyid.WithReplicaOf(*replicaOf))
	}
	if *clSpec != "" {
		self := *advertise
		if self == "" {
			self = *addr
		}
		opts = append(opts, fuzzyid.WithClusterNode(self, *clSpec))
	}
	if *qosOn {
		opts = append(opts, fuzzyid.WithQoS(fuzzyid.QoSLimits{
			Rate:          *qosRate,
			Burst:         *qosBurst,
			MaxConcurrent: *qosConc,
			Weight:        *qosWeight,
		}))
		if *qosBudget > 0 {
			opts = append(opts, fuzzyid.WithQoSBudget(*qosBudget))
		}
		if *qosSlots != 0 {
			opts = append(opts, fuzzyid.WithScanSlots(*qosSlots))
		}
	}
	sys, err := fuzzyid.NewSystem(fuzzyid.Params{Line: fuzzyid.PaperLine(), Dimension: *dim}, opts...)
	if err != nil {
		return nil, err
	}
	var srvOpts []fuzzyid.ServerOption
	if *maxConns > 0 {
		srvOpts = append(srvOpts, fuzzyid.WithMaxConns(*maxConns))
	}
	srv, err := sys.Listen(*addr, srvOpts...)
	if err != nil {
		sys.Close()
		return nil, err
	}
	p := &proc{srv: srv, sys: sys, snapIvl: *snapIvl}
	if *statsAddr != "" {
		if err := p.serveStats(*statsAddr); err != nil {
			srv.Close()
			return nil, err
		}
	}
	fmt.Printf("fuzzyid-server listening on %s (dim=%d, scheme=%s)\n", srv.Addr(), *dim, *scheme)
	if *data != "" {
		fmt.Printf("persistence: %s (%d records recovered, sync=%s)\n", *data, sys.Enrolled(), *syncPol)
	}
	if tenants := sys.Tenants(); len(tenants) > 1 {
		fmt.Printf("tenants: %d (%s)\n", len(tenants), strings.Join(tenants, ", "))
	}
	if *qosOn {
		fmt.Printf("qos: admission control on (rate=%g/s burst=%d concurrency=%d weight=%d)\n",
			*qosRate, *qosBurst, *qosConc, *qosWeight)
	} else {
		fmt.Println("qos: admission control off (-qos=false; no overload protection)")
	}
	if sys.Replicating() {
		fmt.Println("replication: primary (streaming the mutation log to followers)")
	}
	if self, slots, ok := sys.ClusterSelf(); ok {
		fmt.Printf("cluster: partition primary %s owning %d slot(s)\n", self, len(slots))
	}
	if primary, ok := sys.Replica(); ok {
		fmt.Printf("replication: read-only follower of %s (enroll/revoke redirect there)\n", primary)
	}
	if a := p.StatsAddr(); a != "" {
		fmt.Printf("stats: http://%s/stats\n", a)
	}
	if *dim > 0 {
		rep := sys.Report(*dim)
		fmt.Printf("security: m=%.0f bits, m~=%.0f bits, storage=%.0f bits, log2 Pr[false close]=%.0f\n",
			rep.MinEntropyBits, rep.ResidualEntropyBits, rep.SketchStorageBits, rep.FalseCloseExponent)
	}
	return p, nil
}

// serveStats starts the HTTP stats endpoint: GET /stats (and /metrics, for
// scrapers that expect that path) returns the telemetry snapshot as JSON,
// and /debug/pprof/ serves the Go runtime profiles.
func (p *proc) serveStats(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("stats listen: %w", err)
	}
	handler := func(w http.ResponseWriter, r *http.Request) {
		buf, err := p.sys.StatsJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", handler)
	mux.HandleFunc("/metrics", handler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	p.statsLn = ln
	p.stats = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := p.stats.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "fuzzyid-server: stats endpoint:", err)
		}
	}()
	return nil
}
