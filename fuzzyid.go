// Package fuzzyid is the public API of this reproduction of "Fuzzy
// Extractors for Biometric Identification" (Li, Nepal, Guo, Mu, Susilo —
// IEEE ICDCS 2017).
//
// The paper contributes a succinct fuzzy extractor over the Chebyshev
// (maximum-norm) metric whose helper data doubles as a database search key,
// enabling biometric *identification* (1-to-N) with cryptographic cost that
// is constant in the number of enrolled users, alongside the classical
// verification (1-to-1) mode.
//
// Three layers are exposed:
//
//   - The fuzzy extractor itself: NewExtractor, (*Extractor).Gen /
//     (*Extractor).Rep — key generation from noisy vectors (§IV).
//   - The protocol system: NewSystem bundles the extractor with a signature
//     scheme and a record store and exposes the enrollment, verification
//     and identification protocols of §V over TCP (Listen / Dial) or
//     in-memory pipes (LocalClient).
//   - The substrates, importable directly from internal/... by code inside
//     this module: secure sketches, strong extractors, the
//     synthetic biometric source and the experiment harness.
//
// Quick start:
//
//	sys, _ := fuzzyid.NewSystem(fuzzyid.Params{Line: fuzzyid.PaperLine(), Dimension: 512})
//	client, stop := sys.LocalClient()
//	defer stop()
//	_ = client.Enroll("alice", aliceTemplate)
//	id, _ := client.Identify(aliceNoisyReading) // "alice", O(1) crypto cost
package fuzzyid

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"fuzzyid/internal/cluster"
	"fuzzyid/internal/core"
	"fuzzyid/internal/extract"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/persist"
	"fuzzyid/internal/protocol"
	"fuzzyid/internal/qos"
	"fuzzyid/internal/replica"
	"fuzzyid/internal/sigscheme"
	"fuzzyid/internal/store"
	"fuzzyid/internal/telemetry"
	"fuzzyid/internal/transport"
	"fuzzyid/internal/wire"
)

// Re-exported core types. The aliases make the public API self-contained
// without duplicating documentation; see the aliased packages for details.
type (
	// Vector is an n-dimensional biometric template with every coordinate
	// on the number line.
	Vector = numberline.Vector
	// LineParams are the number-line parameters (a, k, v, t) of
	// Definition 4.
	LineParams = numberline.Params
	// Params configures a fuzzy extractor.
	Params = core.Params
	// HelperData is the public value P = (s, r) output by Gen.
	HelperData = core.HelperData
	// SecurityReport is the Theorem 3 entropy accounting.
	SecurityReport = core.SecurityReport
	// Extractor is the succinct fuzzy extractor (Gen/Rep).
	Extractor = core.FuzzyExtractor
	// Client drives the device side of the protocols over a connection.
	Client = transport.Client
	// Server is a running TCP authentication server.
	Server = transport.Server
	// Record is one enrolled entry (ID, pk, P) in the server store.
	Record = store.Record
	// ServerOption configures a Server started with Listen (connection
	// caps, idle timeouts; see WithMaxConns).
	ServerOption = transport.ServerOption
	// ClientOption configures a Client returned by Dial (timeouts, replica
	// fan-out; see WithReplicas).
	ClientOption = transport.ClientOption
	// ReplStatus is a server's replication role and progress, as answered
	// by Client.ReplStatus.
	ReplStatus = transport.ReplStatus
	// Metrics is the telemetry registry of a system built WithTelemetry:
	// counters, gauges and latency histograms for the transport, protocol
	// and persistence layers, exportable as one JSON snapshot.
	Metrics = telemetry.Registry
	// StatsSnapshot is one exported view of a Metrics registry.
	StatsSnapshot = telemetry.Snapshot
	// QoSLimits is one tenant's admission-control envelope: sustained
	// session rate, burst allowance, concurrency cap and scan-pool weight.
	// A zero field means "no limit" (weight 0 is treated as 1).
	QoSLimits = qos.Limits
)

// ParseStats decodes a stats JSON document (from StatsJSON or the
// -stats-addr endpoint) into a typed snapshot.
func ParseStats(buf []byte) (*StatsSnapshot, error) { return telemetry.ParseSnapshot(buf) }

// NewMetrics returns an empty telemetry registry — the receptacle for
// client-side instruments (see WithClientTelemetry); server-side systems
// get theirs implicitly via WithTelemetry.
func NewMetrics() *Metrics { return telemetry.NewRegistry() }

// WithMaxConns bounds the number of concurrently served connections on a
// Server; connections past the cap are refused at accept time. Zero means
// unbounded.
func WithMaxConns(n int) ServerOption { return transport.WithMaxConns(n) }

// WithReplicas names a dialed Client's followers: the client routes by a
// one-group map of the dialed primary and these replicas. Identifications
// rotate round-robin across healthy replicas; enrollments, revocations,
// re-enrollments and verifications go to the primary. A replica
// whose stream is down, that is more than 1024 mutations behind its primary
// (transport.DefaultMaxReplicaLag, a fixed bound), or that fails at the
// transport level is skipped, and identifications fall back to the primary
// when no replica is usable.
func WithReplicas(addrs ...string) ClientOption { return transport.WithReplicas(addrs...) }

// WithClientTelemetry binds a dialed Client's read-path instruments
// (per-replica lag/health gauges, failover counter) to reg.
func WithClientTelemetry(reg *Metrics) ClientOption { return transport.WithClientTelemetry(reg) }

// IsNotPrimary reports whether err is a read-only replica's refusal of a
// mutation (enroll or revoke); if so it also returns the primary's address,
// so the caller can redirect.
func IsNotPrimary(err error) (primary string, ok bool) { return protocol.IsNotPrimary(err) }

// WithTenant binds every protocol session of a dialed Client (or a
// LocalClient) to the named tenant namespace; the empty name selects the
// default tenant. Operations against a namespace the server does not host
// fail with a typed error (IsUnknownTenant).
func WithTenant(name string) ClientOption { return transport.WithTenant(name) }

// IsUnknownTenant reports whether err is a server's refusal of an operation
// that named a tenant namespace it does not host; if so it also returns the
// tenant name, so callers can create the tenant or fix the name instead of
// treating the failure as opaque.
func IsUnknownTenant(err error) (tenant string, ok bool) { return protocol.IsUnknownTenant(err) }

// DefaultTenant is the namespace every system hosts and that untenanted
// clients (and pre-tenant data directories) map onto.
const DefaultTenant = store.DefaultTenant

// PaperLine returns the number line of the paper's Table II:
// a=100, k=4, v=500, t=100, range (-100000, 100000].
func PaperLine() LineParams { return numberline.PaperParams() }

// PaperParams returns the full Table II extractor configuration (n=5000).
func PaperParams() Params { return core.PaperParams() }

// NewExtractor constructs the succinct fuzzy extractor.
func NewExtractor(p Params) (*Extractor, error) { return core.New(p) }

// IsRejected reports whether a protocol error is a rejection (the ⊥
// outcome) rather than a transport failure.
func IsRejected(err error) bool { return protocol.IsRejected(err) }

// IsOverloaded reports whether err is an admission-control shed — the
// server refused to run the session because the tenant's rate, concurrency
// or scan-queue budget was exhausted. The condition is transient: retryAfter
// is the server's hint for when a retry is worth attempting (see
// WithOverloadRetry for clients that should retry automatically).
func IsOverloaded(err error) (retryAfter time.Duration, ok bool) {
	return protocol.IsOverloaded(err)
}

// WithOverloadRetry makes a dialed Client (or LocalClient) retry sessions
// shed by the server's admission controller up to n extra times with
// exponential backoff seeded by the server's retry-after hint. Only
// overload sheds are retried; every other outcome surfaces immediately.
func WithOverloadRetry(n int) ClientOption { return transport.WithOverloadRetry(n) }

// ClusterMap is a versioned assignment of the keyspace's hash slots to
// partition groups (DESIGN.md §14).
type ClusterMap = cluster.Map

// Partition admin actions for Client.PartitionHandoff.
const (
	// PartitionSplit moves slots to a node that leads no group yet; the new
	// map gains a group led by the target.
	PartitionSplit = wire.PartitionSplit
	// PartitionMove moves slots to a primary that already leads a group.
	PartitionMove = wire.PartitionMove
)

// WithClusterNode makes the system one partition primary of a keyspace-
// sharded cluster: advertise is this node's address as it appears in the
// cluster spec, and spec describes the initial topology — partition groups
// separated by ';', each group "primary,replica,replica..." (see
// OPERATIONS.md). Every node of a cluster must be started with the same
// spec. Keyed sessions for slots owned by other partitions are redirected
// with a versioned WrongPartition answer; identification serves this
// partition's local slice, with cluster-wide scatter-gather done by clients
// built WithCluster. A node whose advertise address is absent from the spec
// joins owning nothing — the target posture for a split.
func WithClusterNode(advertise, spec string) Option {
	return optionFunc(func(c *config) error {
		if advertise == "" || spec == "" {
			return errors.New("fuzzyid: WithClusterNode requires an advertise address and a cluster spec")
		}
		c.clusterSelf, c.clusterSpec = advertise, spec
		return nil
	})
}

// WithCluster makes a dialed Client fetch the server's versioned cluster
// map instead of routing by a one-group map of the dialed server: keyed
// sessions (enroll, verify, revoke, re-enroll) go to the owning partition's
// primary following WrongPartition redirects, and identification
// scatter-gathers across every partition, each read from a healthy
// follower when the map names one. The dialed address can be any cluster
// node.
func WithCluster() ClientOption { return transport.WithCluster() }

// IsWrongPartition reports whether err is a cluster node's redirect of a
// keyed operation whose slot it does not own. Clients built WithCluster
// follow these automatically; seeing one here means the client is talking
// to a cluster without WithCluster.
func IsWrongPartition(err error) bool {
	_, ok := protocol.IsWrongPartition(err)
	return ok
}

// IsPartialIdentify reports whether err is a cluster identification miss
// that is unreliable because one or more partitions were unreachable; if so
// it also returns the unreachable partitions' primary addresses. A caller
// must treat it as "unknown", never as a confirmed reject.
func IsPartialIdentify(err error) (failed []string, ok bool) {
	return transport.IsPartialIdentify(err)
}

// System bundles everything needed to run the paper's protocols: the fuzzy
// extractor, the signature scheme, the server-side record stores (one per
// tenant namespace), and the protocol engines for both the authentication
// server and the biometric device.
type System struct {
	extractor *core.FuzzyExtractor
	scheme    sigscheme.Scheme
	server    *protocol.Server
	device    *protocol.Device

	// tenants routes every namespace to its store; always non-nil after
	// NewSystem (the default tenant always exists).
	tenants *store.Registry

	// Telemetry registry; nil unless WithTelemetry was configured.
	metrics *telemetry.Registry

	// Persistence data dir (one WAL partition per tenant under it); empty
	// unless WithPersistence was configured.
	dataDir string

	// Replication state: hub is non-nil on a primary built
	// WithReplication, follower on a replica built WithReplicaOf.
	hub      *replica.Hub
	follower *replica.Follower

	// Admission control; nil unless WithQoS (or a QoS tuning option) was
	// configured.
	qos *qos.Controller

	// Cluster identity; nil unless WithClusterNode was configured.
	node *cluster.Node
}

// Option configures a System.
type Option interface {
	apply(*config) error
}

type optionFunc func(*config) error

func (f optionFunc) apply(c *config) error { return f(c) }

type config struct {
	scheme       string
	extractor    string
	shards       int
	dataDir      string
	syncOS       bool
	groupWindow  time.Duration
	hasGroupWin  bool
	telemetry    bool
	serveRepl    bool
	replicaOf    string
	qos          bool
	qosDefaults  qos.Limits
	qosBudget    time.Duration
	qosScanSlots int
	clusterSelf  string
	clusterSpec  string
}

// WithSignatureScheme selects the challenge-response signature scheme:
// "ed25519" (default) or "ecdsa-p256".
func WithSignatureScheme(name string) Option {
	return optionFunc(func(c *config) error {
		c.scheme = name
		return nil
	})
}

// WithExtractor selects the strong extractor: "hmac-sha256" (default),
// "sha256" (the paper's choice) or "toeplitz".
func WithExtractor(name string) Option {
	return optionFunc(func(c *config) error {
		c.extractor = name
		return nil
	})
}

// WithShards sets the store shard count: the number of independently locked
// partitions (and the bound on per-lookup scan workers) the record database
// is split into. Zero selects the default, the scheduler's parallelism.
func WithShards(p int) Option {
	return optionFunc(func(c *config) error {
		if p < 0 {
			return fmt.Errorf("fuzzyid: negative shard count %d", p)
		}
		c.shards = p
		return nil
	})
}

// WithPersistence makes the enrollment database durable: every committed
// enrollment and revocation is appended to a write-ahead log under dir
// before it is acknowledged, and NewSystem recovers the database from the
// newest snapshot plus the WAL tail on boot. Call (*System).Snapshot
// periodically to compact the log and (*System).Close to flush on
// shutdown (a Server started with Listen does the latter automatically).
func WithPersistence(dir string) Option {
	return optionFunc(func(c *config) error {
		if dir == "" {
			return errors.New("fuzzyid: empty persistence dir")
		}
		c.dataDir = dir
		return nil
	})
}

// WithRelaxedSync makes the persistence layer fsync on snapshot and close
// only, instead of on every enrollment: acknowledged mutations then survive
// process death but not an OS or power failure. Ignored without
// WithPersistence.
func WithRelaxedSync() Option {
	return optionFunc(func(c *config) error {
		c.syncOS = true
		return nil
	})
}

// WithGroupWindow bounds how long a group-commit leader waits for concurrent
// enrollments to join one fsync batch (default persist.DefaultGroupWindow,
// 2ms). Smaller windows favour single-writer latency, larger ones favour
// batch size under heavy concurrent write load; zero syncs as soon as a
// leader is elected while still batching everything already written. Only
// meaningful with WithPersistence under the default (always-fsync) policy.
func WithGroupWindow(d time.Duration) Option {
	return optionFunc(func(c *config) error {
		if d < 0 {
			return fmt.Errorf("fuzzyid: negative group window %v", d)
		}
		c.groupWindow = d
		c.hasGroupWin = true
		return nil
	})
}

// WithTelemetry turns on operational telemetry: the protocol engine counts
// and times every operation (enroll, verify, identify, revoke), the
// persistence layer counts WAL appends, fsyncs and snapshot durations, and
// a Server started with Listen additionally tracks connections and bytes
// moved. Observations are lock-free atomic updates
// with zero allocations, cheap enough to leave on in production. Read the
// numbers via (*System).Stats / StatsJSON, or the fuzzyid-server
// -stats-addr HTTP endpoint.
func WithTelemetry() Option {
	return optionFunc(func(c *config) error {
		c.telemetry = true
		return nil
	})
}

// WithReplication makes the system a replicating primary: every committed
// mutation is stamped with a log offset and streamed to subscribed follower
// servers (snapshot bootstrap for new or out-of-date followers, then frame
// tailing with heartbeats). Composes with WithPersistence — the WAL accepts
// each mutation before it is shipped — and works without it for in-memory
// primaries. Start followers with WithReplicaOf pointing at this server's
// protocol address.
func WithReplication() Option {
	return optionFunc(func(c *config) error {
		c.serveRepl = true
		return nil
	})
}

// WithReplicaOf makes the system a read-only follower of the primary at
// addr: it subscribes to the primary's mutation stream and serves
// identification, verification and stats from the continuously updated
// local store, while enroll and revoke sessions are refused with a
// redirect naming the primary. A follower may serve a view that trails the
// primary by its current replication lag (see Client.ReplStatus and the
// repl.follower.* telemetry). Incompatible with WithPersistence (followers
// re-bootstrap from the primary's snapshot) and WithReplication (chained
// replication is not supported).
func WithReplicaOf(addr string) Option {
	return optionFunc(func(c *config) error {
		if addr == "" {
			return errors.New("fuzzyid: empty primary address")
		}
		c.replicaOf = addr
		return nil
	})
}

// WithQoS turns on per-tenant admission control with the given default
// envelope (applied to every tenant without an override): sessions beyond a
// tenant's rate or burst wait up to the queue budget and are then shed with
// a typed, retryable overload error (IsOverloaded); concurrency past the cap
// queues the same way; and identification scans are scheduled weighted-fair
// across tenants so one noisy neighbor cannot starve the rest. The zero
// QoSLimits enables overload protection (fair scan scheduling, bounded
// queues) without rate-limiting anyone. Per-tenant overrides are installed
// at runtime via SetTenantLimits or the tenant-admin protocol.
func WithQoS(defaults QoSLimits) Option {
	return optionFunc(func(c *config) error {
		c.qos = true
		c.qosDefaults = defaults
		return nil
	})
}

// WithQoSBudget bounds how long an admission-controlled session may queue
// (for a rate slot, a concurrency slot or a scan slot) before it is shed
// (default qos.DefaultBudget, 500ms). Implies WithQoS.
func WithQoSBudget(d time.Duration) Option {
	return optionFunc(func(c *config) error {
		if d < 0 {
			return fmt.Errorf("fuzzyid: negative qos budget %v", d)
		}
		c.qos = true
		c.qosBudget = d
		return nil
	})
}

// WithScanSlots sets the size of the shared identification scan pool that
// admission control schedules weighted-fair across tenants: at most n
// database scans run concurrently (0 = twice the scheduler's parallelism,
// negative = no scan gating). Implies WithQoS.
func WithScanSlots(n int) Option {
	return optionFunc(func(c *config) error {
		c.qos = true
		c.qosScanSlots = n
		return nil
	})
}

// NewSystem validates p and assembles a complete deployment. The system
// always hosts the "default" tenant; named tenants are recovered from the
// persistence directory's per-tenant partitions and managed at runtime via
// CreateTenant/DropTenant (or the tenant admin protocol of a connected
// client).
func NewSystem(p Params, opts ...Option) (*System, error) {
	cfg := config{scheme: "ed25519", extractor: "hmac-sha256"}
	for _, o := range opts {
		if err := o.apply(&cfg); err != nil {
			return nil, err
		}
	}
	ext, err := extract.ByName(cfg.extractor)
	if err != nil {
		return nil, err
	}
	fe, err := core.New(p, core.WithExtractor(ext))
	if err != nil {
		return nil, err
	}
	scheme, err := sigscheme.ByName(cfg.scheme)
	if err != nil {
		return nil, err
	}
	if cfg.replicaOf != "" {
		if cfg.dataDir != "" {
			return nil, errors.New("fuzzyid: a replica cannot combine WithReplicaOf and WithPersistence (it bootstraps from the primary's snapshot)")
		}
		if cfg.serveRepl {
			return nil, errors.New("fuzzyid: chained replication (WithReplicaOf + WithReplication) is not supported")
		}
		if cfg.clusterSpec != "" {
			return nil, errors.New("fuzzyid: a partition follower replicates its primary; start it with WithReplicaOf only (clients learn it from the cluster spec)")
		}
	}
	var node *cluster.Node
	if cfg.clusterSpec != "" {
		m, err := cluster.ParseSpec(cfg.clusterSpec)
		if err != nil {
			return nil, fmt.Errorf("fuzzyid: cluster spec: %w", err)
		}
		node, err = cluster.NewNode(cfg.clusterSelf, m)
		if err != nil {
			return nil, fmt.Errorf("fuzzyid: cluster node: %w", err)
		}
	}
	sys := &System{extractor: fe, scheme: scheme, dataDir: cfg.dataDir}
	if cfg.telemetry {
		sys.metrics = telemetry.NewRegistry()
	}
	if cfg.serveRepl {
		// The hub rides the same journal seam as each tenant's WAL, after
		// it: a mutation is shipped to replicas only once locally durable.
		sys.hub = replica.NewHub(replica.WithHubTelemetry(sys.metrics))
	}
	popts := []persist.Option{persist.WithTelemetry(sys.metrics)}
	if cfg.syncOS {
		popts = append(popts, persist.WithSyncPolicy(persist.SyncOS))
	}
	if cfg.hasGroupWin {
		popts = append(popts, persist.WithGroupWindow(cfg.groupWindow))
	}
	// The factory builds one tenant's store: the in-memory scan store behind
	// the journal seam — recovered from and journaled into its own WAL
	// partition (sharing the data dir and fsync policy), with the
	// replication hub after the WAL so staging precedes shipping. Without
	// either the journal is nil; the wrapper still carries the drop fence
	// and the partition write gate.
	var hub store.Journal
	if sys.hub != nil {
		hub = sys.hub
	}
	factory := func(name string) (*store.Journaled, func() error, error) {
		if cfg.dataDir == "" {
			return store.NewJournaledTenant(store.NewScanShards(fe.Line(), cfg.shards), hub, nil, name), nil, nil
		}
		log, err := persist.Open(persist.TenantDir(cfg.dataDir, name), popts...)
		if err != nil {
			return nil, nil, err
		}
		// Recovery replays the snapshot chain and WAL tail through the
		// store's normal mutation path, then live mutations flow through
		// the journal before being acknowledged.
		db, err := store.Open(fe.Line(), cfg.shards, log.Replay)
		if err != nil {
			log.Close()
			return nil, nil, err
		}
		var j store.Journal = log
		if hub != nil {
			j = store.MultiJournal{log, hub}
		}
		jdb := store.NewJournaledTenant(db, j, log, name)
		// The WAL-tail mutations are the distance between the store and its
		// snapshot chain: seeding their buckets arms incremental compaction
		// from the first post-boot cut.
		jdb.SeedDirty(log.TailDirty())
		return jdb, log.Close, nil
	}
	reg, err := store.NewTenantRegistry(factory)
	if err != nil {
		return nil, err
	}
	sys.tenants = reg
	if cfg.dataDir != "" {
		// Recover every named tenant partitioned under the data dir; the
		// default tenant (the dir's root — the pre-tenant layout) was
		// recovered by the registry constructor.
		names, err := persist.Tenants(cfg.dataDir)
		if err != nil {
			sys.Close()
			return nil, err
		}
		for _, name := range names {
			if _, err := reg.Ensure(name); err != nil {
				sys.Close()
				return nil, err
			}
		}
	}
	if cfg.qos {
		sys.qos = qos.New(qos.Config{
			Defaults:  cfg.qosDefaults,
			Budget:    cfg.qosBudget,
			ScanSlots: cfg.qosScanSlots,
		})
		sys.qos.Instrument(sys.metrics)
	}
	if cfg.dataDir != "" || sys.qos != nil {
		// One drop hook covers both concerns: forget the tenant's QoS
		// state (never fails), then delete its persistence partition.
		reg.OnDrop(func(name string) error {
			if sys.qos != nil {
				sys.qos.DropTenant(name)
			}
			if cfg.dataDir != "" {
				return persist.RemoveTenant(cfg.dataDir, name)
			}
			return nil
		})
	}
	sys.server = protocol.NewServer(fe, scheme, reg)
	if sys.qos != nil {
		sys.server.SetQoS(sys.qos)
	}
	if sys.metrics != nil {
		sys.server.Instrument(sys.metrics)
	}
	if sys.hub != nil {
		reg.ShipAdminOps(sys.hub)
		sys.hub.BindStore(reg)
		sys.server.SetReplication(sys.hub)
		sys.server.SetStatus(sys.hub.Status)
	}
	if cfg.replicaOf != "" {
		sys.follower = replica.StartFollower(cfg.replicaOf, reg,
			replica.WithFollowerTelemetry(sys.metrics))
		sys.server.SetReadOnly(cfg.replicaOf)
		sys.server.SetStatus(sys.follower.Status)
	}
	if node != nil {
		sys.node = node
		sys.server.SetCluster(node, func(addr string) (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		})
	}
	sys.device = protocol.NewDevice(fe, scheme)
	return sys, nil
}

// ClusterSelf reports the node's advertised address and the slots it
// currently owns; ok is false on a system built without WithClusterNode.
func (s *System) ClusterSelf() (advertise string, slots []uint32, ok bool) {
	if s.node == nil {
		return "", nil, false
	}
	m := s.node.Map()
	gi := m.GroupIndexOf(s.node.Self())
	if gi >= 0 {
		slots = m.SlotsOwnedBy(gi)
	}
	return s.node.Self(), slots, true
}

// ClusterMap returns the node's current cluster map; ok is false on a
// system built without WithClusterNode.
func (s *System) ClusterMap() (m *ClusterMap, ok bool) {
	if s.node == nil {
		return nil, false
	}
	return s.node.Map(), true
}

// Metrics returns the system's telemetry registry, or nil when the system
// was built without WithTelemetry.
func (s *System) Metrics() *Metrics { return s.metrics }

// Stats returns one exported snapshot of every instrument (empty without
// WithTelemetry).
func (s *System) Stats() StatsSnapshot { return s.metrics.Snapshot() }

// StatsJSON returns the stats snapshot as indented JSON — the document the
// -stats-addr endpoint serves.
func (s *System) StatsJSON() ([]byte, error) {
	if s.metrics == nil {
		return nil, errors.New("fuzzyid: telemetry disabled (build the system WithTelemetry)")
	}
	return s.metrics.MarshalJSON()
}

// Persistent reports whether the system was built with WithPersistence.
func (s *System) Persistent() bool { return s.dataDir != "" }

// Tenants returns the hosted tenant namespace names, sorted; the "default"
// tenant is always present.
func (s *System) Tenants() []string { return s.tenants.Names() }

// CreateTenant adds a new tenant namespace: an independent identification
// population with its own store and — on a persistent system — its own WAL
// partition under the data dir. On a replicating primary the creation is
// shipped to followers. Fails if the tenant already exists or the name is
// invalid (letters, digits, '.', '_', '-'; max 64 characters; must start
// with a letter or digit).
func (s *System) CreateTenant(name string) error { return s.tenants.Create(name) }

// DropTenant removes a tenant namespace and every record in it, deleting
// its persistence partition and shipping the drop to followers.
// Irreversible; the default tenant cannot be dropped.
func (s *System) DropTenant(name string) error { return s.tenants.Drop(name) }

// SetTenantLimits installs a per-tenant QoS override (replacing the
// WithQoS defaults for that tenant from the next admission on). Overrides
// are per-process and runtime-only: they are not persisted or replicated.
// Fails when the system runs without admission control or the tenant does
// not exist.
func (s *System) SetTenantLimits(name string, l QoSLimits) error {
	if s.qos == nil {
		return errors.New("fuzzyid: admission control disabled (build the system WithQoS)")
	}
	canonical := store.CanonicalTenant(name)
	if !s.tenants.Has(canonical) {
		return fmt.Errorf("fuzzyid: unknown tenant %q", canonical)
	}
	s.qos.SetLimits(canonical, l)
	return nil
}

// TenantLimits returns a tenant's effective QoS envelope and whether it
// comes from a per-tenant override (false = the WithQoS defaults). The zero
// envelope with overridden=false on a system without admission control.
func (s *System) TenantLimits(name string) (limits QoSLimits, overridden bool) {
	if s.qos == nil {
		return QoSLimits{}, false
	}
	return s.qos.LimitsFor(store.CanonicalTenant(name))
}

// Replicating reports whether the system serves a replication stream to
// followers (built WithReplication).
func (s *System) Replicating() bool { return s.hub != nil }

// Replica reports whether the system is a read-only follower (built
// WithReplicaOf) and, if so, its primary's address.
func (s *System) Replica() (primary string, ok bool) {
	if s.follower == nil {
		return "", false
	}
	return s.follower.Primary(), true
}

// ReplicaStatus returns a follower's replication progress: the highest
// mutation offset applied locally, the current lag behind the primary, and
// whether the stream is live. Zero values on a non-replica system.
func (s *System) ReplicaStatus() (applied, lag uint64, connected bool) {
	if s.follower == nil {
		return 0, 0, false
	}
	return s.follower.Applied(), s.follower.Lag(), s.follower.Connected()
}

// Snapshot compacts every tenant's persistence log concurrently: each
// namespace's dirtied record buckets (or, when no incremental base exists
// yet, its full record set) are written as a snapshot cut and the WAL
// segments the cut subsumes are deleted, bounding both disk usage and the
// next boot's recovery time. Tenants compact in parallel — each partition is
// an independent Log, so one huge tenant does not serialize the rest.
// Snapshot is cheap to call when nothing changed (tenants with no mutations
// since their last compaction are skipped) and a no-op without persistence.
func (s *System) Snapshot() error { return s.tenants.Snapshot() }

// Close releases the system's background resources: a follower's
// replication stream is stopped (the stores keep their replicated state),
// and every tenant's persistence log is flushed and closed, taking a final
// snapshot when mutations landed since the last one so the next boot
// recovers from a compact state. Close is idempotent for the persistence
// layer and a no-op for systems with neither persistence nor a replication
// stream; after it, mutations fail.
func (s *System) Close() error {
	var errs []error
	if s.follower != nil {
		if err := s.follower.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(append(errs, s.tenants.Close())...)
}

// Extractor returns the underlying fuzzy extractor.
func (s *System) Extractor() *Extractor { return s.extractor }

// Enrolled returns the number of enrolled users across every tenant.
func (s *System) Enrolled() int { return s.tenants.Enrolled() }

// StoreRecord returns a copy of the stored record for an enrolled identity
// in the default tenant — the view a database insider has (used by the
// tamper-resilience tests). The store is resolved through the
// tenant registry on every call, so the view stays correct across a
// follower's snapshot re-bootstraps (which rebuild the stores).
func (s *System) StoreRecord(id string) (*Record, bool) { return s.tenants.Default().Get(id) }

// ReEnroll atomically replaces an enrolled identity's record in the default
// tenant — the direct administrative path through the journal seam, without
// the challenge-response authentication the protocol-level re-enroll
// performs (Client.ReEnroll). The swap is one journalled mutation, so WAL
// replay, incremental snapshots and replication followers all converge on
// it, and concurrent identifications observe either the old template or the
// new one in full.
func (s *System) ReEnroll(rec *Record) error { return s.tenants.Default().Replace(rec) }

// Report returns the Theorem 3 security accounting for dimension n (or the
// configured dimension when fixed).
func (s *System) Report(n int) SecurityReport { return s.extractor.Report(n) }

// Listen starts a TCP authentication server for this system. When the
// system is persistent or a replication follower, the server owns the
// teardown lifecycle: Server.Close drains the live sessions and then closes
// the system, so a graceful shutdown never loses an acknowledged enrollment
// (and a follower's stream goroutine never outlives its server).
func (s *System) Listen(addr string, opts ...ServerOption) (*Server, error) {
	if s.Persistent() || s.follower != nil {
		opts = append(opts, transport.WithCloser(s))
	}
	if s.metrics != nil {
		opts = append(opts, transport.WithTelemetry(s.metrics))
	}
	return transport.Listen(addr, s.server, opts...)
}

// LocalClient returns a device client wired to this system's server through
// an in-memory pipe, plus its teardown function. Options (e.g. WithTenant)
// configure the client.
func (s *System) LocalClient(opts ...ClientOption) (*Client, func()) {
	return transport.LocalPair(s.server, s.device, opts...)
}

// Dial connects a device client for this system's parameters to a remote
// authentication server. Options configure timeouts and routing: the
// replica fan-out (WithReplicas, WithClientTelemetry) or a fetched cluster
// map (WithCluster).
func (s *System) Dial(addr string, opts ...ClientOption) (*Client, error) {
	return transport.Dial(addr, s.device, opts...)
}
