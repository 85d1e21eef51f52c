// Package transport runs the §V protocol engines over real connections: a
// concurrent TCP authentication server and a client wrapper for the
// biometric device, plus an in-memory pair for tests and benchmarks. One
// connection can carry many sequential protocol sessions (enroll, verify,
// identify); framing is provided by internal/wire.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyid/internal/cluster"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/protocol"
	"fuzzyid/internal/qos"
	"fuzzyid/internal/telemetry"
)

// Errors returned by the transport layer.
var (
	ErrClosed = errors.New("transport: closed")
)

// DefaultTimeout bounds a single protocol session on the client side.
const DefaultTimeout = 30 * time.Second

// Overload retry backoff bounds; see WithOverloadRetry.
const (
	// MinOverloadBackoff floors the first retry delay when the server's
	// retry-after hint is smaller.
	MinOverloadBackoff = 5 * time.Millisecond
	// MaxOverloadBackoff caps the exponential backoff between retries.
	MaxOverloadBackoff = time.Second
)

// frameBodyDeadline bounds how long a frame's body may take to arrive once
// its header has. It is sized for the largest legitimate inbound frame, a
// 1 024-record PartitionIngest chunk (about 41 MB at n = 5000), arriving
// at 0.7 MB/s; a peer that sends a header and trickles the body holds its
// connection for a minute instead of forever. Idle time between frames is
// not bounded by it.
const frameBodyDeadline = time.Minute

// bodyTicks is how many watchdog ticks make up the body deadline: a body
// still due after bodyTicks whole ticks is cut, between 1 and
// 1 + 1/bodyTicks deadlines after its header arrived.
const bodyTicks = 4

// Server accepts connections and serves protocol sessions concurrently.
type Server struct {
	proto        *protocol.Server
	ln           net.Listener
	idleTimeout  time.Duration
	bodyDeadline time.Duration // frameBodyDeadline; shortened only by tests
	maxConns     int
	closer       io.Closer
	m            connMetrics
	ticks        atomic.Int64  // body watchdog ticks since Listen
	done         chan struct{} // closed by Close: stops the body watchdog

	mu     sync.Mutex
	conns  map[net.Conn]*frameReader
	closed bool

	wg sync.WaitGroup
}

// connMetrics are the transport-layer instruments: connection lifecycle
// counts and raw bytes moved. The zero value (nil instruments) is the
// uninstrumented state.
type connMetrics struct {
	accepted *telemetry.Counter // connections admitted into serving
	rejected *telemetry.Counter // connections refused at the maxConns cap
	active   *telemetry.Gauge   // connections currently being served
	bytesIn  *telemetry.Counter // bytes read from peers
	bytesOut *telemetry.Counter // bytes written to peers
	bodyCut  *telemetry.Counter // connections cut at the frame body deadline
}

func (m *connMetrics) bind(reg *telemetry.Registry) {
	m.accepted = reg.Counter("transport.conns.accepted")
	m.rejected = reg.Counter("transport.conns.rejected")
	m.active = reg.Gauge("transport.conns.active")
	m.bytesIn = reg.Counter("transport.bytes.in")
	m.bytesOut = reg.Counter("transport.bytes.out")
	m.bodyCut = reg.Counter("transport.conns.body_cut")
}

// measuredRW counts the bytes a session moves over the connection. It wraps
// only the stream handed to the protocol engine; deadline control stays on
// the underlying connection.
type measuredRW struct {
	rw      io.ReadWriter
	in, out *telemetry.Counter
}

func (c *measuredRW) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	if n > 0 {
		c.in.Add(uint64(n))
	}
	return n, err
}

func (c *measuredRW) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	if n > 0 {
		c.out.Add(uint64(n))
	}
	return n, err
}

// SetReadDeadline forwards to the wrapped connection, so life-of-connection
// sessions (replication subscriptions) can clear the per-session idle
// deadline the accept loop armed.
func (c *measuredRW) SetReadDeadline(t time.Time) error {
	if d, ok := c.rw.(interface{ SetReadDeadline(time.Time) error }); ok {
		return d.SetReadDeadline(t)
	}
	return nil
}

// SetWriteDeadline forwards to the wrapped connection, so the replication
// hub can bound its sends against a stalled follower.
func (c *measuredRW) SetWriteDeadline(t time.Time) error {
	if d, ok := c.rw.(interface{ SetWriteDeadline(time.Time) error }); ok {
		return d.SetWriteDeadline(t)
	}
	return nil
}

// frameReader is a server connection. It follows the length-prefixed
// frames its reads pass on, and while a frame's body is due it publishes
// the watchdog tick its header arrived in, for watchBodies to cut the
// connection if the body is late. Arming and clearing are an atomic store
// each: a read deadline per frame would arm a runtime timer per frame, and
// each one wakes the network poller.
type frameReader struct {
	net.Conn
	ticks    *atomic.Int64 // the server's watchdog tick count
	due      atomic.Int64  // 1 + the tick a due body's header arrived in; 0: none due
	cut      bool          // watchBodies has cut the connection; guarded by Server.mu
	hdr      [4]byte
	got      int   // header bytes of the current frame seen so far
	bodyLeft int64 // body bytes of the current frame still to come
}

func (r *frameReader) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	r.follow(p[:n])
	return n, err
}

// follow advances the frame position over b, the bytes just read.
func (r *frameReader) follow(b []byte) {
	for len(b) > 0 {
		if r.got < len(r.hdr) {
			k := copy(r.hdr[r.got:], b)
			r.got += k
			b = b[k:]
			if r.got < len(r.hdr) {
				return
			}
			r.bodyLeft = int64(binary.BigEndian.Uint32(r.hdr[:]))
			if r.bodyLeft > int64(len(b)) {
				r.due.Store(r.ticks.Load() + 1)
			}
		}
		k := min(r.bodyLeft, int64(len(b)))
		r.bodyLeft -= k
		b = b[k:]
		if r.bodyLeft == 0 {
			r.got = 0
			r.due.Store(0)
		}
	}
}

// watchBodies cuts every connection whose frame body is still due
// bodyTicks whole ticks after its header arrived: it fails the
// connection's blocked read with a deadline in the past, and the session
// ends as on any read error. It runs until Close.
func (s *Server) watchBodies() {
	defer s.wg.Done()
	t := time.NewTicker(s.bodyDeadline / bodyTicks)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
		}
		now := s.ticks.Add(1)
		s.mu.Lock()
		for c, fr := range s.conns {
			if due := fr.due.Load(); due != 0 && now-due >= bodyTicks && !fr.cut {
				fr.cut = true
				s.m.bodyCut.Inc()
				_ = c.SetReadDeadline(time.Unix(1, 0)) // the read fails and the session ends
			}
		}
		s.mu.Unlock()
	}
}

// ServerOption configures a Server.
type ServerOption interface {
	applyServer(*Server)
}

type serverOptionFunc func(*Server)

func (f serverOptionFunc) applyServer(s *Server) { f(s) }

// WithIdleTimeout sets the per-session read deadline on server connections
// (default: none).
func WithIdleTimeout(d time.Duration) ServerOption {
	return serverOptionFunc(func(s *Server) { s.idleTimeout = d })
}

// WithMaxConns bounds the number of concurrently served connections, so a
// flood of clients cannot exhaust goroutines or file descriptors: a
// connection past the cap is closed immediately at accept time (the client
// sees EOF) instead of being queued behind the cap. n <= 0 means unbounded
// (the default).
func WithMaxConns(n int) ServerOption {
	return serverOptionFunc(func(s *Server) { s.maxConns = n })
}

// WithCloser attaches a resource to the server's shutdown path: Close first
// drains the live sessions, then closes c. The persistence layer uses it so
// a graceful shutdown flushes the enrollment database after the last
// session finished mutating it.
func WithCloser(c io.Closer) ServerOption {
	return serverOptionFunc(func(s *Server) { s.closer = c })
}

// WithTelemetry binds the server's transport-layer instruments (connections
// accepted/active/rejected, bytes in/out) to reg. It leaves the protocol
// engine alone: one engine may serve several listeners at once, so it is
// instrumented once, before serving (protocol.Server.Instrument), and
// rebinding it here would race the sessions already running on it. A nil
// reg leaves the server uninstrumented.
func WithTelemetry(reg *telemetry.Registry) ServerOption {
	return serverOptionFunc(func(s *Server) { s.m.bind(reg) })
}

// Listen starts a TCP server for proto on addr (e.g. "127.0.0.1:0").
func Listen(addr string, proto *protocol.Server, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	s := &Server{proto: proto, ln: ln, bodyDeadline: frameBodyDeadline, done: make(chan struct{}), conns: make(map[net.Conn]*frameReader)}
	for _, o := range opts {
		o.applyServer(s)
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.watchBodies()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every live connection and waits for the
// session goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	close(s.done)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	if s.closer != nil {
		if cerr := s.closer.Close(); cerr != nil {
			return errors.Join(err, cerr)
		}
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		fr := &frameReader{Conn: conn, ticks: &s.ticks}
		switch s.track(fr) {
		case trackClosed:
			conn.Close()
			return
		case trackFull:
			s.m.rejected.Inc()
			conn.Close() // past the connection cap: refuse, keep accepting
			continue
		}
		s.m.accepted.Inc()
		s.m.active.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.m.active.Dec()
			defer s.untrack(conn)
			s.serveConn(fr)
		}()
	}
}

// track outcomes.
type trackResult int

const (
	trackOK     trackResult = iota
	trackClosed             // server shut down
	trackFull               // connection cap reached
)

func (s *Server) track(fr *frameReader) trackResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return trackClosed
	}
	if s.maxConns > 0 && len(s.conns) >= s.maxConns {
		return trackFull
	}
	s.conns[fr.Conn] = fr
	return trackOK
}

func (s *Server) untrack(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// serveConn runs protocol sessions until the peer disconnects or misbehaves.
func (s *Server) serveConn(conn *frameReader) {
	var rw io.ReadWriter = conn
	if s.m.bytesIn != nil || s.m.bytesOut != nil {
		rw = &measuredRW{rw: conn, in: s.m.bytesIn, out: s.m.bytesOut}
	}
	for {
		if s.idleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.idleTimeout)); err != nil {
				return
			}
		}
		if err := s.proto.HandleSession(rw); err != nil {
			return // EOF, timeout or protocol violation: drop the connection
		}
	}
}

// Read-path health policy; see WithReplicas.
const (
	// DefaultMaxReplicaLag is the staleness bound, in mutations behind the
	// primary, above which a replica is skipped by scans. It is fixed policy.
	DefaultMaxReplicaLag = 1024
	// DefaultReplicaProbe is how often a replica's lag is re-checked.
	DefaultReplicaProbe = time.Second
	// DefaultReplicaCooldown is how long a replica that failed on the wire
	// is benched before scans retry it, and the bound on dialing one.
	DefaultReplicaCooldown = time.Second
)

// Client drives the device engine against an authentication server, or a
// partitioned cluster of them, through one router (cluster.go). Every
// client routes by a cluster.Map: NewClient builds a static one-group map
// whose primary is the given connection and whose replicas are the
// WithReplicas addresses; WithCluster fetches the map from that connection
// instead. Each node gets one lazily dialed connection, which carries one
// session at a time.
type Client struct {
	device       *protocol.Device
	timeout      time.Duration
	tenant       string   // namespace every session addresses; "" = default
	retries      int      // extra attempts after an Overloaded shed; see WithOverloadRetry
	replicaAddrs []string // WithReplicas: the static map's followers
	fetch        bool     // WithCluster: the map comes from the seed and refreshes
	reg          *telemetry.Registry
	m            clientMetrics

	seed   *nodeConn // the connection the client was built on
	cmap   atomic.Pointer[cluster.Map]
	rr     atomic.Uint32 // round-robin cursor over a group's replicas
	closed atomic.Bool

	mu       sync.Mutex // guards nodes, replicas and map installs
	nodes    map[string]*nodeConn
	replicas []*nodeConn // replica nodes in first-seen order; index i backs client.replica.<i>.*
}

// clientMetrics are the read-path instruments. The zero value (nil
// instruments) is the uninstrumented state.
type clientMetrics struct {
	healthy   *telemetry.Gauge   // replicas currently considered usable
	failovers *telemetry.Counter // group reads that fell back past every replica
}

// ClientOption configures a Client.
type ClientOption interface {
	applyClient(*Client)
}

type clientOptionFunc func(*Client)

func (f clientOptionFunc) applyClient(c *Client) { f(c) }

// WithTimeout bounds each protocol session (default DefaultTimeout;
// 0 disables deadlines, required for net.Pipe which does not support them).
func WithTimeout(d time.Duration) ClientOption {
	return clientOptionFunc(func(c *Client) { c.timeout = d })
}

// WithTenant binds every protocol session of the client to the named tenant
// namespace ("" selects the default tenant). The namespace must exist on
// the server, or operations fail with a typed unknown-tenant error (see
// protocol.IsUnknownTenant). Tenant administration sessions are unaffected.
func WithTenant(name string) ClientOption {
	return clientOptionFunc(func(c *Client) { c.tenant = name })
}

// WithOverloadRetry makes the client retry a session shed by the server's
// admission controller (protocol.IsOverloaded) up to n extra times, sleeping
// between attempts: the first delay is the server's retry-after hint floored
// at MinOverloadBackoff, then doubled per attempt and capped at
// MaxOverloadBackoff. n <= 0 (the default) surfaces the typed overload error
// to the caller on the first shed. Only overload sheds are retried —
// rejections, no-match outcomes and transport failures are never masked.
func WithOverloadRetry(n int) ClientOption {
	return clientOptionFunc(func(c *Client) { c.retries = n })
}

// WithReplicas names the followers of the client's static one-group map.
// Scans (identify, identify-normal) rotate round-robin across them;
// enrollments, revocations, re-enrollments, verifications and admin
// sessions go to the primary. A follower is skipped while a status probe
// (every DefaultReplicaProbe) reports its stream down or its lag above
// DefaultMaxReplicaLag, and benched for DefaultReplicaCooldown after a
// transport failure; a scan no follower can serve falls back to the
// primary, so correctness never depends on follower availability. Ignored
// under WithCluster, whose fetched map names each group's followers.
func WithReplicas(addrs ...string) ClientOption {
	return clientOptionFunc(func(c *Client) { c.replicaAddrs = append(c.replicaAddrs, addrs...) })
}

// WithClientTelemetry binds the client's read-path instruments — per-replica
// lag and health gauges plus a failover counter — to reg; nil leaves the
// client uninstrumented. Binding happens after all options are applied, so
// the order of WithReplicas and WithClientTelemetry does not matter.
func WithClientTelemetry(reg *telemetry.Registry) ClientOption {
	return clientOptionFunc(func(c *Client) { c.reg = reg })
}

// Dial connects to a server at addr.
func Dial(addr string, device *protocol.Device, opts ...ClientOption) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial: %w", err)
	}
	return NewClient(conn, device, opts...), nil
}

// NewClient wraps an existing connection (TCP or net.Pipe) as the client's
// seed: the primary of its static map or, under WithCluster, the node the
// map is fetched from.
func NewClient(conn net.Conn, device *protocol.Device, opts ...ClientOption) *Client {
	c := &Client{device: device, timeout: DefaultTimeout}
	for _, o := range opts {
		o.applyClient(c)
	}
	if c.tenant != "" {
		c.device = c.device.ForTenant(c.tenant)
	}
	if c.reg != nil {
		c.m.healthy = c.reg.Gauge("client.replicas.healthy")
		c.m.failovers = c.reg.Counter("client.replicas.failovers")
	}
	raddr := conn.RemoteAddr()
	c.seed = &nodeConn{addr: raddr.String(), fixed: raddr.Network() != "tcp", conn: conn}
	c.nodes = map[string]*nodeConn{c.seed.addr: c.seed}
	if !c.fetch {
		c.install(&cluster.Map{
			Version: 1,
			Slots:   make([]uint32, cluster.NumSlots),
			Groups:  []cluster.Group{{Primary: c.seed.addr, Replicas: c.replicaAddrs}},
		})
	}
	return c
}

// Close closes every node connection, the seed's included.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return ErrClosed
	}
	// Node locks are taken after c.mu is released: a session holds its
	// node's lock while it publishes health under c.mu.
	c.mu.Lock()
	nodes := make([]*nodeConn, 0, len(c.nodes))
	for _, nc := range c.nodes {
		nodes = append(nodes, nc)
	}
	c.mu.Unlock()
	for _, nc := range nodes {
		nc.mu.Lock()
		nc.drop()
		nc.mu.Unlock()
	}
	return nil
}

// Enroll runs UserEnro for (id, bio) on the primary owning id's slot.
func (c *Client) Enroll(id string, bio numberline.Vector) error {
	return c.keyed(id, func(rw io.ReadWriter) error { return c.device.Enroll(rw, id, bio) })
}

// Verify runs verification mode for the claimed id on the primary owning
// its slot. A follower could not redirect a verify routed by a stale map,
// so verification never reads from one.
func (c *Client) Verify(id string, bio numberline.Vector) error {
	return c.keyed(id, func(rw io.ReadWriter) error { return c.device.Verify(rw, id, bio) })
}

// Identify runs the proposed identification protocol and returns the
// established identity. The probe scans every group, first match wins, each
// group served by a healthy follower when it has one (a view at most
// DefaultMaxReplicaLag stale). A miss with unreachable groups is a typed
// PartialIdentifyError, never a silent false reject.
func (c *Client) Identify(bio numberline.Vector) (string, error) {
	return c.scan(func(rw io.ReadWriter) (string, error) { return c.device.Identify(rw, bio) })
}

// IdentifyNormal runs the O(N) normal-approach identification, scanning
// every group like Identify.
func (c *Client) IdentifyNormal(bio numberline.Vector) (string, error) {
	return c.scan(func(rw io.ReadWriter) (string, error) { return c.device.IdentifyNormal(rw, bio) })
}

// Revoke removes the enrollment for id after a successful biometric
// challenge-response, on the primary owning id's slot.
func (c *Client) Revoke(id string, bio numberline.Vector) error {
	return c.keyed(id, func(rw io.ReadWriter) error { return c.device.Revoke(rw, id, bio) })
}

// ReEnroll atomically replaces id's enrolled template with fresh helper
// data generated from newBio, after proving possession of the currently
// enrolled biometric (oldBio), on the primary owning id's slot.
func (c *Client) ReEnroll(id string, oldBio, newBio numberline.Vector) error {
	return c.keyed(id, func(rw io.ReadWriter) error { return c.device.ReEnroll(rw, id, oldBio, newBio) })
}

// Tenants asks the seed server for the hosted tenant namespace names.
func (c *Client) Tenants() ([]string, error) { return seedCall(c, c.device.Tenants) }

// CreateTenant creates a new tenant namespace on every primary, since any
// group may own records of the new tenant (a follower would refuse with a
// not-primary error).
func (c *Client) CreateTenant(name string) error {
	return c.fanoutAdmin(func(rw io.ReadWriter) error { return c.device.CreateTenant(rw, name) })
}

// DropTenant removes a tenant namespace and every record in it from every
// primary — irreversible.
func (c *Client) DropTenant(name string) error {
	return c.fanoutAdmin(func(rw io.ReadWriter) error { return c.device.DropTenant(rw, name) })
}

// SetTenantLimits installs a per-tenant QoS override ("" names the default
// tenant) on every primary. Overrides are per-process and runtime-only;
// servers without admission control reject the request.
func (c *Client) SetTenantLimits(name string, l qos.Limits) error {
	return c.fanoutAdmin(func(rw io.ReadWriter) error { return c.device.SetTenantLimits(rw, name, l) })
}

// TenantLimits asks the seed server for a tenant's effective QoS envelope
// and whether it comes from a per-tenant override (false = the server's
// configured defaults).
func (c *Client) TenantLimits(name string) (qos.Limits, bool, error) {
	var overridden bool
	l, err := seedCall(c, func(rw io.ReadWriter) (qos.Limits, error) {
		l, o, err := c.device.TenantLimits(rw, name)
		overridden = o
		return l, err
	})
	return l, overridden, err
}

// retrying runs one session attempt, then — when configured with
// WithOverloadRetry — sleeps and re-runs it for each overload shed, backing
// off exponentially from the server's retry-after hint. Every other outcome
// (including success) returns immediately. A retried scan re-enters the
// replica rotation, so the retry can land on a less loaded server.
func (c *Client) retrying(run func() error) error {
	err := run()
	for attempt := 0; attempt < c.retries; attempt++ {
		hint, overloaded := protocol.IsOverloaded(err)
		if !overloaded {
			return err
		}
		time.Sleep(overloadDelay(hint, attempt))
		err = run()
	}
	return err
}

// overloadDelay computes the backoff before retry number attempt (0-based):
// the server's retry-after hint (floored at MinOverloadBackoff) doubled per
// attempt, capped at MaxOverloadBackoff. The doubling stops as soon as the
// cap is reached rather than shifting first and clamping after — a naive
// `hint << attempt` overflows int64 negative once attempt is large enough
// (a 1s hint shifted 34 times), and min(negative, cap) would select the
// negative value, turning backoff into a hot retry loop.
func overloadDelay(hint time.Duration, attempt int) time.Duration {
	delay := max(hint, MinOverloadBackoff)
	for ; attempt > 0 && delay < MaxOverloadBackoff; attempt-- {
		delay <<= 1
	}
	return min(delay, MaxOverloadBackoff)
}

// seedCall runs one session on the seed connection under the overload
// retry policy and returns its result.
func seedCall[T any](c *Client, fn func(io.ReadWriter) (T, error)) (T, error) {
	var out T
	err := c.retrying(func() error {
		return c.session(c.seed, func(rw io.ReadWriter) error {
			var err error
			out, err = fn(rw)
			return err
		})
	})
	return out, err
}

// ReplStatus is the decoded answer of a replication health probe.
type ReplStatus struct {
	// Role is "primary", "replica" or "standalone".
	Role string
	// Primary is the primary's address (replicas only).
	Primary string
	// Epoch is the replication log incarnation.
	Epoch uint64
	// Applied is the highest mutation offset applied by the probed server.
	Applied uint64
	// Latest is the highest offset the probed server knows to exist.
	Latest uint64
	// Lag is Latest - Applied.
	Lag uint64
	// Connected reports a replica's stream to its primary being live.
	Connected bool
}

// ReplStatus probes the seed server for its replication role and progress.
func (c *Client) ReplStatus() (*ReplStatus, error) {
	info, err := seedCall(c, c.device.ReplStatus)
	if err != nil {
		return nil, err
	}
	return &ReplStatus{
		Role: info.Role, Primary: info.Primary, Epoch: info.Epoch,
		Applied: info.Applied, Latest: info.Latest, Lag: info.Lag(),
		Connected: info.Connected,
	}, nil
}

// LocalPair wires a client directly to a protocol server through an
// in-memory pipe (no TCP stack). The returned stop function tears both ends
// down. Benchmarks use it to measure protocol cost without network noise.
// Options (e.g. WithTenant) configure the client; deadlines stay disabled,
// as net.Pipe does not support them.
func LocalPair(proto *protocol.Server, device *protocol.Device, opts ...ClientOption) (*Client, func()) {
	devEnd, srvEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if err := proto.HandleSession(srvEnd); err != nil {
				return
			}
		}
	}()
	opts = append(opts, WithTimeout(0)) // net.Pipe: no deadlines needed
	client := NewClient(devEnd, device, opts...)
	stop := func() {
		client.Close()
		srvEnd.Close()
		<-done
	}
	return client, stop
}
