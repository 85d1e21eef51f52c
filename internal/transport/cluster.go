package transport

// The client router (DESIGN.md §14). Every client routes by a versioned
// cluster map — a static one-group map built from the seed connection and
// WithReplicas, or a map fetched from the seed under WithCluster — and keeps
// one lazily dialed connection per node the map names. Three rules, the
// same for every map:
//
//   - Keyed sessions (enroll, verify, revoke, re-enroll) hash their key to a
//     slot and go to the owning group's primary. A WrongPartition redirect
//     carries the refusing node's newer map, which the client installs
//     (strictly-newer-only, so a buggy or malicious redirect cannot loop it)
//     and retries; convergence after a split is one redirect round.
//   - Scans (identify, identify-normal) have no key, so they read every
//     group, first match wins. Each group read prefers a healthy follower
//     and falls back to the primary. A miss refreshes a fetched map once;
//     a miss with an unreachable group is a typed PartialIdentifyError
//     instead of a silent false reject.
//   - Tenant administration fans out to every primary. Tenant listing,
//     limits, replication status and handoff stay on the seed.

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyid/internal/cluster"
	"fuzzyid/internal/protocol"
	"fuzzyid/internal/telemetry"
	"fuzzyid/internal/wire"
)

// ErrMapNotAdvancing is wrapped into the error returned when a
// WrongPartition redirect carries a map that does not replace the client's
// (it is not strictly newer, or the client's map is static). Following such
// a redirect could loop forever (two nodes bouncing a key between them, or
// a malicious node replaying an old map), so the client surfaces it instead
// of retrying.
var ErrMapNotAdvancing = errors.New("transport: redirect does not advance the cluster map")

// maxClusterRedirects bounds how many WrongPartition redirects a keyed
// session follows. Each redirect must install a strictly newer map, so in a
// healthy cluster one hop suffices; the bound is a backstop against
// pathological map churn.
const maxClusterRedirects = 3

// maxDialTimeout caps dialing a primary. A follower is dialed within
// DefaultReplicaCooldown instead, so a black-holed one stalls a read for at
// most that long before it is benched.
const maxDialTimeout = 5 * time.Second

// PartialIdentifyError reports a scan that found no match but could not
// reach every group: the identity may be enrolled on one of the failed
// groups, so the miss is unreliable.
type PartialIdentifyError struct {
	// Failed lists the primary address of each group whose read could not
	// be served by any member.
	Failed []string
	// Err is the first failure observed.
	Err error
}

// Error implements error.
func (e *PartialIdentifyError) Error() string {
	return fmt.Sprintf("transport: identify incomplete: %d partition(s) unreachable (%v): %v", len(e.Failed), e.Failed, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *PartialIdentifyError) Unwrap() error { return e.Err }

// IsPartialIdentify reports whether err is an identification verdict that
// is unreliable because one or more partitions were unreachable; if so it
// also returns the unreachable groups' primary addresses.
func IsPartialIdentify(err error) ([]string, bool) {
	var pe *PartialIdentifyError
	if errors.As(err, &pe) {
		return pe.Failed, true
	}
	return nil, false
}

// nodeConn is one lazily dialed connection to a server. Its mutex
// serialises sessions on the connection, and the replica health fields ride
// under the same lock — except downUntil, which is atomic so the
// healthy-count gauge can be recomputed without taking every node's lock.
type nodeConn struct {
	addr string
	// fixed marks a caller-supplied connection that cannot be redialed
	// (net.Pipe): a wire failure leaves it in place.
	fixed bool
	// replica is set, under Client.mu, once the node is numbered for the
	// replica health gauges.
	replica bool

	// downUntil is the bench deadline in Unix nanoseconds (0 = in rotation).
	downUntil atomic.Int64

	mu        sync.Mutex
	conn      net.Conn // nil until dialed (and after a wire failure)
	tap       wireTap  // the current session's view of conn
	lastProbe time.Time
	lagGauge  *telemetry.Gauge // client.replica.<i>.lag
	upGauge   *telemetry.Gauge // client.replica.<i>.healthy
}

// wireTap records whether a session touched its connection. A session that
// fails before its first read or write — a local input error such as a
// reading of the wrong dimension — leaves the connection in sync.
type wireTap struct {
	rw   io.ReadWriter
	used bool
}

func (t *wireTap) Read(p []byte) (int, error)  { t.used = true; return t.rw.Read(p) }
func (t *wireTap) Write(p []byte) (int, error) { t.used = true; return t.rw.Write(p) }

// wireError marks a session that failed on the wire: the dial, the
// deadline, or an exchange that did not end in a protocol outcome. Only a
// wire failure drops a connection, benches a replica or counts a scanned
// group as unreachable; Error and Unwrap pass the cause through unchanged.
type wireError struct{ err error }

func (e *wireError) Error() string { return e.err.Error() }
func (e *wireError) Unwrap() error { return e.err }

// isWireFailure reports whether err is a wireError.
func isWireFailure(err error) bool {
	var we *wireError
	return errors.As(err, &we)
}

// benched reports whether the node is out of the read rotation at time now.
func (nc *nodeConn) benched(now time.Time) bool {
	return now.UnixNano() < nc.downUntil.Load()
}

// drop closes the connection so the next session redials, and forces a
// fresh status probe before a replica serves again; caller holds nc.mu.
func (nc *nodeConn) drop() {
	if nc.conn != nil {
		nc.conn.Close()
		nc.conn = nil
	}
	nc.lastProbe = time.Time{}
}

// WithCluster makes the client fetch its map from the seed connection on
// first use, instead of building a static one-group map. The seed (Dial's
// addr) can be any cluster node. Only a fetched map is ever refreshed: by a
// WrongPartition redirect, a scan miss, or a partition handoff.
func WithCluster() ClientOption {
	return clientOptionFunc(func(c *Client) { c.fetch = true })
}

// ClusterMap returns the client's current map, fetching it from the seed
// connection first under WithCluster.
func (c *Client) ClusterMap() (*cluster.Map, error) {
	if m := c.cmap.Load(); m != nil {
		return m, nil
	}
	m, err := seedCall(c, c.device.ClusterMap)
	if err != nil {
		return nil, err
	}
	c.install(m)
	return m, nil
}

// install replaces the client's map with m when m is strictly newer and the
// client's map is not static, numbering each replica m introduces for the
// health gauges. It reports whether m was installed.
func (c *Client) install(m *cluster.Map) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur := c.cmap.Load(); cur != nil && (!c.fetch || m.Version <= cur.Version) {
		return false
	}
	for _, g := range m.Groups {
		for _, addr := range g.Replicas {
			nc := c.nodeLocked(addr)
			if nc.replica {
				continue
			}
			nc.replica = true
			if c.reg != nil {
				nc.lagGauge = c.reg.Gauge(fmt.Sprintf("client.replica.%d.lag", len(c.replicas)))
				nc.upGauge = c.reg.Gauge(fmt.Sprintf("client.replica.%d.healthy", len(c.replicas)))
			}
			c.replicas = append(c.replicas, nc)
		}
	}
	c.cmap.Store(m)
	c.publishHealthyLocked()
	return true
}

// refreshMap refetches a fetched map from the seed and reports whether it
// advanced past prev. A scan miss consults it before trusting the verdict:
// a split that completed after the map was cached would otherwise turn the
// moved identities into silent false rejects. A static map never refreshes.
func (c *Client) refreshMap(prev *cluster.Map) (*cluster.Map, bool) {
	if !c.fetch {
		return prev, false
	}
	m, err := seedCall(c, c.device.ClusterMap)
	if err != nil || m.Version <= prev.Version {
		return prev, false
	}
	c.install(m)
	return m, true
}

// node returns the connection slot for addr, creating it if needed.
func (c *Client) node(addr string) *nodeConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodeLocked(addr)
}

func (c *Client) nodeLocked(addr string) *nodeConn {
	nc, ok := c.nodes[addr]
	if !ok {
		nc = &nodeConn{addr: addr}
		c.nodes[addr] = nc
	}
	return nc
}

// session runs one protocol session on primary (or seed) nc; see
// sessionLocked.
func (c *Client) session(nc *nodeConn, fn func(io.ReadWriter) error) error {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	dialTO := maxDialTimeout
	if c.timeout > 0 {
		dialTO = min(c.timeout, maxDialTimeout)
	}
	return c.sessionLocked(nc, dialTO, fn)
}

// sessionLocked runs one protocol session on nc's connection, dialing it
// first within dialTO if needed; caller holds nc.mu. A wire failure drops
// the connection so the next session redials, and comes back as a
// wireError. A protocol outcome, or an error the device raised before
// touching the wire, leaves the connection open and is returned as-is.
func (c *Client) sessionLocked(nc *nodeConn, dialTO time.Duration, fn func(io.ReadWriter) error) error {
	// Checked under nc.mu: Close marks the client closed before it takes
	// the node locks, so a session racing Close cannot redial a connection
	// nothing would close.
	if c.closed.Load() {
		return ErrClosed
	}
	if nc.conn == nil {
		conn, err := net.DialTimeout("tcp", nc.addr, dialTO)
		if err != nil {
			return &wireError{fmt.Errorf("transport: dial %s: %w", nc.addr, err)}
		}
		nc.conn = conn
	}
	if c.timeout > 0 {
		if err := nc.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return nc.fail(fmt.Errorf("transport: set deadline: %w", err))
		}
	}
	nc.tap = wireTap{rw: nc.conn}
	err := fn(&nc.tap)
	if err == nil || !nc.tap.used || isProtocolOutcome(err) {
		return err
	}
	return nc.fail(err)
}

// fail marks err as a wire failure and drops the connection so the next
// session redials — unless it cannot be redialed; caller holds nc.mu.
func (nc *nodeConn) fail(err error) error {
	if !nc.fixed {
		nc.drop()
	}
	return &wireError{err}
}

// isProtocolOutcome reports whether err is a typed in-protocol verdict (the
// connection is still synchronised and reusable) as opposed to a
// transport-level failure.
func isProtocolOutcome(err error) bool {
	_, overloaded := protocol.IsOverloaded(err)
	_, unknown := protocol.IsUnknownTenant(err)
	_, notPrimary := protocol.IsNotPrimary(err)
	_, wrong := protocol.IsWrongPartition(err)
	return protocol.IsRejected(err) || errors.Is(err, protocol.ErrNoMatch) ||
		overloaded || unknown || notPrimary || wrong
}

// keyed runs one keyed session on the primary owning id's slot, retrying
// overload sheds per WithOverloadRetry.
func (c *Client) keyed(id string, fn func(io.ReadWriter) error) error {
	return c.retrying(func() error { return c.routeKeyed(id, fn) })
}

// routeKeyed runs fn against the primary owning id's slot, following
// WrongPartition redirects. Every followed redirect must install a strictly
// newer map; a redirect that does not is surfaced, wrapping both
// ErrMapNotAdvancing and the redirect, rather than followed (it could only
// loop).
func (c *Client) routeKeyed(id string, fn func(io.ReadWriter) error) error {
	m, err := c.ClusterMap()
	if err != nil {
		return err
	}
	slot := cluster.SlotOf(c.tenant, id)
	for hop := 0; ; hop++ {
		addr := m.PrimaryOf(slot)
		err := c.session(c.node(addr), fn)
		newMap, wrong := protocol.IsWrongPartition(err)
		if !wrong {
			return err
		}
		if hop >= maxClusterRedirects {
			return fmt.Errorf("transport: key %q still misrouted after %d redirects: %w", id, hop, ErrMapNotAdvancing)
		}
		if !c.install(newMap) {
			return fmt.Errorf("transport: node %s redirected with map version %d: %w: %w", addr, newMap.Version, ErrMapNotAdvancing, err)
		}
		m = newMap
	}
}

// groupRead serves one read session on group g: its replicas first,
// rotated round-robin and filtered by the health policy, then the primary.
// Reads are idempotent, so a replica that fails mid-session is benched and
// the read retried on the next member.
func (c *Client) groupRead(g cluster.Group, fn func(io.ReadWriter) error) error {
	if n := len(g.Replicas); n > 0 {
		// Reduce modulo n in uint32 before converting: a plain int
		// conversion would go negative once the counter wraps past 2^31 on
		// 32-bit platforms and index out of range.
		start := int((c.rr.Add(1) - 1) % uint32(n))
		for i := 0; i < n; i++ {
			if done, err := c.replicaRead(c.node(g.Replicas[(start+i)%n]), fn); done {
				return err
			}
		}
		c.m.failovers.Inc()
	}
	return c.session(c.node(g.Primary), fn)
}

// replicaRead attempts one read session on replica nc, dialing it within
// DefaultReplicaCooldown. done is false when the replica was skipped or
// failed on the wire — the caller moves on — and true otherwise, with the
// session's outcome returned as-is.
func (c *Client) replicaRead(nc *nodeConn, fn func(io.ReadWriter) error) (done bool, err error) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	now := time.Now()
	if nc.benched(now) {
		return false, nil
	}
	if now.Sub(nc.lastProbe) >= DefaultReplicaProbe {
		var info *wire.ReplStatusInfo
		err := c.sessionLocked(nc, DefaultReplicaCooldown, func(rw io.ReadWriter) error {
			var err error
			info, err = c.device.ReplStatus(rw)
			return err
		})
		if err != nil {
			c.bench(nc, now.Add(DefaultReplicaCooldown))
			return false, nil
		}
		nc.lastProbe = now
		lag := info.Lag()
		nc.lagGauge.Set(int64(lag))
		// A follower whose stream is down, or that is more than
		// DefaultMaxReplicaLag mutations behind, keeps its connection and is
		// benched only until the next probe can show the lag drained.
		if info.Role == "replica" && (!info.Connected || lag > DefaultMaxReplicaLag) {
			c.bench(nc, now.Add(DefaultReplicaProbe))
			return false, nil
		}
	}
	err = c.sessionLocked(nc, DefaultReplicaCooldown, fn)
	if isWireFailure(err) {
		c.bench(nc, now.Add(DefaultReplicaCooldown))
		return false, nil
	}
	// An overload shed is the server protecting itself, not a broken
	// replica: it stays in rotation and the typed error surfaces. An
	// unknown tenant may be one a lagging follower has not learned yet; it
	// also stays in rotation, and the read falls through to the next
	// member — the primary is authoritative for the tenant set.
	nc.upGauge.Set(1)
	_, unknown := protocol.IsUnknownTenant(err)
	return !unknown, err
}

// bench takes replica nc out of the read rotation until the given time.
func (c *Client) bench(nc *nodeConn, until time.Time) {
	nc.downUntil.Store(until.UnixNano())
	nc.upGauge.Set(0)
	c.mu.Lock()
	c.publishHealthyLocked()
	c.mu.Unlock()
}

// publishHealthyLocked refreshes the healthy-replica count gauge; caller
// holds c.mu.
func (c *Client) publishHealthyLocked() {
	if c.m.healthy == nil {
		return
	}
	now := time.Now()
	var up int64
	for _, nc := range c.replicas {
		if !nc.benched(now) {
			up++
		}
	}
	c.m.healthy.Set(up)
}

// scanResult carries one group's answer back to the gather loop.
type scanResult struct {
	id   string
	err  error
	addr string // the group's primary, naming the partition in errors
}

// scanGroups runs read on every group of m and hands each answer to take
// until take returns true (first match wins). A one-group map runs inline
// on the caller's goroutine; more groups run in parallel, and the channel
// is buffered to the group count so an early return never blocks the
// stragglers.
func (c *Client) scanGroups(m *cluster.Map, read func(io.ReadWriter) (string, error), take func(scanResult) bool) {
	run := func(g cluster.Group) scanResult {
		var id string
		err := c.groupRead(g, func(rw io.ReadWriter) error {
			var err error
			id, err = read(rw)
			return err
		})
		return scanResult{id: id, err: err, addr: g.Primary}
	}
	if len(m.Groups) == 1 {
		take(run(m.Groups[0]))
		return
	}
	ch := make(chan scanResult, len(m.Groups))
	for _, g := range m.Groups {
		go func(g cluster.Group) { ch <- run(g) }(g)
	}
	for range m.Groups {
		if take(<-ch) {
			return
		}
	}
}

// scan runs one identification against every group under the overload
// retry policy and returns the first match (IDs are unique across groups,
// so at most one group matches). While none has matched:
//   - an outcome that is neither a verdict nor a wire failure (an overload
//     shed, an unknown tenant, a local input error) is returned as-is;
//   - a fetched map is re-checked once, since a concurrent split may have
//     moved the identity to a partition the cached map does not know;
//   - an unreachable group makes the miss unreliable, so it is a
//     PartialIdentifyError;
//   - otherwise a group's rejection is returned, or else ErrNoMatch.
func (c *Client) scan(read func(io.ReadWriter) (string, error)) (string, error) {
	var id string
	err := c.retrying(func() error {
		m, err := c.ClusterMap()
		if err != nil {
			return err
		}
		for round := 0; ; round++ {
			var failed []string
			var missErr, failErr, otherErr error
			c.scanGroups(m, read, func(r scanResult) bool {
				switch {
				case r.err == nil:
					id = r.id
					return id != ""
				case protocol.IsRejected(r.err) || errors.Is(r.err, protocol.ErrNoMatch):
					missErr = cmp.Or(missErr, r.err)
				case isWireFailure(r.err):
					failed = append(failed, r.addr)
					failErr = cmp.Or(failErr, r.err)
				default:
					otherErr = cmp.Or(otherErr, r.err)
				}
				return false
			})
			switch {
			case id != "":
				return nil
			case otherErr != nil:
				return otherErr
			}
			if round == 0 {
				if nm, newer := c.refreshMap(m); newer {
					m = nm
					continue
				}
			}
			if len(failed) > 0 {
				return &PartialIdentifyError{Failed: failed, Err: failErr}
			}
			return cmp.Or(missErr, protocol.ErrNoMatch)
		}
	})
	if err != nil {
		return "", err
	}
	return id, nil
}

// fanoutAdmin runs one admin session against every primary and joins the
// failures, so tenant administration converges across groups.
func (c *Client) fanoutAdmin(fn func(io.ReadWriter) error) error {
	m, err := c.ClusterMap()
	if err != nil {
		return err
	}
	var errs []error
	for _, g := range m.Groups {
		nc := c.node(g.Primary)
		if err := c.retrying(func() error { return c.session(nc, fn) }); err != nil {
			errs = append(errs, fmt.Errorf("partition %s: %w", g.Primary, err))
		}
	}
	return errors.Join(errs...)
}

// PartitionHandoff runs a partition split/move admin session on the seed
// connection, which must be the primary currently owning the slots. It
// returns the cluster map version in force after the handoff; a fetched map
// is dropped so the next session refetches it.
func (c *Client) PartitionHandoff(action byte, slots []uint32, target string, targetReplicas []string) (uint64, error) {
	version, err := seedCall(c, func(rw io.ReadWriter) (uint64, error) {
		return c.device.PartitionHandoff(rw, action, slots, target, targetReplicas)
	})
	if err == nil && c.fetch {
		c.cmap.Store(nil)
	}
	return version, err
}
