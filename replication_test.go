package fuzzyid

// End-to-end replication tests over real TCP: a primary built
// WithReplication, followers built WithReplicaOf, and clients using the
// WithReplicas read fan-out. These are the failure-mode drills behind the
// runbooks in OPERATIONS.md.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/wire"
)

const replTestDim = 64

// replCluster is one primary + followers test fixture.
type replCluster struct {
	t         *testing.T
	primary   *System
	priSrv    *Server
	followers []*System
	folSrvs   []*Server
}

// startPrimary builds and listens a replicating primary.
func startPrimary(t *testing.T, opts ...Option) (*System, *Server) {
	t.Helper()
	opts = append([]Option{WithReplication(), WithTelemetry()}, opts...)
	sys, err := NewSystem(Params{Line: PaperLine(), Dimension: replTestDim}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return sys, srv
}

// startFollower builds and listens a follower of the given primary address.
func startFollower(t *testing.T, primaryAddr string) (*System, *Server) {
	t.Helper()
	sys, err := NewSystem(Params{Line: PaperLine(), Dimension: replTestDim},
		WithReplicaOf(primaryAddr), WithTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return sys, srv
}

func newReplCluster(t *testing.T, followers int) *replCluster {
	t.Helper()
	c := &replCluster{t: t}
	c.primary, c.priSrv = startPrimary(t)
	t.Cleanup(func() { c.priSrv.Close(); c.primary.Close() })
	for i := 0; i < followers; i++ {
		sys, srv := startFollower(t, c.priSrv.Addr().String())
		c.followers = append(c.followers, sys)
		c.folSrvs = append(c.folSrvs, srv)
		t.Cleanup(func() { srv.Close() })
	}
	return c
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitCaughtUp waits until follower has applied everything the primary
// committed and its stream is live.
func waitCaughtUp(t *testing.T, primary, follower *System) {
	t.Helper()
	waitFor(t, 10*time.Second, "follower catch-up", func() bool {
		applied, lag, connected := follower.ReplicaStatus()
		return connected && lag == 0 && applied > 0 && follower.Enrolled() == primary.Enrolled()
	})
}

func enrollPopulation(t *testing.T, sys *System, addr string, n int, seed int64) []*biometric.User {
	t.Helper()
	src, err := biometric.NewSource(sys.Extractor().Line(), biometric.Paper(replTestDim), seed)
	if err != nil {
		t.Fatal(err)
	}
	// IDs carry the seed so successive populations never collide.
	pop := make([]*biometric.User, n)
	for i := range pop {
		pop[i] = src.NewUser(fmt.Sprintf("user-%d-%03d", seed, i))
	}
	client, err := sys.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, u := range pop {
		if err := client.Enroll(u.ID, u.Template); err != nil {
			t.Fatalf("enroll %s: %v", u.ID, err)
		}
	}
	return pop
}

// TestReplicationEndToEnd covers the replication contract in-process: enroll
// on the primary, identify everyone on a follower with zero misses, watch
// the lag gauge drain to zero, and check the read-only redirect.
func TestReplicationEndToEnd(t *testing.T) {
	c := newReplCluster(t, 2)
	pop := enrollPopulation(t, c.primary, c.priSrv.Addr().String(), 25, 42)
	for _, f := range c.followers {
		waitCaughtUp(t, c.primary, f)
	}

	// Every user identifies on every follower, zero misses.
	src, err := biometric.NewSource(c.primary.Extractor().Line(), biometric.Paper(replTestDim), 43)
	if err != nil {
		t.Fatal(err)
	}
	for fi, srv := range c.folSrvs {
		client, err := c.primary.Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range pop {
			reading, err := src.GenuineReading(u)
			if err != nil {
				t.Fatal(err)
			}
			got, err := client.Identify(reading)
			if err != nil {
				t.Fatalf("follower %d identify %s: %v", fi, u.ID, err)
			}
			if got != u.ID {
				t.Fatalf("follower %d identified %q as %q", fi, u.ID, got)
			}
		}
		// The follower's own telemetry saw the identify traffic.
		snap := c.followers[fi].Stats()
		if n := snap.Counter("protocol.identify.requests"); n < uint64(len(pop)) {
			t.Fatalf("follower %d served %d identifies, want >= %d", fi, n, len(pop))
		}
		if lag := snap.Gauges["repl.follower.lag"]; lag != 0 {
			t.Fatalf("follower %d lag gauge = %d after catch-up", fi, lag)
		}

		// Mutations are refused with a redirect naming the primary.
		u := src.NewUser("redirect-me")
		err = client.Enroll(u.ID, u.Template)
		primary, ok := IsNotPrimary(err)
		if !ok {
			t.Fatalf("follower %d enroll error = %v, want NotPrimary", fi, err)
		}
		if primary != c.priSrv.Addr().String() {
			t.Fatalf("redirect names %q, want %q", primary, c.priSrv.Addr().String())
		}
		client.Close()
	}

	// A revocation on the primary propagates: the follower stops
	// identifying the revoked user.
	victim := pop[0]
	reading, err := src.GenuineReading(victim)
	if err != nil {
		t.Fatal(err)
	}
	priClient, err := c.primary.Dial(c.priSrv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer priClient.Close()
	if err := priClient.Revoke(victim.ID, reading); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	waitFor(t, 10*time.Second, "revocation to propagate", func() bool {
		_, ok := c.followers[0].StoreRecord(victim.ID)
		return !ok
	})
}

// TestFollowerResumesMidStream kills a follower's replication stream by
// bouncing the primary's listener (same system, same epoch) while
// enrollments continue, and checks the follower resumes from its last
// acked offset — no snapshot re-bootstrap — and converges with zero lost
// enrollments.
//
// The last arm checks the retention ring keeps what an enroll session
// handed it: while the follower is cut off, a population enrolls and then
// identifies on one connection, and the records the follower replays from
// the ring must encode to exactly the primary's bytes. A server that
// recycled an enroll's decode scratch into the next session would ship
// movements overwritten by later probes.
func TestFollowerResumesMidStream(t *testing.T) {
	c := newReplCluster(t, 1)
	follower := c.followers[0]
	pop1 := enrollPopulation(t, c.primary, c.priSrv.Addr().String(), 10, 7)
	waitCaughtUp(t, c.primary, follower)
	resyncsBefore := follower.Stats().Counters["repl.follower.resyncs"]

	// Cut every connection (including the replication stream), then listen
	// again on the same port with the same system.
	addr := c.priSrv.Addr().String()
	if err := c.priSrv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := c.primary.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })

	pop2 := enrollPopulation(t, c.primary, addr, 10, 8)
	waitCaughtUp(t, c.primary, follower)
	if follower.Enrolled() != c.primary.Enrolled() {
		t.Fatalf("follower has %d records, primary %d", follower.Enrolled(), c.primary.Enrolled())
	}
	if _, ok := follower.StoreRecord(pop2[len(pop2)-1].ID); !ok {
		t.Fatal("follower missing an enrollment from after the reconnect")
	}
	// Same epoch, valid offset: the follower tailed, it did not re-snapshot.
	if after := follower.Stats().Counters["repl.follower.resyncs"]; after != resyncsBefore {
		t.Fatalf("follower re-bootstrapped (resyncs %d -> %d), want offset resume", resyncsBefore, after)
	}

	// Cut the follower off again and serve the next sessions on a second
	// listener, which the follower does not know, so it cannot resume
	// before they are all done.
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	side, err := c.primary.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { side.Close() })
	src, err := biometric.NewSource(c.primary.Extractor().Line(), biometric.Paper(replTestDim), 9)
	if err != nil {
		t.Fatal(err)
	}
	pop3 := make([]*biometric.User, 10)
	client, err := c.primary.Dial(side.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := range pop3 {
		pop3[i] = src.NewUser(fmt.Sprintf("user-9-%03d", i))
		if err := client.Enroll(pop3[i].ID, pop3[i].Template); err != nil {
			t.Fatalf("enroll %s: %v", pop3[i].ID, err)
		}
	}
	for i := 0; i < 120; i++ {
		u := pop3[i%len(pop3)]
		reading, err := src.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := client.Identify(reading); err != nil || got != u.ID {
			t.Fatalf("identify %d: %q, %v; want %q", i, got, err, u.ID)
		}
	}
	client.Close()
	if _, _, connected := follower.ReplicaStatus(); connected {
		t.Fatal("follower reconnected while its primary address was down")
	}
	srv3, err := c.primary.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv3.Close() })
	waitCaughtUp(t, c.primary, follower)
	if after := follower.Stats().Counters["repl.follower.resyncs"]; after != resyncsBefore {
		t.Fatalf("follower re-bootstrapped (resyncs %d -> %d), want a resume from the retention ring", resyncsBefore, after)
	}
	for _, pop := range [][]*biometric.User{pop1, pop2, pop3} {
		for _, u := range pop {
			want, ok := c.primary.StoreRecord(u.ID)
			if !ok {
				t.Fatalf("primary missing %s", u.ID)
			}
			got, ok := follower.StoreRecord(u.ID)
			if !ok {
				t.Fatalf("follower missing %s", u.ID)
			}
			we, ge := wire.NewEncoder(0), wire.NewEncoder(0)
			wire.EncodeRecord(we, want)
			wire.EncodeRecord(ge, got)
			if !bytes.Equal(ge.Bytes(), we.Bytes()) {
				t.Fatalf("follower's %s differs from the primary's: the retention ring shipped a changed record", u.ID)
			}
		}
	}
}

// TestPrimaryRestartRehandshakes restarts the primary as a brand-new system
// (fresh epoch, recovered from its WAL) on the same address and checks the
// follower detects the epoch change, re-bootstraps from a snapshot, and
// loses nothing.
func TestPrimaryRestartRehandshakes(t *testing.T) {
	dir := t.TempDir()
	pri1, srv1 := startPrimary(t, WithPersistence(dir))
	addr := srv1.Addr().String()
	follower, folSrv := startFollower(t, addr)
	t.Cleanup(func() { folSrv.Close() })

	enrollPopulation(t, pri1, addr, 12, 21)
	waitCaughtUp(t, pri1, follower)
	want := pri1.Enrolled()

	// Graceful primary restart: flush, then a new system recovers the
	// store from disk and mints a fresh replication epoch.
	if err := srv1.Close(); err != nil { // closes pri1 via the attached closer
		t.Fatal(err)
	}
	// The recovered primary must come back on the original port — the
	// follower's configured primary address stays valid across restarts.
	pri2, err := NewSystem(Params{Line: PaperLine(), Dimension: replTestDim},
		WithReplication(), WithTelemetry(), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := pri2.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	if pri2.Enrolled() != want {
		t.Fatalf("recovered primary has %d records, want %d", pri2.Enrolled(), want)
	}

	// The follower re-handshakes (epoch mismatch -> snapshot) and then
	// tails new mutations.
	pop2 := enrollPopulation(t, pri2, addr, 5, 22)
	waitFor(t, 15*time.Second, "follower to resync with restarted primary", func() bool {
		_, lag, connected := follower.ReplicaStatus()
		return connected && lag == 0 && follower.Enrolled() == pri2.Enrolled()
	})
	if n := follower.Stats().Counters["repl.follower.resyncs"]; n < 2 {
		t.Fatalf("follower resyncs = %d, want >= 2 (bootstrap + epoch change)", n)
	}
	if _, ok := follower.StoreRecord(pop2[0].ID); !ok {
		t.Fatal("follower missing a post-restart enrollment")
	}
}

// TestReplicaFanOut drives reads through WithReplicas and checks they land
// on followers, that an unsynced replica is rejected by the health policy,
// and that killing a follower mid-run degrades to the primary without any
// client-visible failure.
func TestReplicaFanOut(t *testing.T) {
	c := newReplCluster(t, 2)
	pop := enrollPopulation(t, c.primary, c.priSrv.Addr().String(), 10, 99)
	for _, f := range c.followers {
		waitCaughtUp(t, c.primary, f)
	}

	// A follower of a dead primary: alive, answering, but permanently
	// unsynced (connected=false, empty store). The health policy must
	// never route a read to it.
	dead, deadSrv := startFollower(t, "127.0.0.1:1")
	t.Cleanup(func() { deadSrv.Close() })

	reg := NewMetrics()
	client, err := c.primary.Dial(c.priSrv.Addr().String(),
		WithReplicas(
			c.folSrvs[0].Addr().String(),
			c.folSrvs[1].Addr().String(),
			deadSrv.Addr().String(),
		),
		WithClientTelemetry(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	src, err := biometric.NewSource(c.primary.Extractor().Line(), biometric.Paper(replTestDim), 100)
	if err != nil {
		t.Fatal(err)
	}
	identifyAll := func(stage string) {
		t.Helper()
		for _, u := range pop {
			reading, err := src.GenuineReading(u)
			if err != nil {
				t.Fatal(err)
			}
			got, err := client.Identify(reading)
			if err != nil {
				t.Fatalf("%s: identify %s: %v", stage, u.ID, err)
			}
			if got != u.ID {
				t.Fatalf("%s: identified %q as %q", stage, u.ID, got)
			}
		}
	}
	identifyAll("fan-out")

	// Exact counts, per the router's policy: read i starts at replica
	// i mod 3, and the unsynced replica's turns pass to the next one, so
	// follower 0 serves the reads with i mod 3 in {0, 2}, follower 1 those
	// with i mod 3 = 1, and the primary none.
	served := func(sys *System) uint64 { return sys.Stats().Counter("protocol.identify.requests") }
	var want [2]uint64
	for i := range pop {
		if i%3 == 1 {
			want[1]++
		} else {
			want[0]++
		}
	}
	got := [2]uint64{served(c.followers[0]), served(c.followers[1])}
	if got != want || served(c.primary) != 0 || served(dead) != 0 {
		t.Fatalf("identifies served: followers %v, primary %d, unsynced replica %d; want %v, 0, 0 of %d issued",
			got, served(c.primary), served(dead), want, len(pop))
	}
	if lag := reg.Snapshot().Gauges["client.replica.0.lag"]; lag != 0 {
		t.Fatalf("client lag gauge for follower 0 = %d", lag)
	}

	// Kill one follower mid-run: reads keep succeeding via the survivors
	// and the primary.
	c.folSrvs[1].Close()
	identifyAll("after follower kill")
	if n, p := served(c.followers[0])+served(c.followers[1]), served(c.primary); n != uint64(2*len(pop)) || p != 0 {
		t.Fatalf("after follower kill: followers served %d, primary %d; want %d, 0", n, p, 2*len(pop))
	}

	// Mutations keep landing on the primary even with replicas configured.
	u := src.NewUser("fanout-enroll")
	if err := client.Enroll(u.ID, u.Template); err != nil {
		t.Fatalf("enroll through fan-out client: %v", err)
	}
	if _, ok := c.primary.StoreRecord(u.ID); !ok {
		t.Fatal("enrollment did not land on the primary")
	}
}

// TestReplicationOptionValidation pins the unsupported option combinations.
func TestReplicationOptionValidation(t *testing.T) {
	if _, err := NewSystem(Params{Line: PaperLine(), Dimension: replTestDim},
		WithReplicaOf("127.0.0.1:1"), WithPersistence(t.TempDir())); err == nil ||
		!strings.Contains(err.Error(), "WithPersistence") {
		t.Fatalf("replica+persistence error = %v", err)
	}
	if _, err := NewSystem(Params{Line: PaperLine(), Dimension: replTestDim},
		WithReplicaOf("127.0.0.1:1"), WithReplication()); err == nil ||
		!strings.Contains(err.Error(), "chained") {
		t.Fatalf("chained replication error = %v", err)
	}
	if _, err := NewSystem(Params{Line: PaperLine(), Dimension: replTestDim},
		WithReplicaOf("")); err == nil {
		t.Fatal("empty primary address accepted")
	}
}
