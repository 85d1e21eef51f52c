package transport

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"fuzzyid/internal/cluster"
	"fuzzyid/internal/protocol"
	"fuzzyid/internal/wire"
)

// fakeClusterNode is a raw-wire server that answers map fetches with its
// configured map, answers replication-status probes with status, rejects
// every identification and bounces every other session opener with a
// WrongPartition redirect. bumpVersion controls
// whether each redirect advances the map version (a pathological but
// protocol-legal server) or replays the same version (a buggy or malicious
// one).
type fakeClusterNode struct {
	ln          net.Listener
	bumpVersion bool
	version     atomic.Uint64
	redirects   atomic.Int64
	mapFetches  atomic.Int64
	identifies  atomic.Int64
	status      atomic.Pointer[wire.ReplStatusInfo]
}

func startFakeClusterNode(t *testing.T, bumpVersion bool) *fakeClusterNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeClusterNode{ln: ln, bumpVersion: bumpVersion}
	f.version.Store(1)
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go f.serve(conn)
		}
	}()
	return f
}

// selfMap is a single-group map owning every slot, led by the fake node.
func (f *fakeClusterNode) selfMap(version uint64) *cluster.Map {
	return &cluster.Map{
		Version: version,
		Slots:   make([]uint32, cluster.NumSlots),
		Groups:  []cluster.Group{{Primary: f.ln.Addr().String()}},
	}
}

func (f *fakeClusterNode) serve(conn net.Conn) {
	defer conn.Close()
	for {
		msg, err := wire.Receive(conn)
		if err != nil {
			return
		}
		switch msg.(type) {
		case *wire.ClusterMapRequest:
			f.mapFetches.Add(1)
			err = wire.Send(conn, &wire.ClusterMapInfo{Map: f.selfMap(f.version.Load())})
		case *wire.ReplStatus:
			err = wire.Send(conn, f.status.Load())
		case *wire.IdentifyRequest:
			f.identifies.Add(1)
			err = wire.Send(conn, &wire.Reject{Reason: "no match"})
		default:
			// Any keyed session opener: bounce it. A malicious node replays
			// its current map; a churning one advances the version first.
			f.redirects.Add(1)
			v := f.version.Load()
			if f.bumpVersion {
				v = f.version.Add(1)
			}
			err = wire.Send(conn, &wire.WrongPartition{Map: f.selfMap(v)})
		}
		if err != nil {
			return
		}
	}
}

// TestClusterRedirectNotAdvancing is the stale-map regression test: a node
// that answers a keyed session with a WrongPartition carrying a map version
// that does not advance the client's cached map must produce a typed error
// after one redirect — never a retry loop. Before the strictly-newer
// install guard, the client would re-route to the same node forever.
func TestClusterRedirectNotAdvancing(t *testing.T) {
	f := startFakeClusterNode(t, false)
	w := newWorld(t, 16, 301)
	client, err := Dial(f.ln.Addr().String(), w.device, WithCluster(), WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	u := w.src.NewUser("bounced")
	err = client.Enroll(u.ID, u.Template)
	if !errors.Is(err, ErrMapNotAdvancing) {
		t.Fatalf("enroll against a non-advancing redirect: err = %v, want ErrMapNotAdvancing", err)
	}
	if n := f.redirects.Load(); n != 1 {
		t.Fatalf("client followed %d redirects before giving up, want exactly 1", n)
	}
}

// TestClusterRedirectHopBound: a node whose redirects do advance the map
// version (so each one is individually legal) but never resolve the key is
// cut off by the hop bound instead of looping.
func TestClusterRedirectHopBound(t *testing.T) {
	f := startFakeClusterNode(t, true)
	w := newWorld(t, 16, 302)
	client, err := Dial(f.ln.Addr().String(), w.device, WithCluster(), WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	u := w.src.NewUser("hopper")
	err = client.Enroll(u.ID, u.Template)
	if !errors.Is(err, ErrMapNotAdvancing) {
		t.Fatalf("enroll against churning redirects: err = %v, want ErrMapNotAdvancing", err)
	}
	if n := f.redirects.Load(); n != maxClusterRedirects+1 {
		t.Fatalf("client followed %d redirects, want %d (the hop bound)", n, maxClusterRedirects+1)
	}
}

// TestStaticMapRejectCostsOneSession: a plain client routes by a static
// one-group map, so a rejected identify is exactly one session on the seed —
// no ClusterMapRequest up front and no map refresh after the miss. A
// WithCluster client against the same node fetches the map, then refreshes
// it once after the miss.
func TestStaticMapRejectCostsOneSession(t *testing.T) {
	f := startFakeClusterNode(t, false)
	w := newWorld(t, 16, 304)
	probe := w.src.ImpostorReading()

	plain, err := Dial(f.ln.Addr().String(), w.device, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.Identify(probe); !protocol.IsRejected(err) {
		t.Fatalf("plain identify: err = %v, want rejection", err)
	}
	if n, m := f.identifies.Load(), f.mapFetches.Load(); n != 1 || m != 0 {
		t.Fatalf("plain identify cost %d identify and %d map sessions, want 1 and 0", n, m)
	}

	clustered, err := Dial(f.ln.Addr().String(), w.device, WithCluster(), WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer clustered.Close()
	if _, err := clustered.Identify(probe); !protocol.IsRejected(err) {
		t.Fatalf("cluster identify: err = %v, want rejection", err)
	}
	if n, m := f.identifies.Load(), f.mapFetches.Load(); n != 2 || m != 2 {
		t.Fatalf("after cluster identify: %d identify and %d map sessions, want 2 and 2", n, m)
	}
}

// TestClusterVerifyNotClusterNode: a WithCluster client pointed at a
// standalone server fails loudly on the map fetch instead of guessing.
func TestClusterVerifyNotClusterNode(t *testing.T) {
	w := newWorld(t, 16, 303)
	srv, err := Listen("127.0.0.1:0", w.proto)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr().String(), w.device, WithCluster(), WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	u := w.src.NewUser("lost")
	if err := client.Enroll(u.ID, u.Template); !protocol.IsRejected(err) {
		t.Fatalf("cluster client against standalone server: err = %v, want rejection", err)
	}
}

// TestReplicaLagBound pins the fixed staleness policy in replicaRead's
// `lag > DefaultMaxReplicaLag` branch: a connected follower one mutation
// past the bound is skipped and the scan lands on the primary; a follower
// exactly at the bound serves it.
func TestReplicaLagBound(t *testing.T) {
	w := newWorld(t, 16, 305)
	probe := w.src.ImpostorReading()
	for _, tc := range []struct {
		lag                      uint64
		wantReplica, wantPrimary int64
	}{
		{lag: DefaultMaxReplicaLag + 1, wantReplica: 0, wantPrimary: 1},
		{lag: DefaultMaxReplicaLag, wantReplica: 1, wantPrimary: 0},
	} {
		primary := startFakeClusterNode(t, false)
		replica := startFakeClusterNode(t, false)
		replica.status.Store(&wire.ReplStatusInfo{
			Role:      "replica",
			Primary:   primary.ln.Addr().String(),
			Applied:   100,
			Latest:    100 + tc.lag,
			Connected: true,
		})
		client, err := Dial(primary.ln.Addr().String(), w.device,
			WithReplicas(replica.ln.Addr().String()), WithTimeout(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		_, err = client.Identify(probe)
		client.Close()
		if !protocol.IsRejected(err) {
			t.Fatalf("lag %d: identify err = %v, want rejection", tc.lag, err)
		}
		if r, p := replica.identifies.Load(), primary.identifies.Load(); r != tc.wantReplica || p != tc.wantPrimary {
			t.Fatalf("lag %d: replica served %d and primary %d identifies, want %d and %d",
				tc.lag, r, p, tc.wantReplica, tc.wantPrimary)
		}
	}
}
