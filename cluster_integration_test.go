package fuzzyid

// End-to-end tests of keyspace-sharded clustering (DESIGN.md §14): several
// partition primaries over real TCP, a WithCluster client routing keyed
// sessions and scatter-gathering identification, and a live split handing
// slots to a joining node while enrollment traffic keeps flowing.

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/cluster"
	"fuzzyid/internal/numberline"
)

const clusterTestDim = 64

// reserveAddrs grabs n distinct listen addresses so a cluster spec can name
// every node before any of them is started. The listeners stay open until
// all n are taken, so no two share a port; the tiny reuse race between
// closing them and the nodes listening is acceptable in tests.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// startClusterNode builds and listens one partition primary.
func startClusterNode(t *testing.T, advertise, spec string, opts ...Option) (*System, *Server) {
	t.Helper()
	opts = append([]Option{WithClusterNode(advertise, spec), WithTelemetry()}, opts...)
	sys, err := NewSystem(Params{Line: PaperLine(), Dimension: clusterTestDim}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.Listen(advertise)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); sys.Close() })
	return sys, srv
}

func clusterPopulation(t *testing.T, line *numberline.Line, n int, seed int64) (*biometric.Source, []*biometric.User) {
	t.Helper()
	src, err := biometric.NewSource(line, biometric.Paper(clusterTestDim), seed)
	if err != nil {
		t.Fatal(err)
	}
	pop := make([]*biometric.User, n)
	for i := range pop {
		pop[i] = src.NewUser(fmt.Sprintf("cuser-%d-%03d", seed, i))
	}
	return src, pop
}

// TestClusterEndToEnd: three partitions, keyed sessions land on their
// owners, identification scatter-gathers with zero cross-partition misses,
// and a cluster-unaware client gets a typed WrongPartition redirect.
func TestClusterEndToEnd(t *testing.T) {
	addrs := reserveAddrs(t, 3)
	spec := strings.Join(addrs, ";")
	systems := make([]*System, len(addrs))
	for i, addr := range addrs {
		systems[i], _ = startClusterNode(t, addr, spec)
	}

	client, err := systems[0].Dial(addrs[0], WithCluster(), WithOverloadRetry(4))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	src, pop := clusterPopulation(t, systems[0].Extractor().Line(), 30, 71)
	for _, u := range pop {
		if err := client.Enroll(u.ID, u.Template); err != nil {
			t.Fatalf("enroll %s: %v", u.ID, err)
		}
	}

	// The population spread across partitions, and nothing was lost.
	total, populated := 0, 0
	for _, sys := range systems {
		n := sys.Enrolled()
		total += n
		if n > 0 {
			populated++
		}
	}
	if total != len(pop) {
		t.Fatalf("cluster holds %d records, want %d", total, len(pop))
	}
	if populated != len(systems) {
		t.Fatalf("population landed on %d of %d partitions; the hash should spread it", populated, len(systems))
	}

	// Every user identifies cluster-wide, zero misses, and verification
	// routes by key.
	for _, u := range pop {
		reading, err := src.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.Identify(reading)
		if err != nil {
			t.Fatalf("identify %s: %v", u.ID, err)
		}
		if got != u.ID {
			t.Fatalf("identified %q as %q", u.ID, got)
		}
		if err := client.Verify(u.ID, reading); err != nil {
			t.Fatalf("verify %s: %v", u.ID, err)
		}
	}

	// Identification scatter-gathers across partitions: every reading
	// finds its user whichever partition owns it.
	for i, u := range pop[:10] {
		r, err := src.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		if id, err := client.Identify(r); err != nil || id != u.ID {
			t.Fatalf("reading %d identified as (%q, %v), want %q", i, id, err, u.ID)
		}
	}

	// A cluster-unaware client asking the wrong partition gets the typed
	// redirect, not a silent failure.
	m, ok := systems[0].ClusterMap()
	if !ok {
		t.Fatal("node 0 reports no cluster map")
	}
	var foreign *biometric.User
	for _, u := range pop {
		if m.PrimaryOf(cluster.SlotOf("", u.ID)) != addrs[0] {
			foreign = u
			break
		}
	}
	if foreign == nil {
		t.Fatal("no user owned by another partition")
	}
	plain, err := systems[0].Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	reading, err := src.GenuineReading(foreign)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Verify(foreign.ID, reading); !IsWrongPartition(err) {
		t.Fatalf("plain verify on wrong partition: err = %v, want WrongPartition", err)
	}
}

// TestClusterLiveSplit: a joining node receives half of partition 0's slots
// via a live handoff while enrollment and identification traffic flow. No
// acked write is lost, identification held open across the split never
// misses (the client refreshes its map on a miss), a stale client converges
// in one redirect round, partition 0's follower replicates the handoff
// purge, and a fresh population routes cleanly on the new topology.
func TestClusterLiveSplit(t *testing.T) {
	addrs := reserveAddrs(t, 4)
	spec := strings.Join(addrs[:3], ";")
	systems := make([]*System, len(addrs))
	for i, addr := range addrs {
		// Node 3 starts with the same spec but is absent from it: it joins
		// owning nothing, the target posture for a split.
		var opts []Option
		if i == 0 {
			opts = append(opts, WithReplication())
		}
		systems[i], _ = startClusterNode(t, addr, spec, opts...)
	}
	follower, folSrv := startFollower(t, addrs[0])
	t.Cleanup(func() { folSrv.Close(); follower.Close() })

	client, err := systems[0].Dial(addrs[0], WithCluster(), WithOverloadRetry(8))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	src, pop := clusterPopulation(t, systems[0].Extractor().Line(), 40, 73)
	for _, u := range pop {
		if err := client.Enroll(u.ID, u.Template); err != nil {
			t.Fatalf("enroll %s: %v", u.ID, err)
		}
	}

	// Enrollment storm concurrent with the split: every ack must survive.
	_, storm := clusterPopulation(t, systems[0].Extractor().Line(), 30, 74)
	var (
		wg    sync.WaitGroup
		ackMu sync.Mutex
		acked []*biometric.User
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc, err := systems[0].Dial(addrs[1], WithCluster(), WithOverloadRetry(8))
		if err != nil {
			t.Errorf("storm dial: %v", err)
			return
		}
		defer sc.Close()
		for _, u := range storm {
			if err := sc.Enroll(u.ID, u.Template); err != nil {
				t.Errorf("storm enroll %s: %v", u.ID, err)
				continue
			}
			ackMu.Lock()
			acked = append(acked, u)
			ackMu.Unlock()
		}
	}()

	// Identification held open across the split: a second cluster client,
	// seeded at a node that takes no part in the handoff, cycles through
	// the population until it has identified everyone again after the
	// handoff. Any miss or error fails the test.
	readings := make([]Vector, len(pop))
	for i, u := range pop {
		readings[i] = mustReading(t, src, u)
	}
	var (
		idOps        atomic.Uint64
		stop, done   = make(chan struct{}), make(chan struct{})
		stopIdentify = sync.OnceFunc(func() { close(stop); <-done })
	)
	defer stopIdentify()
	go func() {
		defer close(done)
		ic, err := systems[0].Dial(addrs[2], WithCluster(), WithOverloadRetry(8))
		if err != nil {
			t.Errorf("identify dial: %v", err)
			return
		}
		defer ic.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := i % len(pop)
			if got, err := ic.Identify(readings[k]); err != nil || got != pop[k].ID {
				t.Errorf("identify across the split: %s = %q, %v", pop[k].ID, got, err)
			}
			idOps.Add(1)
		}
	}()
	waitFor(t, 10*time.Second, "identifies before the split", func() bool { return idOps.Load() > 0 })

	// A client that caches the pre-split map now, and routes with it after
	// the split, must converge through one WrongPartition redirect round.
	stale, err := systems[0].Dial(addrs[1], WithCluster())
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	if err := stale.Verify(pop[0].ID, mustReading(t, src, pop[0])); err != nil {
		t.Fatalf("pre-split verify (caches the map): %v", err)
	}

	// Split: hand half of node 0's slots to the joining node, through a
	// plain admin client dialed at the source primary.
	m, ok := systems[0].ClusterMap()
	if !ok {
		t.Fatal("node 0 reports no cluster map")
	}
	owned := m.SlotsOwnedBy(m.GroupIndexOf(addrs[0]))
	moving := owned[:len(owned)/2]
	admin, err := systems[0].Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	version, err := admin.PartitionHandoff(PartitionSplit, moving, addrs[3], nil)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if version != m.Version+1 {
		t.Fatalf("split installed map version %d, want %d", version, m.Version+1)
	}
	wg.Wait()
	opsAtSplit := idOps.Load()
	waitFor(t, 30*time.Second, "identifies after the split", func() bool {
		return idOps.Load() >= opsAtSplit+uint64(len(pop))
	})
	stopIdentify()
	t.Logf("identify across the split: %d ops, %d before the handoff returned", idOps.Load(), opsAtSplit)

	// The joining node now owns the moved slots and some records landed.
	_, slots, ok := systems[3].ClusterSelf()
	if !ok || len(slots) != len(moving) {
		t.Fatalf("joining node owns %d slots, want %d", len(slots), len(moving))
	}

	// The non-participating primaries learned the new map through the
	// source's best-effort gossip — any node answers `cluster map` with the
	// current topology, not just the handoff participants.
	for _, i := range []int{1, 2} {
		if pm, ok := systems[i].ClusterMap(); !ok || pm.Version != version {
			t.Fatalf("non-participant node %d has map version %d, want %d (gossip)", i, pm.Version, version)
		}
	}

	// Zero acked-write loss and zero misses, including the moved records:
	// the original population plus every acked storm enrollment.
	ackMu.Lock()
	all := append(append([]*biometric.User{}, pop...), acked...)
	ackMu.Unlock()
	totalBefore := 0
	for _, sys := range systems {
		totalBefore += sys.Enrolled()
	}
	if totalBefore != len(all) {
		t.Fatalf("cluster holds %d records after split, want %d", totalBefore, len(all))
	}
	for _, u := range all {
		reading, err := src.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.Identify(reading)
		if err != nil {
			t.Fatalf("post-split identify %s: %v", u.ID, err)
		}
		if got != u.ID {
			t.Fatalf("post-split identified %q as %q", u.ID, got)
		}
	}

	// The client holding the pre-split map converges in one redirect round:
	// it routes a moved key to node 0 and follows the WrongPartition
	// redirect (carrying the new map) to the joining node.
	var movedUser *biometric.User
	movingSet := make(map[uint32]bool, len(moving))
	for _, s := range moving {
		movingSet[s] = true
	}
	for _, u := range pop {
		if movingSet[cluster.SlotOf("", u.ID)] {
			movedUser = u
			break
		}
	}
	if movedUser == nil {
		t.Fatal("no user on a moved slot")
	}
	if err := stale.Verify(movedUser.ID, mustReading(t, src, movedUser)); err != nil {
		t.Fatalf("stale-map verify of moved user: %v", err)
	}

	// Partition 0's follower replicated the handoff purge: its lag drains
	// to 0 and it holds exactly what its primary kept.
	waitFor(t, 10*time.Second, "partition 0 follower catch-up", func() bool {
		_, lag, connected := follower.ReplicaStatus()
		return connected && lag == 0 && follower.Enrolled() == systems[0].Enrolled()
	})

	// A fresh population, seeded at the joining node, enrolls and
	// identifies cleanly on the four-partition topology.
	joined, err := systems[0].Dial(addrs[3], WithCluster(), WithOverloadRetry(8))
	if err != nil {
		t.Fatal(err)
	}
	defer joined.Close()
	freshSrc, fresh := clusterPopulation(t, systems[0].Extractor().Line(), 20, 76)
	for _, u := range fresh {
		if err := joined.Enroll(u.ID, u.Template); err != nil {
			t.Fatalf("post-split enroll %s: %v", u.ID, err)
		}
	}
	for _, u := range fresh {
		if got, err := joined.Identify(mustReading(t, freshSrc, u)); err != nil || got != u.ID {
			t.Fatalf("post-split identify %s = %q, %v", u.ID, got, err)
		}
	}
}

// TestClusterReadSkipsUnsyncedReplica: a cluster client's group reads follow
// the same health policy as WithReplicas. The spec lists a follower of a
// dead primary — alive and answering, but with an empty store and its
// stream down — so a read routed to it would turn every identify into a
// false reject. The status probe must keep it out of rotation.
func TestClusterReadSkipsUnsyncedReplica(t *testing.T) {
	dead, err := NewSystem(Params{Line: PaperLine(), Dimension: clusterTestDim},
		WithReplicaOf("127.0.0.1:1"), WithTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	deadSrv, err := dead.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { deadSrv.Close(); dead.Close() })

	addr := reserveAddrs(t, 1)[0]
	startClusterNode(t, addr, addr+","+deadSrv.Addr().String())
	client, err := dead.Dial(addr, WithCluster())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	src, pop := clusterPopulation(t, dead.Extractor().Line(), 8, 75)
	for _, u := range pop {
		if err := client.Enroll(u.ID, u.Template); err != nil {
			t.Fatalf("enroll %s: %v", u.ID, err)
		}
	}
	// Several goroutines share the client, so the router's replica cursor,
	// bench state and node table are reached concurrently.
	readings := make([]Vector, len(pop))
	for i, u := range pop {
		readings[i] = mustReading(t, src, u)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, u := range pop {
				got, err := client.Identify(readings[i])
				if err != nil || got != u.ID {
					t.Errorf("identify %s = %q, %v", u.ID, got, err)
				}
			}
		}()
	}
	wg.Wait()
	if n := dead.Stats().Counter("protocol.identify.requests"); n != 0 {
		t.Fatalf("unsynced replica served %d identifies, want 0", n)
	}
}

func mustReading(t *testing.T, src *biometric.Source, u *biometric.User) Vector {
	t.Helper()
	reading, err := src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	return reading
}
