package replica

import (
	"fmt"
	"net"
	"testing"
	"time"

	"fuzzyid/internal/core"
	"fuzzyid/internal/sketch"
	"fuzzyid/internal/store"
	"fuzzyid/internal/wire"
)

// testRecord builds a minimal valid record without running the extractor.
func testRecord(id string) *store.Record {
	return &store.Record{
		ID:        id,
		PublicKey: []byte("pk-" + id),
		Helper: &core.HelperData{
			Sketch: &sketch.RobustSketch{
				Sketch: &sketch.Sketch{Movements: []int64{1, 2, 3}},
				Digest: [32]byte{9},
			},
			Seed: []byte("seed"),
		},
	}
}

// viewerFunc adapts a function to the Viewer interface.
type viewerFunc func(fn func([]store.TenantView))

func (v viewerFunc) View(fn func([]store.TenantView)) { v(fn) }

// defaultView wraps a flat record set as a single-default-tenant viewer.
func defaultView(recs func() []*store.Record) viewerFunc {
	return func(fn func([]store.TenantView)) {
		fn([]store.TenantView{{Tenant: store.DefaultTenant, Records: recs()}})
	}
}

// subscribe runs HandleSubscribe on one end of a pipe and returns the other
// end plus a cleanup.
func subscribe(t *testing.T, h *Hub, req *wire.ReplSubscribe) (net.Conn, func()) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- h.HandleSubscribe(server, req) }()
	cleanup := func() {
		client.Close()
		server.Close()
		<-done
	}
	return client, cleanup
}

func receiveTyped[T wire.Message](t *testing.T, conn net.Conn) T {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	msg, err := wire.Receive(conn)
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	m, ok := msg.(T)
	if !ok {
		t.Fatalf("received %T, want %T", msg, m)
	}
	return m
}

func TestHubSnapshotBootstrapThenTail(t *testing.T) {
	h := NewHub()
	recs := []*store.Record{testRecord("a"), testRecord("b")}
	h.BindStore(defaultView(func() []*store.Record { return recs }))

	// Pre-existing mutations the subscriber is too late for conceptually
	// live inside the snapshot; the hub starts empty here.
	conn, cleanup := subscribe(t, h, &wire.ReplSubscribe{Epoch: 0, From: 1})
	defer cleanup()

	snap := receiveTyped[*wire.ReplSnapshot](t, conn)
	if !snap.First || !snap.Done || len(snap.Records) != 2 || snap.Next != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Epoch != h.Epoch() {
		t.Fatalf("snapshot epoch %x, want %x", snap.Epoch, h.Epoch())
	}

	if _, err := h.Begin(store.InsertMutation(testRecord("c"))); err != nil {
		t.Fatal(err)
	}
	frame := receiveTyped[*wire.ReplFrame](t, conn)
	if frame.Offset != 1 || frame.Mut.ID != "c" {
		t.Fatalf("frame = offset %d id %q", frame.Offset, frame.Mut.ID)
	}
	if err := wire.Send(conn, &wire.ReplAck{Offset: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestHubTailsWithoutSnapshotWhenCurrent(t *testing.T) {
	h := NewHub()
	h.BindStore(defaultView(func() []*store.Record { return nil }))
	for i := 0; i < 3; i++ {
		if _, err := h.Begin(store.InsertMutation(testRecord(fmt.Sprintf("u%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	conn, cleanup := subscribe(t, h, &wire.ReplSubscribe{Epoch: h.Epoch(), From: 2})
	defer cleanup()
	frame := receiveTyped[*wire.ReplFrame](t, conn)
	if frame.Offset != 2 || frame.Mut.ID != "u1" {
		t.Fatalf("first frame = offset %d id %q, want tail from 2", frame.Offset, frame.Mut.ID)
	}
}

func TestHubResnapshotsWhenRetentionPassed(t *testing.T) {
	h := NewHub(WithRetain(2))
	var current []*store.Record
	h.BindStore(defaultView(func() []*store.Record { return current }))
	for i := 0; i < 10; i++ {
		current = append(current, testRecord(fmt.Sprintf("u%d", i)))
		if _, err := h.Begin(store.InsertMutation(current[i])); err != nil {
			t.Fatal(err)
		}
	}
	// Offset 3 left the ring (base is 9): correct epoch is not enough.
	conn, cleanup := subscribe(t, h, &wire.ReplSubscribe{Epoch: h.Epoch(), From: 3})
	defer cleanup()
	snap := receiveTyped[*wire.ReplSnapshot](t, conn)
	if !snap.First || snap.Next != 11 || len(snap.Records) != 10 {
		t.Fatalf("snapshot = first=%v next=%d records=%d", snap.First, snap.Next, len(snap.Records))
	}
}

func TestHubChunksLargeSnapshots(t *testing.T) {
	h := NewHub()
	n := wire.MaxReplChunk + 5
	recs := make([]*store.Record, n)
	for i := range recs {
		recs[i] = testRecord(fmt.Sprintf("u%d", i))
	}
	h.BindStore(defaultView(func() []*store.Record { return recs }))
	conn, cleanup := subscribe(t, h, &wire.ReplSubscribe{})
	defer cleanup()
	first := receiveTyped[*wire.ReplSnapshot](t, conn)
	if !first.First || first.Done || len(first.Records) != wire.MaxReplChunk {
		t.Fatalf("chunk 1 = first=%v done=%v records=%d", first.First, first.Done, len(first.Records))
	}
	second := receiveTyped[*wire.ReplSnapshot](t, conn)
	if second.First || !second.Done || len(second.Records) != 5 {
		t.Fatalf("chunk 2 = first=%v done=%v records=%d", second.First, second.Done, len(second.Records))
	}
}

func TestHubHeartbeatsWhenIdle(t *testing.T) {
	h := NewHub(WithHeartbeat(20 * time.Millisecond))
	h.BindStore(defaultView(func() []*store.Record { return nil }))
	conn, cleanup := subscribe(t, h, &wire.ReplSubscribe{})
	defer cleanup()
	receiveTyped[*wire.ReplSnapshot](t, conn)
	hb := receiveTyped[*wire.ReplHeartbeat](t, conn)
	if hb.Latest != 0 || hb.Epoch != h.Epoch() {
		t.Fatalf("heartbeat = %+v", hb)
	}
}

func TestNewEpochNonZero(t *testing.T) {
	for i := 0; i < 100; i++ {
		if newEpoch() == 0 {
			t.Fatal("zero epoch")
		}
	}
}
