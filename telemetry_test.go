package fuzzyid_test

import (
	"fmt"
	"testing"

	"fuzzyid"
	"fuzzyid/internal/biometric"
)

// TestTelemetryEndToEnd drives a real TCP enroll→verify→identify→revoke
// sequence against a WithTelemetry system and asserts that every
// layer's counters moved: per-op protocol counts and latencies, transport
// connection/byte accounting, and WAL appends for the persistent store.
func TestTelemetryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	sys, err := fuzzyid.NewSystem(
		fuzzyid.Params{Line: fuzzyid.PaperLine(), Dimension: 32},
		fuzzyid.WithTelemetry(),
		fuzzyid.WithPersistence(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dialer, err := fuzzyid.NewSystem(fuzzyid.Params{Line: fuzzyid.PaperLine(), Dimension: 32})
	if err != nil {
		t.Fatal(err)
	}
	client, err := dialer.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	src, err := biometric.NewSource(sys.Extractor().Line(), biometric.Paper(32), 99)
	if err != nil {
		t.Fatal(err)
	}
	users := src.Population(3)
	for _, u := range users {
		if err := client.Enroll(u.ID, u.Template); err != nil {
			t.Fatalf("enroll %s: %v", u.ID, err)
		}
	}
	reading := func(i int) fuzzyid.Vector {
		r, err := src.GenuineReading(users[i])
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if err := client.Verify(users[0].ID, reading(0)); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if id, err := client.Identify(reading(1)); err != nil || id != users[1].ID {
		t.Fatalf("identify = (%q, %v)", id, err)
	}
	if err := client.Revoke(users[2].ID, reading(2)); err != nil {
		t.Fatalf("revoke: %v", err)
	}

	// The JSON document the -stats-addr endpoint serves, parsed back.
	buf, err := sys.StatsJSON()
	if err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	snap, err := fuzzyid.ParseStats(buf)
	if err != nil {
		t.Fatalf("parse stats: %v\n%s", err, buf)
	}

	wantCounters := map[string]uint64{
		"protocol.enroll.requests":   3,
		"protocol.verify.requests":   1,
		"protocol.identify.requests": 1,
		"protocol.revoke.requests":   1,
		"transport.conns.accepted":   1,
		"persist.wal.appends":        4, // 3 enrollments + 1 revocation
	}
	for name, want := range wantCounters {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for _, name := range []string{
		"protocol.enroll.errors", "protocol.verify.errors", "protocol.identify.errors",
	} {
		if got := snap.Counter(name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	if sys.Persistent() { // SyncAlways: at least one fsync per append
		if got := snap.Counter("persist.wal.fsyncs"); got < 4 {
			t.Errorf("persist.wal.fsyncs = %d, want >= 4", got)
		}
		// The group-commit instruments are part of the wire contract: every
		// durable append lands in a commit group (size >= 1), and every
		// group fsync records its latency. Operators and the benchmark
		// read these by name — see OPERATIONS.md.
		gs, ok := snap.Histograms["persist.wal.group_size"]
		if !ok || gs.Count < 4 {
			t.Errorf("persist.wal.group_size: present=%v count=%d, want >= 4 observations", ok, gs.Count)
		}
		fl, ok := snap.Histograms["persist.wal.fsync_latency"]
		if !ok || fl.Count < 4 {
			t.Errorf("persist.wal.fsync_latency: present=%v count=%d, want >= 4 observations", ok, fl.Count)
		}
	}
	for _, name := range []string{"transport.bytes.in", "transport.bytes.out"} {
		if got := snap.Counter(name); got == 0 {
			t.Errorf("%s = 0, want > 0", name)
		}
	}
	if got := snap.Gauges["transport.conns.active"]; got != 1 {
		t.Errorf("transport.conns.active = %d, want 1 (this client)", got)
	}
	hist := snap.Histograms["protocol.enroll.latency"]
	if hist.Count != 3 {
		t.Errorf("enroll latency count = %d, want 3", hist.Count)
	}
	if hist.Count > 0 && hist.P95MS <= 0 {
		t.Errorf("enroll latency p95 = %v, want > 0", hist.P95MS)
	}

	// The typed snapshot agrees with the JSON document on settled counters.
	local := sys.Stats()
	if got := local.Counter("protocol.enroll.requests"); got != 3 {
		t.Errorf("facade enroll requests = %d, want 3", got)
	}
}

// TestSecondListenerWhileServing opens a second listener on a telemetry
// system while identify sessions run on the first. Both listeners serve the
// one protocol engine, so opening one must not rebind that engine's
// instruments under the other's sessions (run it with -race), and every
// session of both lands in the one snapshot.
func TestSecondListenerWhileServing(t *testing.T) {
	sys, err := fuzzyid.NewSystem(fuzzyid.Params{Line: fuzzyid.PaperLine(), Dimension: 32}, fuzzyid.WithTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	src, err := biometric.NewSource(sys.Extractor().Line(), biometric.Paper(32), 7)
	if err != nil {
		t.Fatal(err)
	}
	u := src.NewUser("alice")
	readings := make([]fuzzyid.Vector, 41)
	for i := range readings {
		if readings[i], err = src.GenuineReading(u); err != nil {
			t.Fatal(err)
		}
	}
	client, err := sys.Dial(first.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Enroll(u.ID, u.Template); err != nil {
		t.Fatal(err)
	}

	serving, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for i, r := range readings[1:] {
			if id, err := client.Identify(r); err != nil || id != u.ID {
				done <- fmt.Errorf("identify %d on the first listener = (%q, %v)", i, id, err)
				return
			}
			if i == 0 {
				close(serving)
			}
		}
		done <- nil
	}()
	select {
	case <-serving:
	case err := <-done:
		t.Fatal(err)
	}
	second, err := sys.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	other, err := sys.Dial(second.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if id, err := other.Identify(readings[0]); err != nil || id != u.ID {
		t.Fatalf("identify on the second listener = (%q, %v)", id, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, want := sys.Stats().Counter("protocol.identify.requests"), uint64(len(readings)); got != want {
		t.Errorf("protocol.identify.requests = %d, want %d", got, want)
	}
}
