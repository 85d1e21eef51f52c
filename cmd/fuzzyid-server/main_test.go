package main

import (
	"io"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"fuzzyid"
	"fuzzyid/internal/biometric"
	"fuzzyid/internal/cluster"
	"fuzzyid/internal/vecfile"
)

func TestSetupAndServe(t *testing.T) {
	p, err := setup([]string{"-addr", "127.0.0.1:0", "-dim", "32", "-shards", "3"})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	defer p.Close()

	// A real client can complete a full protocol run against it.
	sys, err := fuzzyid.NewSystem(fuzzyid.Params{Line: fuzzyid.PaperLine(), Dimension: 32})
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.Dial(p.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	src, err := biometric.NewSource(sys.Extractor().Line(), biometric.Paper(32), 141)
	if err != nil {
		t.Fatal(err)
	}
	u := src.NewUser("alice")
	if err := client.Enroll(u.ID, u.Template); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	reading, err := src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	id, err := client.Identify(reading)
	if err != nil || id != u.ID {
		t.Fatalf("identify = (%q, %v)", id, err)
	}
	// Exercise vecfile interop: dump the template the way the CLI would.
	if err := vecfile.WriteFile(filepath.Join(t.TempDir(), "a.vec"), u.Template); err != nil {
		t.Fatal(err)
	}

	// -cluster without -advertise names this node by -addr: it leads the
	// one-partition cluster and owns every slot.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cp, err := setup([]string{"-addr", addr, "-dim", "32", "-cluster", addr})
	if err != nil {
		t.Fatalf("setup -cluster without -advertise: %v", err)
	}
	defer cp.Close()
	if self, slots, ok := cp.sys.ClusterSelf(); !ok || self != addr || len(slots) != cluster.NumSlots {
		t.Fatalf("cluster self = (%q, %d slots, %v), want (%q, %d, true)", self, len(slots), ok, addr, cluster.NumSlots)
	}
}

// TestStatsEndpoint boots the server with -stats-addr, runs one enroll and
// one identify over TCP, and checks both HTTP paths serve a snapshot whose
// counters reflect the traffic.
func TestStatsEndpoint(t *testing.T) {
	p, err := setup([]string{"-addr", "127.0.0.1:0", "-dim", "32", "-stats-addr", "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	defer p.Close()
	if p.StatsAddr() == "" {
		t.Fatal("stats endpoint not started")
	}
	dialer, err := fuzzyid.NewSystem(fuzzyid.Params{Line: fuzzyid.PaperLine(), Dimension: 32})
	if err != nil {
		t.Fatal(err)
	}
	client, err := dialer.Dial(p.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	src, err := biometric.NewSource(dialer.Extractor().Line(), biometric.Paper(32), 7)
	if err != nil {
		t.Fatal(err)
	}
	u := src.NewUser("alice")
	if err := client.Enroll(u.ID, u.Template); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	reading, err := src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := client.Identify(reading); err != nil || id != u.ID {
		t.Fatalf("identify = (%q, %v)", id, err)
	}
	for _, path := range []string{"/stats", "/metrics"} {
		resp, err := http.Get("http://" + p.StatsAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		snap, err := fuzzyid.ParseStats(body)
		if err != nil {
			t.Fatalf("parse %s: %v\n%s", path, err, body)
		}
		if got := snap.Counter("protocol.enroll.requests"); got != 1 {
			t.Errorf("%s: enroll requests = %d, want 1", path, got)
		}
		if got := snap.Counter("protocol.identify.requests"); got != 1 {
			t.Errorf("%s: identify requests = %d, want 1", path, got)
		}
	}
	// -stats-addr without telemetry is a configuration error.
	if _, err := setup([]string{"-telemetry=false", "-stats-addr", "127.0.0.1:0"}); err == nil {
		t.Error("-stats-addr without -telemetry accepted")
	}
}

// TestPprofEndpoint checks the stats address also serves the Go profiler:
// the index and a named profile answer 200.
func TestPprofEndpoint(t *testing.T) {
	p, err := setup([]string{"-addr", "127.0.0.1:0", "-dim", "32", "-stats-addr", "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	defer p.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1"} {
		resp, err := http.Get("http://" + p.StatsAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
	}
}

func TestSetupValidation(t *testing.T) {
	// The store-selection flags are gone; naming one is a flag error.
	for _, flag := range []string{"-strategy", "-residue-width", "-coarse-filter"} {
		if _, err := setup([]string{flag, "1"}); err == nil {
			t.Errorf("removed flag %s accepted", flag)
		}
	}
	if _, err := setup([]string{"-scheme", "rsa"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := setup([]string{"-extractor", "md5"}); err == nil {
		t.Error("unknown extractor accepted")
	}
	if _, err := setup([]string{"-addr", "256.256.256.256:99999"}); err == nil {
		t.Error("unlistenable address accepted")
	}
	if _, err := setup([]string{"-no-such-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestDataFlagRecovery checks the -data flag end to end in-process: enroll
// over TCP, shut the server down gracefully (which flushes the journal
// through the server's Close), then boot a second server from the same
// directory and identify.
func TestDataFlagRecovery(t *testing.T) {
	dir := t.TempDir()
	p, err := setup([]string{"-addr", "127.0.0.1:0", "-dim", "32", "-data", dir})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	if !p.sys.Persistent() {
		t.Fatal("system not persistent with -data")
	}
	if p.snapIvl <= 0 {
		t.Fatalf("default snapshot interval = %v", p.snapIvl)
	}
	dialer, err := fuzzyid.NewSystem(fuzzyid.Params{Line: fuzzyid.PaperLine(), Dimension: 32})
	if err != nil {
		t.Fatal(err)
	}
	src, err := biometric.NewSource(dialer.Extractor().Line(), biometric.Paper(32), 171)
	if err != nil {
		t.Fatal(err)
	}
	client, err := dialer.Dial(p.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	users := src.Population(3)
	for _, u := range users {
		if err := client.Enroll(u.ID, u.Template); err != nil {
			t.Fatalf("enroll %s: %v", u.ID, err)
		}
	}
	client.Close()
	if err := p.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}

	p2, err := setup([]string{"-addr", "127.0.0.1:0", "-dim", "32", "-data", dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer p2.Close()
	if got := p2.sys.Enrolled(); got != len(users) {
		t.Fatalf("recovered %d enrollments, want %d", got, len(users))
	}
	client2, err := dialer.Dial(p2.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	for _, u := range users {
		reading, err := src.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		if id, err := client2.Identify(reading); err != nil || id != u.ID {
			t.Fatalf("identify %s after restart = (%q, %v)", u.ID, id, err)
		}
	}
}

// TestReplicationFlags boots a primary with -serve-replication and a
// follower with -replica-of through the real flag path, replicates an
// enrollment across, and checks the follower redirects mutations.
func TestReplicationFlags(t *testing.T) {
	pri, err := setup([]string{"-addr", "127.0.0.1:0", "-dim", "32", "-serve-replication"})
	if err != nil {
		t.Fatalf("primary setup: %v", err)
	}
	defer pri.Close()
	fol, err := setup([]string{"-addr", "127.0.0.1:0", "-dim", "32",
		"-replica-of", pri.srv.Addr().String()})
	if err != nil {
		t.Fatalf("follower setup: %v", err)
	}
	defer fol.Close()

	sys, err := fuzzyid.NewSystem(fuzzyid.Params{Line: fuzzyid.PaperLine(), Dimension: 32})
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.Dial(pri.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	src, err := biometric.NewSource(sys.Extractor().Line(), biometric.Paper(32), 151)
	if err != nil {
		t.Fatal(err)
	}
	u := src.NewUser("replicated-alice")
	if err := client.Enroll(u.ID, u.Template); err != nil {
		t.Fatalf("enroll: %v", err)
	}

	folClient, err := sys.Dial(fol.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer folClient.Close()
	// Wait for the enrollment to replicate, then identify on the follower.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := folClient.ReplStatus()
		if err == nil && st.Role == "replica" && st.Connected && st.Lag == 0 && st.Applied > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never synced (status %+v, err %v)", st, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	reading, err := src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	id, err := folClient.Identify(reading)
	if err != nil || id != u.ID {
		t.Fatalf("identify on follower = (%q, %v)", id, err)
	}
	if err := folClient.Enroll(u.ID, u.Template); err == nil {
		t.Fatal("follower accepted an enrollment")
	} else if primary, ok := fuzzyid.IsNotPrimary(err); !ok || primary != pri.srv.Addr().String() {
		t.Fatalf("follower enroll error = %v (primary %q), want NotPrimary redirect", err, primary)
	}
}

// TestReplicationFlagValidation pins the unsupported flag combinations.
func TestReplicationFlagValidation(t *testing.T) {
	if _, err := setup([]string{"-replica-of", "127.0.0.1:1", "-data", t.TempDir()}); err == nil {
		t.Error("-replica-of with -data accepted")
	}
	if _, err := setup([]string{"-replica-of", "127.0.0.1:1", "-serve-replication"}); err == nil {
		t.Error("-replica-of with -serve-replication accepted")
	}
}
