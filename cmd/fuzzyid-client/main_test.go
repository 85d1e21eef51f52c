package main

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fuzzyid"
)

// startServer runs an in-process dimension-64 authentication server built
// with opts on addr and returns its bound address.
func startServer(t *testing.T, addr string, opts ...fuzzyid.Option) string {
	t.Helper()
	sys, err := fuzzyid.NewSystem(fuzzyid.Params{Line: fuzzyid.PaperLine(), Dimension: 64}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); sys.Close() })
	return srv.Addr().String()
}

func TestClientLifecycle(t *testing.T) {
	dir := t.TempDir()
	addr := startServer(t, "127.0.0.1:0")
	template := filepath.Join(dir, "alice.vec")
	probe := filepath.Join(dir, "probe.vec")

	if err := run([]string{"newuser", "-dim", "64", "-out", template, "-seed", "1"}); err != nil {
		t.Fatalf("newuser: %v", err)
	}
	if err := run([]string{"reading", "-vec", template, "-out", probe, "-seed", "2"}); err != nil {
		t.Fatalf("reading: %v", err)
	}
	if err := run([]string{"-addr", addr, "enroll", "-id", "alice", "-vec", template}); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	if err := run([]string{"-addr", addr, "verify", "-id", "alice", "-vec", probe}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := run([]string{"-addr", addr, "identify", "-vec", probe}); err != nil {
		t.Fatalf("identify: %v", err)
	}
	if err := run([]string{"-addr", addr, "identify", "-vec", probe, "-normal"}); err != nil {
		t.Fatalf("identify -normal: %v", err)
	}
	if err := run([]string{"-addr", addr, "revoke", "-id", "alice", "-vec", probe}); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	// Identity gone after revocation.
	if err := run([]string{"-addr", addr, "verify", "-id", "alice", "-vec", probe}); err == nil {
		t.Fatal("verify succeeded after revocation")
	}
}

func TestClientImpostorRejected(t *testing.T) {
	dir := t.TempDir()
	addr := startServer(t, "127.0.0.1:0")
	template := filepath.Join(dir, "alice.vec")
	impostor := filepath.Join(dir, "impostor.vec")
	if err := run([]string{"newuser", "-dim", "64", "-out", template, "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"newuser", "-dim", "64", "-out", impostor, "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-addr", addr, "enroll", "-id", "alice", "-vec", template}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-addr", addr, "identify", "-vec", impostor}); err == nil {
		t.Fatal("impostor identified")
	}
}

func TestClientValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"dance"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"newuser"}); err == nil {
		t.Error("newuser without -out accepted")
	}
	if err := run([]string{"reading", "-vec", "x"}); err == nil {
		t.Error("reading without -out accepted")
	}
	if err := run([]string{"enroll", "-vec", "/does/not/exist", "-id", "x"}); err == nil {
		t.Error("missing vector accepted")
	}
	dir := t.TempDir()
	vec := filepath.Join(dir, "v.vec")
	if err := run([]string{"newuser", "-dim", "8", "-out", vec}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"enroll", "-vec", vec}); err == nil {
		t.Error("enroll without -id accepted")
	}
	if err := run([]string{"verify", "-vec", vec}); err == nil {
		t.Error("verify without -id accepted")
	}
	if err := run([]string{"revoke", "-vec", vec}); err == nil {
		t.Error("revoke without -id accepted")
	}
}

func TestClientTenantLimits(t *testing.T) {
	addr := startServer(t, "127.0.0.1:0", fuzzyid.WithQoS(fuzzyid.QoSLimits{}))
	if err := run([]string{"-addr", addr, "tenant", "create", "-name", "acme"}); err != nil {
		t.Fatalf("tenant create: %v", err)
	}
	if err := run([]string{"-addr", addr, "tenant", "limits", "-name", "acme"}); err != nil {
		t.Fatalf("tenant limits (defaults): %v", err)
	}
	if err := run([]string{"-addr", addr, "tenant", "limits", "-name", "acme",
		"-set", "-rate", "50", "-burst", "25", "-concurrency", "8", "-weight", "2"}); err != nil {
		t.Fatalf("tenant limits -set: %v", err)
	}
	if err := run([]string{"-addr", addr, "tenant", "limits", "-name", "acme"}); err != nil {
		t.Fatalf("tenant limits (override): %v", err)
	}
	if err := run([]string{"-addr", addr, "tenant", "limits", "-name", "ghost"}); err == nil {
		t.Fatal("tenant limits on unknown tenant accepted")
	}
	// A server without admission control refuses limits operations.
	plain := startServer(t, "127.0.0.1:0")
	if err := run([]string{"-addr", plain, "tenant", "limits"}); err == nil {
		t.Fatal("tenant limits accepted by a server without QoS")
	}
}

// output runs the client and returns what it printed, failing the test if
// the command fails.
func output(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		buf, _ := io.ReadAll(r)
		printed <- string(buf)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	out := <-printed
	r.Close()
	if runErr != nil {
		t.Fatalf("%s: %v\n%s", strings.Join(args, " "), runErr, out)
	}
	return out
}

// field returns the value of the "key: value" line in out ("" if absent).
func field(out, key string) string {
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, key+": "); ok {
			return v
		}
	}
	return ""
}

// TestClientReplStatus reads a primary and its follower through
// repl-status: the follower converges on the primary's latest offset,
// with zero lag and a live stream.
func TestClientReplStatus(t *testing.T) {
	dir := t.TempDir()
	primary := startServer(t, "127.0.0.1:0", fuzzyid.WithReplication())
	follower := startServer(t, "127.0.0.1:0", fuzzyid.WithReplicaOf(primary))
	template := filepath.Join(dir, "alice.vec")
	if err := run([]string{"newuser", "-dim", "64", "-out", template, "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-addr", primary, "enroll", "-id", "alice", "-vec", template}); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	pri := output(t, "-addr", primary, "repl-status")
	if field(pri, "role") != "primary" || field(pri, "latest") == "0" {
		t.Fatalf("primary repl-status:\n%s", pri)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		fol := output(t, "-addr", follower, "repl-status")
		if field(fol, "role") == "replica" && field(fol, "applied") == field(pri, "latest") &&
			field(fol, "lag") == "0" && field(fol, "connected") == "true" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged on latest %s:\n%s", field(pri, "latest"), fol)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClientClusterMapAndSplit prints a two-partition cluster's map, splits
// half of partition 0's slots onto a joining node, and reads the new map
// back from the node that took no part in the handoff.
func TestClientClusterMapAndSplit(t *testing.T) {
	addrs := make([]string, 3)
	lns := make([]net.Listener, len(addrs))
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	spec := addrs[0] + ";" + addrs[1]
	for _, addr := range addrs {
		// The third node is absent from the spec: it joins owning nothing.
		startServer(t, addr, fuzzyid.WithClusterNode(addr, spec))
	}
	before := output(t, "-addr", addrs[0], "cluster", "map")
	if field(before, "version") != "1" || field(before, "partitions") != "2" {
		t.Fatalf("map before the split:\n%s", before)
	}
	split := output(t, "-addr", addrs[0], "cluster", "split", "-target", addrs[2])
	if !strings.Contains(split, "now owned by "+addrs[2]+" (map version 2)") {
		t.Fatalf("split output:\n%s", split)
	}
	after := output(t, "-addr", addrs[1], "cluster", "map")
	if field(after, "version") != "2" || field(after, "partitions") != "3" ||
		!strings.Contains(after, "primary "+addrs[2]) {
		t.Fatalf("map after the split, read from the non-participant:\n%s", after)
	}
}
