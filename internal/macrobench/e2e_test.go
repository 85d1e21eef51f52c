package macrobench

import (
	"net"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// freePort reserves an ephemeral port and returns its address; the listener
// is closed so the spawned server can bind it (the usual tiny race is
// acceptable in a test).
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestProcLifecycleAgainstRealServer drives the whole Proc contract against
// the actual fuzzyid-server binary: spawn with injected -addr/-stats-addr,
// readiness on both endpoints, RSS sampling from /proc, a stats scrape with
// GC deltas against the post-readiness baseline, and an orderly SIGTERM
// shutdown.
func TestProcLifecycleAgainstRealServer(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping subprocess test")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "fuzzyid-server")
	if out, err := exec.Command(goTool, "build", "-o", bin, "fuzzyid/cmd/fuzzyid-server").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	addr, statsAddr := freePort(t), freePort(t)
	p, err := Start(bin, []string{"-dim", "16"}, addr, statsAddr, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if p.Pid() <= 0 {
		t.Errorf("Pid = %d", p.Pid())
	}
	// Both endpoints must actually accept (Start's readiness contract).
	for _, a := range []string{addr, statsAddr} {
		c, err := net.DialTimeout("tcp", a, time.Second)
		if err != nil {
			t.Fatalf("server not accepting on %s after Start: %v", a, err)
		}
		c.Close()
	}
	time.Sleep(150 * time.Millisecond) // let the sampler take a few readings

	u, err := p.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if u.RSSSamples < 2 {
		t.Errorf("RSS samples = %d, want several", u.RSSSamples)
	}
	if u.PeakRSSBytes == 0 || u.LastRSSBytes == 0 {
		t.Errorf("RSS not measured: %+v", u)
	}
	if u.PeakRSSBytes < u.LastRSSBytes {
		t.Errorf("peak %d < last %d", u.PeakRSSBytes, u.LastRSSBytes)
	}
	if u.HeapAllocBytes == 0 || u.HeapSysBytes == 0 {
		t.Errorf("stats scrape missed heap: %+v", u)
	}
	// An idle run's GC delta is near zero but must never be negative.
	if u.GCPauseTotalMS < 0 {
		t.Errorf("negative GC pause delta: %v", u.GCPauseTotalMS)
	}

	// A second Stop-style scrape against a dead server must fail loudly,
	// and Start against a binary that exits immediately must not hang.
	if _, err := Start("/bin/false", nil, addr, statsAddr, 0); err == nil {
		t.Error("Start(/bin/false) succeeded")
	}
}
