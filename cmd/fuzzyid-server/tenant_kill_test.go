package main

import (
	"bufio"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fuzzyid"
	"fuzzyid/internal/biometric"
	"fuzzyid/internal/protocol"
)

// startServerProc launches the built fuzzyid-server binary with the given
// extra flags and returns the process plus its bound protocol address.
func startServerProc(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	proc := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-dim", "32"}, args...)...)
	stdout, err := proc.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		proc.Process.Kill()
		t.Fatalf("no startup line: %v", sc.Err())
	}
	line := sc.Text()
	fields := strings.Fields(line)
	var addr string
	for i, f := range fields {
		if f == "on" && i+1 < len(fields) {
			addr = fields[i+1]
		}
	}
	if addr == "" {
		proc.Process.Kill()
		t.Fatalf("no address in startup line %q", line)
	}
	go func() { // drain so the child never blocks on a full pipe
		for sc.Scan() {
		}
	}()
	return proc, addr
}

// TestMultiTenantSIGKILLRecoveryViaFollower is the tenancy acceptance
// scenario against the real binaries: two tenants enrolled through one
// primary (same user ID, different templates), identified through a live
// follower, then the primary is SIGKILLed mid-enrollment and restarted —
// and both namespaces must recover with zero cross-tenant leakage, with
// every acknowledged enrollment intact.
func TestMultiTenantSIGKILLRecoveryViaFollower(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping subprocess test")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "fuzzyid-server")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	const dim = 32
	dir := t.TempDir()
	primary, priAddr := startServerProc(t, bin, "-data", dir, "-serve-replication")
	killPrimary := func() {
		if primary != nil {
			primary.Process.Kill()
			primary.Wait()
		}
	}
	defer func() { killPrimary() }()
	follower, folAddr := startServerProc(t, bin, "-replica-of", priAddr)
	defer func() {
		follower.Process.Kill()
		follower.Wait()
	}()

	dialer, err := fuzzyid.NewSystem(fuzzyid.Params{Line: fuzzyid.PaperLine(), Dimension: dim})
	if err != nil {
		t.Fatal(err)
	}
	newSrc := func(seed int64) *biometric.Source {
		src, err := biometric.NewSource(dialer.Extractor().Line(), biometric.Paper(dim), seed)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	srcA, srcB := newSrc(811), newSrc(812)

	admin, err := dialer.Dial(priAddr)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta"} {
		if err := admin.CreateTenant(name); err != nil {
			t.Fatalf("create tenant %s: %v", name, err)
		}
	}
	admin.Close()

	dialTenant := func(addr, tenant string) *fuzzyid.Client {
		t.Helper()
		c, err := dialer.Dial(addr, fuzzyid.WithTenant(tenant))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// The shared identity: "alice" in alpha and in beta, different
	// biometrics.
	aliceA, aliceB := srcA.NewUser("alice"), srcB.NewUser("alice")
	alphaCli := dialTenant(priAddr, "alpha")
	if err := alphaCli.Enroll("alice", aliceA.Template); err != nil {
		t.Fatal(err)
	}
	alphaCli.Close()
	betaCli := dialTenant(priAddr, "beta")
	if err := betaCli.Enroll("alice", aliceB.Template); err != nil {
		t.Fatal(err)
	}

	readA, err := srcA.GenuineReading(aliceA)
	if err != nil {
		t.Fatal(err)
	}
	readB, err := srcB.GenuineReading(aliceB)
	if err != nil {
		t.Fatal(err)
	}

	// Identify both tenants through the follower (wait for it to sync).
	folAlpha := dialTenant(folAddr, "alpha")
	defer folAlpha.Close()
	folBeta := dialTenant(folAddr, "beta")
	defer folBeta.Close()
	// Wait for both tenants: beta's enrollment streams after alpha's, so
	// alpha being visible on the follower does not mean beta's frame applied.
	deadline := time.Now().Add(20 * time.Second)
	for {
		idA, errA := folAlpha.Identify(readA)
		idB, errB := folBeta.Identify(readB)
		if errA == nil && idA == "alice" && errB == nil && idB == "alice" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never served both tenants: alpha = (%q, %v), beta = (%q, %v)", idA, errA, idB, errB)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Zero cross-tenant leakage on the follower.
	if id, err := folBeta.Identify(readA); err == nil {
		t.Fatalf("follower beta identified alpha's biometric as %q", id)
	} else if !fuzzyid.IsRejected(err) && !errors.Is(err, protocol.ErrNoMatch) {
		t.Fatalf("follower cross-tenant identify: %v", err)
	}

	// SIGKILL the primary mid-enrollment: a stream of beta enrollments is
	// acknowledged one by one, the kill lands while more are in flight.
	var mu sync.Mutex
	var acked []*biometric.User
	enrollDone := make(chan struct{})
	go func() {
		defer close(enrollDone)
		for i := 0; i < 200; i++ {
			u := srcB.NewUser(fmt.Sprintf("beta-%03d", i))
			if err := betaCli.Enroll(u.ID, u.Template); err != nil {
				return // the kill severed the connection
			}
			mu.Lock()
			acked = append(acked, u)
			mu.Unlock()
		}
	}()
	killDeadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 20 {
			break
		}
		if time.Now().After(killDeadline) {
			t.Fatalf("only %d enrollments acknowledged before deadline", n)
		}
		time.Sleep(time.Millisecond)
	}
	killPrimary()
	primary = nil
	<-enrollDone
	betaCli.Close()

	// Restart from the same data dir: both tenants recover, every
	// acknowledged beta enrollment identifies, and alpha still holds
	// exactly its own alice.
	primary2, priAddr2 := startServerProc(t, bin, "-data", dir, "-serve-replication")
	defer func() {
		primary2.Process.Kill()
		primary2.Wait()
	}()
	alpha2 := dialTenant(priAddr2, "alpha")
	defer alpha2.Close()
	beta2 := dialTenant(priAddr2, "beta")
	defer beta2.Close()

	if id, err := alpha2.Identify(readA); err != nil || id != "alice" {
		t.Fatalf("recovered alpha identify = (%q, %v)", id, err)
	}
	if id, err := beta2.Identify(readB); err != nil || id != "alice" {
		t.Fatalf("recovered beta identify = (%q, %v)", id, err)
	}
	if id, err := alpha2.Identify(readB); err == nil {
		t.Fatalf("recovered alpha identified beta's biometric as %q — cross-tenant leak after recovery", id)
	}
	mu.Lock()
	final := append([]*biometric.User(nil), acked...)
	mu.Unlock()
	t.Logf("killed after %d acknowledged beta enrollments", len(final))
	for _, u := range final {
		reading, err := srcB.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		id, err := beta2.Identify(reading)
		if err != nil || id != u.ID {
			t.Fatalf("durably-acknowledged beta user %s lost after SIGKILL: identify = (%q, %v)", u.ID, id, err)
		}
	}
}
