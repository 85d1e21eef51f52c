package fuzzyid

// Facade-level QoS tests: the WithQoS admission path over a real client,
// the typed IsOverloaded contract, per-tenant overrides via both the System
// API and the wire protocol, bounded overload retry, the guarantee that a
// lone tenant under quota is never penalised by admission control, and the
// noisy-neighbor A/B against a server without it.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fuzzyid/internal/biometric"
)

const qosTestDim = 64

// qosSystem builds a telemetry-instrumented system with the given QoS
// options, a listening server and a biometric source.
func qosSystem(t *testing.T, opts ...Option) (*System, string, *biometric.Source) {
	t.Helper()
	opts = append([]Option{WithTelemetry()}, opts...)
	sys, err := NewSystem(Params{Line: PaperLine(), Dimension: qosTestDim}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	src, err := biometric.NewSource(sys.Extractor().Line(), biometric.Paper(qosTestDim), 901)
	if err != nil {
		t.Fatal(err)
	}
	return sys, srv.Addr().String(), src
}

// TestQoSOverloadSurfacesTypedError drains a tiny rate budget and checks
// the shed surfaces as IsOverloaded with a retry hint, then that waiting
// out the hint admits the next session.
func TestQoSOverloadSurfacesTypedError(t *testing.T) {
	sys, addr, src := qosSystem(t,
		WithQoS(QoSLimits{Rate: 5, Burst: 1}),
		WithQoSBudget(time.Millisecond))
	client, err := sys.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	u := src.NewUser("alice")
	if err := client.Enroll("alice", u.Template); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	reading, err := src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	// The burst is spent; the next session inside the 200ms refill window
	// must shed with the typed error.
	var hint time.Duration
	sawShed := false
	for i := 0; i < 3 && !sawShed; i++ {
		_, err = client.Identify(reading)
		hint, sawShed = IsOverloaded(err)
	}
	if !sawShed {
		t.Fatalf("rate budget never shed; last err = %v", err)
	}
	if hint <= 0 {
		t.Fatalf("retry hint = %v, want > 0", hint)
	}
	time.Sleep(hint + 50*time.Millisecond)
	if id, err := client.Identify(reading); err != nil || id != "alice" {
		t.Fatalf("identify after backoff = %q, %v", id, err)
	}
	// The sheds are visible in the per-tenant telemetry.
	if sys.Stats().Counter("tenant.default.shed") == 0 {
		t.Error("tenant.default.shed = 0 after an overload")
	}
}

// TestQoSOverloadRetryMasksShed pins WithOverloadRetry: the same overload
// that surfaces to a plain client is absorbed by a retrying one.
func TestQoSOverloadRetryMasksShed(t *testing.T) {
	sys, addr, src := qosSystem(t,
		WithQoS(QoSLimits{Rate: 20, Burst: 1}),
		WithQoSBudget(time.Millisecond))
	client, err := sys.Dial(addr, WithOverloadRetry(5))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	u := src.NewUser("alice")
	if err := client.Enroll("alice", u.Template); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	reading, err := src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	// Back-to-back sessions overrun the 20/s budget repeatedly; with
	// bounded retry every one of them must still succeed.
	for i := 0; i < 6; i++ {
		if id, err := client.Identify(reading); err != nil || id != "alice" {
			t.Fatalf("identify %d = %q, %v", i, id, err)
		}
	}
	if sys.Stats().Counter("tenant.default.shed") == 0 {
		t.Error("tenant.default.shed = 0: the retry option masked nothing")
	}
}

// TestQoSTenantOverrideRoundTrip sets a per-tenant override through the
// wire protocol and reads it back through both the wire and the System API.
func TestQoSTenantOverrideRoundTrip(t *testing.T) {
	sys, addr, _ := qosSystem(t, WithQoS(QoSLimits{}))
	if err := sys.CreateTenant("acme"); err != nil {
		t.Fatal(err)
	}
	client, err := sys.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	want := QoSLimits{Rate: 2.5, Burst: 2, MaxConcurrent: 3, Weight: 4}
	if err := client.SetTenantLimits("acme", want); err != nil {
		t.Fatalf("set limits: %v", err)
	}
	got, overridden, err := client.TenantLimits("acme")
	if err != nil || !overridden || got != want {
		t.Fatalf("wire limits = %+v overridden=%v err=%v, want %+v", got, overridden, err, want)
	}
	if got, overridden := sys.TenantLimits("acme"); !overridden || got != want {
		t.Fatalf("system limits = %+v overridden=%v, want %+v", got, overridden, want)
	}
	// The default tenant still answers the defaults.
	if _, overridden, err := client.TenantLimits(""); err != nil || overridden {
		t.Fatalf("default tenant overridden=%v err=%v, want false", overridden, err)
	}
	// Dropping the tenant forgets its override state.
	if err := sys.DropTenant("acme"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetTenantLimits("acme", want); err == nil {
		t.Fatal("set limits on dropped tenant succeeded")
	}
}

// TestQoSLoneTenantUnderQuotaUnimpeded is the "no collateral damage"
// guarantee: with QoS on at permissive defaults, a single tenant inside its
// envelope never sees a shed or a throttle.
func TestQoSLoneTenantUnderQuotaUnimpeded(t *testing.T) {
	sys, addr, src := qosSystem(t, WithQoS(QoSLimits{}))
	client, err := sys.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	u := src.NewUser("alice")
	if err := client.Enroll("alice", u.Template); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	reading, err := src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if id, err := client.Identify(reading); err != nil || id != "alice" {
			t.Fatalf("identify %d = %q, %v", i, id, err)
		}
	}
	snap := sys.Stats()
	for _, name := range []string{"tenant.default.shed", "tenant.default.throttled"} {
		if got := snap.Counter(name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}

// The noisy-neighbor shape of TestQoSNoisyNeighborAB: closed-loop victim
// tenants beside one flood tenant whose clients spin flat out under a
// rate-50, burst-25 override. The arms alternate in short windows, so load
// from outside the test lands on both alike.
const (
	nnVictims       = 2
	nnVictimWorkers = 4
	nnFloodWorkers  = 64
	nnUsers         = 50
	nnWindows       = 3
	nnWindow        = 500 * time.Millisecond
)

// nnTenant is one namespace of a noisy-neighbor arm: its closed-loop
// clients, the genuine readings they cycle through, and what they saw.
type nnTenant struct {
	name     string
	clients  []*Client
	pop      []*biometric.User
	readings []Vector
	shed     atomic.Uint64
	mu       sync.Mutex
	lat      []time.Duration // every completed identify, shed or not
}

// nnArm is one arm of TestQoSNoisyNeighborAB: a server with admission
// control on (250ms budget, 4 scan slots, the flood override installed
// over the wire) or off, its victim tenants and, last, the flood.
type nnArm struct {
	sys     *System
	tenants []*nnTenant
}

func newNoisyNeighborArm(t *testing.T, protected bool) *nnArm {
	t.Helper()
	var opts []Option
	if protected {
		opts = []Option{WithQoS(QoSLimits{}), WithQoSBudget(250 * time.Millisecond), WithScanSlots(4)}
	}
	sys, addr, _ := qosSystem(t, opts...)
	arm := &nnArm{sys: sys}
	for i := 0; i <= nnVictims; i++ {
		name, workers := fmt.Sprintf("victim-%d", i), nnVictimWorkers
		if i == nnVictims {
			name, workers = "flood", nnFloodWorkers
		}
		if err := sys.CreateTenant(name); err != nil {
			t.Fatal(err)
		}
		tn := &nnTenant{name: name}
		for w := 0; w < workers; w++ {
			c, err := sys.Dial(addr, WithTenant(name))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			tn.clients = append(tn.clients, c)
		}
		src, err := biometric.NewSource(sys.Extractor().Line(), biometric.Paper(qosTestDim), int64(910+i))
		if err != nil {
			t.Fatal(err)
		}
		// The population enrolls before the override lands, so set-up is
		// never throttled.
		for u := 0; u < nnUsers; u++ {
			user := src.NewUser(fmt.Sprintf("%s-%03d", name, u))
			if err := tn.clients[u%workers].Enroll(user.ID, user.Template); err != nil {
				t.Fatalf("enroll %s: %v", user.ID, err)
			}
			reading, err := src.GenuineReading(user)
			if err != nil {
				t.Fatal(err)
			}
			tn.pop = append(tn.pop, user)
			tn.readings = append(tn.readings, reading)
		}
		arm.tenants = append(arm.tenants, tn)
	}
	if protected {
		flood := arm.tenants[nnVictims]
		if err := flood.clients[0].SetTenantLimits(flood.name, QoSLimits{Rate: 50, Burst: 25}); err != nil {
			t.Fatalf("set flood limits: %v", err)
		}
	}
	return arm
}

// run drives every tenant's clients closed-loop for one window.
func (a *nnArm) run(t *testing.T, window time.Duration) {
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for _, tn := range a.tenants {
		for w, c := range tn.clients {
			wg.Add(1)
			go func(tn *nnTenant, w int, c *Client) {
				defer wg.Done()
				var lat []time.Duration
				defer func() {
					tn.mu.Lock()
					tn.lat = append(tn.lat, lat...)
					tn.mu.Unlock()
				}()
				for i := w; time.Now().Before(deadline); i++ {
					k := i % len(tn.readings)
					start := time.Now()
					id, err := c.Identify(tn.readings[k])
					lat = append(lat, time.Since(start))
					if _, overloaded := IsOverloaded(err); overloaded {
						tn.shed.Add(1)
						continue
					}
					if err != nil || id != tn.pop[k].ID {
						t.Errorf("%s worker %d: identify %s = %q, %v", tn.name, w, tn.pop[k].ID, id, err)
						return
					}
				}
			}(tn, w, c)
		}
	}
	wg.Wait()
}

// victimP99 is victim-0's nearest-rank p99 over every window run.
func (a *nnArm) victimP99(t *testing.T) time.Duration {
	lat := a.tenants[0].lat
	if len(lat) == 0 {
		t.Fatal("victim-0 completed no identifies")
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[(len(lat)*99+99)/100-1]
}

// TestQoSNoisyNeighborAB is the noisy-neighbor contract, both arms in one
// process. Protected: the flood is shed, its clients' count equals the
// server's tenant.flood.shed exactly, and no victim is shed on either side.
// Unprotected (no admission control): nothing sheds, and victim-0's p99
// degrades to at least 1.3x the protected arm's — the degradation a
// silently disabled QoS layer would let through.
func TestQoSNoisyNeighborAB(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the two-arm load test")
	}
	on, off := newNoisyNeighborArm(t, true), newNoisyNeighborArm(t, false)
	for i := 0; i < nnWindows; i++ {
		on.run(t, nnWindow)
		off.run(t, nnWindow)
	}
	snap := on.sys.Stats()
	for _, tn := range on.tenants {
		client, server := tn.shed.Load(), snap.Counter("tenant."+tn.name+".shed")
		t.Logf("protected arm: %s shed %d of %d identifies", tn.name, client, len(tn.lat))
		if client != server {
			t.Errorf("protected arm: %s clients saw %d sheds, server counted %d", tn.name, client, server)
		}
		switch {
		case tn.name == "flood" && client == 0:
			t.Error("protected arm: the flood was never shed")
		case tn.name != "flood" && (client != 0 || server != 0):
			t.Errorf("protected arm: %s shed %d (server %d), want 0", tn.name, client, server)
		}
	}
	for _, tn := range off.tenants {
		if n := tn.shed.Load(); n != 0 {
			t.Errorf("unprotected arm: %s shed %d, want 0", tn.name, n)
		}
	}
	p99On, p99Off := on.victimP99(t), off.victimP99(t)
	factor := float64(p99Off) / float64(p99On)
	t.Logf("victim-0 p99: protected %v, unprotected %v (%.2fx)", p99On, p99Off, factor)
	if factor < 1.3 {
		t.Errorf("victim-0 p99 unprotected %v < 1.3x protected %v (%.2fx)", p99Off, p99On, factor)
	}
}
