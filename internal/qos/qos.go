// Package qos is the admission-control layer of the authentication server:
// per-tenant token-bucket rate limits, per-tenant concurrency quotas, and
// weighted-fair scheduling of the shared identification scan slots. The
// protocol layer consults a Controller before it runs tenant work; every
// decision that delays or rejects a session is counted in the per-tenant
// telemetry, and rejections carry a retry-after hint so clients can back
// off instead of hammering (DESIGN.md §12, OPERATIONS.md §8).
//
// The controller is deliberately permissive at its zero value: a limit of
// 0 means "unlimited", so a deployment that never configures QoS pays one
// mutex acquisition per session and nothing else. Overload protection
// engages only where the operator (or a per-tenant override set over the
// tenant-admin wire op) draws a line.
package qos

import (
	"fmt"
	"sync"
	"time"

	"fuzzyid/internal/telemetry"
)

// Limits is one tenant's QoS envelope. The zero value of every field means
// "no limit" (weight 0 is treated as weight 1).
type Limits struct {
	// Rate is the sustained session-admission rate in sessions/second
	// (0 = unlimited). Excess sessions are delayed up to the latency
	// budget, then shed.
	Rate float64
	// Burst is how many sessions may arrive back-to-back before the rate
	// limit bites (0 = max(1, Rate), i.e. one second of credit).
	Burst int
	// MaxConcurrent caps the tenant's in-flight sessions (0 = unlimited).
	// Sessions past the cap queue up to the latency budget, then shed.
	MaxConcurrent int
	// Weight is the tenant's share of the identification scan pool when
	// tenants contend: a weight-3 tenant is granted three scan slots for
	// every one a weight-1 tenant gets (0 or negative = 1).
	Weight int
	// BytesPerSession prices payload bytes into the rate bucket: a session
	// carrying B payload bytes costs 1 + B/BytesPerSession sessions of rate
	// credit (fixed-point, milli-session resolution), so a tenant cannot
	// stay under a session rate while shipping arbitrarily large
	// enrollment payloads. 0 = payload size is not charged.
	BytesPerSession int
}

// weight returns the effective scan weight (always >= 1).
func (l Limits) weight() int {
	if l.Weight < 1 {
		return 1
	}
	return l.Weight
}

// DefaultBudget is the latency budget applied when Config.Budget is zero:
// how long a session may queue (for a rate token, a concurrency slot, or a
// scan slot) before it is shed with Overloaded.
const DefaultBudget = 500 * time.Millisecond

// Config configures a Controller.
type Config struct {
	// Defaults is the envelope applied to every tenant without an
	// override.
	Defaults Limits
	// ScanSlots is the size of the shared identification scan pool
	// (0 = 2×GOMAXPROCS floor 2, negative = scan scheduling disabled).
	ScanSlots int
	// Budget is the queueing latency budget before a session is shed
	// (0 = DefaultBudget).
	Budget time.Duration
}

// OverloadError is the admission verdict for a shed session: which limit
// tripped and when a retry is worth attempting.
type OverloadError struct {
	// RetryAfter is the server's estimate of when capacity frees up.
	RetryAfter time.Duration
	// Reason names the limit that shed the session: "rate",
	// "concurrency" or "scan".
	Reason string
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("overloaded (%s limit): retry after %v", e.Reason, e.RetryAfter)
}

// Controller applies per-tenant admission control. The zero Controller is
// not usable; construct with New.
type Controller struct {
	defaults Limits
	budget   time.Duration
	scan     *FairQueue
	now      func() time.Time // the rate limiter's clock: time.Now, or a test's

	mu      sync.Mutex
	tenants map[string]*tenantState

	// Per-tenant decision counters, families in the existing
	// "tenant.<name>.<suffix>" namespace; nil (no-op) until Instrument.
	shed      *telemetry.LabelledCounters
	throttled *telemetry.LabelledCounters
	queued    *telemetry.LabelledCounters
	scanWait  *telemetry.Histogram
}

// tenantState is the mutable admission state of one tenant.
type tenantState struct {
	mu       sync.Mutex
	limits   Limits
	override bool
	bucket   bucket
	inflight int
	waiters  []chan struct{} // FIFO concurrency-slot queue, each buffered 1
}

// New builds a controller from cfg, resolving zero fields to their
// documented defaults.
func New(cfg Config) *Controller {
	budget := cfg.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	c := &Controller{
		defaults: cfg.Defaults,
		budget:   budget,
		now:      time.Now,
		tenants:  make(map[string]*tenantState),
	}
	if slots := resolveScanSlots(cfg.ScanSlots); slots > 0 {
		c.scan = NewFairQueue(slots)
	}
	return c
}

// Instrument binds the controller's decision counters to reg. The counters
// live in the same per-tenant family the protocol layer uses
// ("tenant.<name>.shed" / ".throttled" / ".queued"), plus one histogram
// ("qos.scan.wait") of scan-slot queueing time for budget tuning.
func (c *Controller) Instrument(reg *telemetry.Registry) {
	c.shed = reg.LabelledCounters("tenant", "shed")
	c.throttled = reg.LabelledCounters("tenant", "throttled")
	c.queued = reg.LabelledCounters("tenant", "queued")
	c.scanWait = reg.Histogram("qos.scan.wait")
}

// SetLimits installs a per-tenant override, replacing the defaults for
// that tenant from the next admission on.
func (c *Controller) SetLimits(tenant string, l Limits) {
	st := c.state(tenant)
	st.mu.Lock()
	st.limits = l
	st.override = true
	st.bucket = bucket{} // re-prime against the new rate
	st.mu.Unlock()
}

// LimitsFor returns the tenant's effective envelope and whether it comes
// from a per-tenant override (false = controller defaults).
func (c *Controller) LimitsFor(tenant string) (Limits, bool) {
	c.mu.Lock()
	st, ok := c.tenants[tenant]
	c.mu.Unlock()
	if !ok {
		return c.defaults, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.override {
		return c.defaults, false
	}
	return st.limits, true
}

// DropTenant forgets the tenant's admission state (called when the
// namespace is dropped). In-flight sessions keep their slots.
func (c *Controller) DropTenant(tenant string) {
	c.mu.Lock()
	delete(c.tenants, tenant)
	c.mu.Unlock()
	if c.scan != nil {
		c.scan.Forget(tenant)
	}
}

// state returns (creating if needed) the tenant's admission state.
func (c *Controller) state(tenant string) *tenantState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.tenants[tenant]
	if !ok {
		st = &tenantState{limits: c.defaults}
		c.tenants[tenant] = st
	}
	return st
}

// effective returns the tenant's current envelope without locking c.mu
// twice; st must be the tenant's state.
func (c *Controller) effective(st *tenantState) Limits {
	if st.override {
		return st.limits
	}
	return c.defaults
}

// Admit gates one session for tenant against its rate limit and
// concurrency quota. payloadBytes is the session's write-payload size (0
// for reads); when the tenant's envelope prices bytes (BytesPerSession),
// the payload costs additional rate credit in milli-session resolution. On
// admission it returns a release func that MUST be called when the session
// ends. On shed it returns a *OverloadError. Sessions delayed by the rate
// limiter sleep here (counted as throttled); sessions that wait for a
// concurrency slot are counted as queued.
func (c *Controller) Admit(tenant string, payloadBytes int) (func(), error) {
	st := c.state(tenant)

	st.mu.Lock()
	lim := c.effective(st)
	// Rate first: a session that will be shed must not consume a slot.
	var delay time.Duration
	if lim.Rate > 0 {
		wait, ok := st.bucket.reserve(c.now(), lim, c.budget, sessionCostMilli(lim, payloadBytes))
		if !ok {
			st.mu.Unlock()
			c.shed.Get(tenant).Inc()
			return nil, &OverloadError{RetryAfter: wait, Reason: "rate"}
		}
		delay = wait
	}
	st.mu.Unlock()
	if delay > 0 {
		c.throttled.Get(tenant).Inc()
		time.Sleep(delay)
	}

	if lim.MaxConcurrent > 0 {
		if !c.acquireSlot(st, tenant, lim.MaxConcurrent) {
			c.shed.Get(tenant).Inc()
			return nil, &OverloadError{RetryAfter: c.budget, Reason: "concurrency"}
		}
		return func() { c.releaseSlot(st) }, nil
	}
	return func() {}, nil
}

// acquireSlot takes one of the tenant's MaxConcurrent session slots,
// queueing FIFO up to the latency budget. Reports false on timeout.
func (c *Controller) acquireSlot(st *tenantState, tenant string, max int) bool {
	st.mu.Lock()
	if st.inflight < max && len(st.waiters) == 0 {
		st.inflight++
		st.mu.Unlock()
		return true
	}
	ch := make(chan struct{}, 1)
	st.waiters = append(st.waiters, ch)
	st.mu.Unlock()
	c.queued.Get(tenant).Inc()

	timer := time.NewTimer(c.budget)
	defer timer.Stop()
	select {
	case <-ch:
		// Slot handed over by releaseSlot (inflight already accounts
		// for us).
		return true
	case <-timer.C:
	}
	st.mu.Lock()
	for i, w := range st.waiters {
		if w == ch {
			st.waiters = append(st.waiters[:i], st.waiters[i+1:]...)
			st.mu.Unlock()
			return false
		}
	}
	st.mu.Unlock()
	// Lost the race: a slot was handed to us as the timer fired. Take it
	// and give it straight back.
	<-ch
	c.releaseSlot(st)
	return false
}

// releaseSlot returns a concurrency slot, handing it to the oldest waiter
// if one is queued.
func (c *Controller) releaseSlot(st *tenantState) {
	st.mu.Lock()
	if len(st.waiters) > 0 {
		ch := st.waiters[0]
		st.waiters = st.waiters[1:]
		st.mu.Unlock()
		ch <- struct{}{}
		return
	}
	st.inflight--
	st.mu.Unlock()
}

// AcquireScan takes one weighted-fair slot of the shared identification
// scan pool for tenant, queueing up to the latency budget. On admission it
// returns a release func that MUST be called when the scan finishes; on
// shed it returns a *OverloadError. A nil scan pool admits immediately.
func (c *Controller) AcquireScan(tenant string) (func(), error) {
	if c.scan == nil {
		return func() {}, nil
	}
	st := c.state(tenant)
	st.mu.Lock()
	w := c.effective(st).weight()
	st.mu.Unlock()

	start := time.Now()
	ok, waited := c.scan.Acquire(tenant, w, c.budget)
	if waited {
		c.queued.Get(tenant).Inc()
		c.scanWait.Observe(time.Since(start))
	}
	if !ok {
		c.shed.Get(tenant).Inc()
		return nil, &OverloadError{RetryAfter: c.budget, Reason: "scan"}
	}
	return c.scan.Release, nil
}

// resolveScanSlots maps the configured scan-pool size to its effective
// value: 0 = 2×GOMAXPROCS with a floor of 2, negative = disabled.
func resolveScanSlots(n int) int {
	if n < 0 {
		return 0
	}
	if n == 0 {
		n = 2 * gomaxprocs()
		if n < 2 {
			n = 2
		}
	}
	return n
}

// bucket is a GCRA (virtual-scheduling) token bucket: tat is the
// theoretical arrival time of the next conforming session. Tracking one
// timestamp instead of a token count gives reservation semantics — a
// backlog pushes tat into the future, and the distance past the burst
// tolerance is exactly the queueing delay a new arrival would suffer.
type bucket struct {
	tat time.Time
}

// sessionCostMilli prices one session in milli-sessions of rate credit:
// 1000 for the session itself plus, when the envelope charges payload
// bytes, 1000 per BytesPerSession payload bytes (rounded up, fixed-point
// like the wire's RateMilli).
func sessionCostMilli(lim Limits, payloadBytes int) int64 {
	cost := int64(1000)
	if lim.BytesPerSession > 0 && payloadBytes > 0 {
		bps := int64(lim.BytesPerSession)
		cost += (int64(payloadBytes)*1000 + bps - 1) / bps
	}
	return cost
}

// reserve admits one session of cost costMilli milli-sessions at time now
// under lim, or reports how long the caller must wait. ok=false means the
// wait exceeds budget (shed; tat is not advanced — a shed session consumes
// no credit regardless of its payload — and the returned wait is the
// retry-after hint).
func (b *bucket) reserve(now time.Time, lim Limits, budget time.Duration, costMilli int64) (time.Duration, bool) {
	interval := time.Duration(float64(time.Second) / lim.Rate)
	burst := lim.Burst
	if burst <= 0 {
		burst = int(lim.Rate)
		if burst < 1 {
			burst = 1
		}
	}
	tol := time.Duration(burst-1) * interval
	// An idle bucket re-primes to now: credit is capped at one burst, it
	// does not accrue over the idle period.
	if b.tat.Before(now) {
		b.tat = now
	}
	wait := b.tat.Sub(now) - tol
	if wait > budget {
		return wait, false
	}
	// Advance the theoretical arrival time by the session's full cost: a
	// byte-heavy enrollment pushes tat further than a light session, so the
	// next arrival pays for this one's payload.
	b.tat = b.tat.Add(time.Duration(float64(interval) * float64(costMilli) / 1000))
	if wait < 0 {
		wait = 0
	}
	return wait, true
}
