package qos

import (
	"runtime"
	"sync"
	"time"
)

// FairQueue is a weighted-fair counting semaphore: at most capacity
// permits are out at once, and when callers from several tenants contend
// the queued waiters are granted in virtual-time order, so each tenant's
// long-run share of grants is proportional to its weight regardless of how
// many waiters it piles up. This is stride scheduling: every tenant
// carries a pass value that advances by 1/weight per grant, and the
// backlogged tenant with the smallest pass is served next. A tenant that
// was idle re-enters at the current virtual time instead of its stale pass,
// so it cannot bank credit and burst past active tenants.
type FairQueue struct {
	mu       sync.Mutex
	capacity int
	inUse    int
	vtime    float64
	tenants  map[string]*fqTenant
}

// fqTenant is one tenant's scheduling state.
type fqTenant struct {
	pass  float64
	queue []*fqWaiter // FIFO within the tenant
}

// fqWaiter is one queued Acquire.
type fqWaiter struct {
	ch      chan struct{}
	weight  int
	granted bool
}

// NewFairQueue returns a fair queue with the given permit capacity
// (minimum 1).
func NewFairQueue(capacity int) *FairQueue {
	if capacity < 1 {
		capacity = 1
	}
	return &FairQueue{capacity: capacity, tenants: make(map[string]*fqTenant)}
}

// Acquire takes one permit for tenant with the given weight, queueing up
// to timeout. ok reports whether the permit was granted (the caller must
// Release it); waited reports whether the caller queued at all.
func (q *FairQueue) Acquire(tenant string, weight int, timeout time.Duration) (ok, waited bool) {
	if weight < 1 {
		weight = 1
	}
	q.mu.Lock()
	t := q.tenant(tenant)
	// Invariant: waiters exist only while all permits are out (Release
	// hands its permit straight to a waiter), so a free permit means an
	// empty queue and the fast path keeps FIFO/fair order intact.
	if q.inUse < q.capacity {
		q.inUse++
		q.charge(t, weight)
		q.mu.Unlock()
		return true, false
	}
	w := &fqWaiter{ch: make(chan struct{}, 1), weight: weight}
	if len(t.queue) == 0 {
		// Re-entering tenant: no banked credit from its idle period.
		if t.pass < q.vtime {
			t.pass = q.vtime
		}
	}
	t.queue = append(t.queue, w)
	q.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.ch:
		return true, true
	case <-timer.C:
	}
	q.mu.Lock()
	if !w.granted {
		for i, qw := range t.queue {
			if qw == w {
				t.queue = append(t.queue[:i], t.queue[i+1:]...)
				break
			}
		}
		q.mu.Unlock()
		return false, true
	}
	q.mu.Unlock()
	// Granted as the timer fired: consume and return the permit so it is
	// not lost.
	<-w.ch
	q.Release()
	return false, true
}

// Release returns one permit, handing it to the backlogged tenant with the
// smallest pass (its oldest waiter) if any caller is queued.
func (q *FairQueue) Release() {
	q.mu.Lock()
	var best *fqTenant
	for _, t := range q.tenants {
		if len(t.queue) == 0 {
			continue
		}
		if best == nil || t.pass < best.pass {
			best = t
		}
	}
	if best == nil {
		q.inUse--
		q.mu.Unlock()
		return
	}
	w := best.queue[0]
	best.queue = best.queue[1:]
	w.granted = true
	q.charge(best, w.weight)
	q.mu.Unlock()
	w.ch <- struct{}{}
}

// Forget drops an idle tenant's scheduling state (no-op while it has
// queued waiters).
func (q *FairQueue) Forget(tenant string) {
	q.mu.Lock()
	if t, ok := q.tenants[tenant]; ok && len(t.queue) == 0 {
		delete(q.tenants, tenant)
	}
	q.mu.Unlock()
}

// tenant returns (creating if needed) the tenant's scheduling state.
// Caller holds q.mu.
func (q *FairQueue) tenant(name string) *fqTenant {
	t, ok := q.tenants[name]
	if !ok {
		t = &fqTenant{pass: q.vtime}
		q.tenants[name] = t
	}
	return t
}

// charge advances the tenant's pass by one grant at the given weight and
// the queue's virtual time to the grant's start tag. Caller holds q.mu.
func (q *FairQueue) charge(t *fqTenant, weight int) {
	start := t.pass
	if start < q.vtime {
		start = q.vtime
	}
	q.vtime = start
	t.pass = start + 1/float64(weight)
}

// gomaxprocs is the scheduler parallelism (split out for the scan-pool
// default).
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
