package replica

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyid/internal/store"
	"fuzzyid/internal/telemetry"
	"fuzzyid/internal/wire"
)

// Follower tails a primary's replication stream into a live local tenant
// registry. It owns one background goroutine that dials the primary,
// bootstraps from a snapshot when needed (fresh follower, restarted
// primary, or an offset that left the primary's retention ring), applies
// mutation frames through each tenant's normal mutation path — creating and
// dropping tenants as the stream dictates, so the follower mirrors the
// primary's full namespace set — and acknowledges progress. Connection
// loss triggers reconnection with exponential backoff, resuming from the
// last applied offset; any inconsistency (offset gap, epoch change,
// mutation that fails to apply) resets the follower so the next connection
// re-bootstraps from a snapshot instead of guessing.
//
// The registry passed to StartFollower is shared with the serving protocol
// engine: reads stay as concurrent as the strategies allow, and applied
// mutations become visible to identify/verify exactly as local enrollments
// would.
type Follower struct {
	primary string
	tenants *store.Registry
	m       followerMetrics

	epoch     atomic.Uint64
	applied   atomic.Uint64
	latest    atomic.Uint64
	connected atomic.Bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// followerMetrics are the replica-side instruments. The zero value (nil
// instruments) is the uninstrumented state.
type followerMetrics struct {
	applied    *telemetry.Gauge   // highest offset applied locally
	lag        *telemetry.Gauge   // latest-known minus applied
	connected  *telemetry.Gauge   // 1 while the stream is live
	frames     *telemetry.Counter // mutation frames applied
	resyncs    *telemetry.Counter // snapshot bootstraps taken
	reconnects *telemetry.Counter // stream failures followed by a redial
}

func (m *followerMetrics) bind(reg *telemetry.Registry) {
	m.applied = reg.Gauge("repl.follower.applied")
	m.lag = reg.Gauge("repl.follower.lag")
	m.connected = reg.Gauge("repl.follower.connected")
	m.frames = reg.Counter("repl.follower.frames")
	m.resyncs = reg.Counter("repl.follower.resyncs")
	m.reconnects = reg.Counter("repl.follower.reconnects")
}

// FollowerOption configures a Follower.
type FollowerOption interface {
	applyFollower(*Follower)
}

type followerOptionFunc func(*Follower)

func (f followerOptionFunc) applyFollower(fo *Follower) { f(fo) }

// WithFollowerTelemetry binds the follower's instruments to reg; nil leaves
// it uninstrumented.
func WithFollowerTelemetry(reg *telemetry.Registry) FollowerOption {
	return followerOptionFunc(func(f *Follower) { f.m.bind(reg) })
}

// StartFollower begins replicating primary into the tenant registry and
// returns immediately; the stream (re)connects in the background until
// Close. The registry must not be mutated by anyone else — the follower
// owns its write path, exactly like a journal recovery owns the store
// during replay.
func StartFollower(primary string, tenants *store.Registry, opts ...FollowerOption) *Follower {
	f := &Follower{
		primary: primary,
		tenants: tenants,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, o := range opts {
		o.applyFollower(f)
	}
	go f.run()
	return f
}

// Primary returns the address this follower replicates from.
func (f *Follower) Primary() string { return f.primary }

// Applied returns the highest log offset applied locally.
func (f *Follower) Applied() uint64 { return f.applied.Load() }

// Lag returns the number of primary mutations not applied locally yet, as
// of the last frame or heartbeat seen.
func (f *Follower) Lag() uint64 {
	latest, applied := f.latest.Load(), f.applied.Load()
	if latest <= applied {
		return 0
	}
	return latest - applied
}

// Connected reports whether the replication stream is currently live.
func (f *Follower) Connected() bool { return f.connected.Load() }

// Status answers the ReplStatus probe for a replica.
func (f *Follower) Status() wire.ReplStatusInfo {
	applied := f.applied.Load()
	latest := f.latest.Load()
	if latest < applied {
		latest = applied
	}
	return wire.ReplStatusInfo{
		Role:      "replica",
		Primary:   f.primary,
		Epoch:     f.epoch.Load(),
		Applied:   applied,
		Latest:    latest,
		Connected: f.connected.Load(),
	}
}

// Close stops the replication loop and waits for it to exit; the store
// keeps whatever state was applied. Close is idempotent.
func (f *Follower) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
	return nil
}

// maxBackoff caps the reconnect loop's exponential backoff.
const maxBackoff = 2 * time.Second

// run is the reconnect loop.
func (f *Follower) run() {
	defer close(f.done)
	backoff := 100 * time.Millisecond
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		started := time.Now()
		err := f.stream()
		f.connected.Store(false)
		f.m.connected.Set(0)
		select {
		case <-f.stop:
			return
		default:
		}
		if err != nil {
			f.m.reconnects.Inc()
		}
		// A stream that lived a while earns a fresh backoff; rapid-fire
		// failures (primary down) back off up to the cap.
		if time.Since(started) > 5*time.Second {
			backoff = 100 * time.Millisecond
		}
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// reset forgets stream progress so the next connection re-bootstraps from a
// snapshot: half-applied state is never passed off as a valid log position.
func (f *Follower) reset() {
	f.epoch.Store(0)
	f.applied.Store(0)
	f.latest.Store(0)
	f.m.applied.Set(0)
	f.m.lag.Set(0)
}

// stream runs one replication session to completion (error or shutdown).
func (f *Follower) stream() error {
	conn, err := net.DialTimeout("tcp", f.primary, DefaultDialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Unblock the read loop on shutdown.
	watch := make(chan struct{})
	defer close(watch)
	go func() {
		select {
		case <-f.stop:
			conn.Close()
		case <-watch:
		}
	}()
	sub := &wire.ReplSubscribe{Epoch: f.epoch.Load(), From: f.applied.Load() + 1}
	if err := wire.Send(conn, sub); err != nil {
		return err
	}
	f.connected.Store(true)
	f.m.connected.Set(1)
	inSnapshot := false
	for {
		if err := conn.SetReadDeadline(time.Now().Add(DefaultReadTimeout)); err != nil {
			return err
		}
		msg, err := wire.Receive(conn)
		if err != nil {
			return err
		}
		switch m := msg.(type) {
		case *wire.ReplSnapshot:
			if err := f.applySnapshot(m, &inSnapshot); err != nil {
				f.reset()
				return err
			}
			if m.Done {
				if err := wire.Send(conn, &wire.ReplAck{Offset: f.applied.Load()}); err != nil {
					return err
				}
			}
		case *wire.ReplFrame:
			if inSnapshot {
				f.reset()
				return fmt.Errorf("replica: frame %d inside snapshot", m.Offset)
			}
			if m.Epoch != f.epoch.Load() || m.Offset != f.applied.Load()+1 {
				f.reset()
				return fmt.Errorf("replica: stream out of sync (frame %d epoch %x)", m.Offset, m.Epoch)
			}
			if err := f.tenants.Apply(m.Mut); err != nil {
				f.reset()
				return fmt.Errorf("replica: apply offset %d: %w", m.Offset, err)
			}
			applied := f.applied.Add(1)
			latest := m.Latest
			if latest < applied {
				latest = applied
			}
			if f.latest.Load() < latest {
				f.latest.Store(latest)
			}
			f.m.frames.Inc()
			f.publishProgress()
			if err := wire.Send(conn, &wire.ReplAck{Offset: applied}); err != nil {
				return err
			}
		case *wire.ReplHeartbeat:
			if inSnapshot || m.Epoch != f.epoch.Load() {
				f.reset()
				return fmt.Errorf("replica: heartbeat out of sync (epoch %x)", m.Epoch)
			}
			if f.latest.Load() < m.Latest {
				f.latest.Store(m.Latest)
			}
			f.publishProgress()
			if err := wire.Send(conn, &wire.ReplAck{Offset: f.applied.Load()}); err != nil {
				return err
			}
		case *wire.Reject:
			return fmt.Errorf("replica: primary refused subscription: %s", m.Reason)
		default:
			return fmt.Errorf("replica: %T on replication stream", msg)
		}
	}
}

// applySnapshot folds one bootstrap chunk into the local store.
func (f *Follower) applySnapshot(m *wire.ReplSnapshot, inSnapshot *bool) error {
	if m.First {
		// Drop local state — every tenant's — so the bootstrap rebuilds the
		// primary's exact namespace set; progress markers stay zero until
		// the snapshot completes, so a stream cut mid-bootstrap
		// re-bootstraps cleanly.
		f.reset()
		if err := f.tenants.Reset(); err != nil {
			return fmt.Errorf("replica: clear store: %w", err)
		}
		f.m.resyncs.Inc()
		*inSnapshot = true
	} else if !*inSnapshot {
		return fmt.Errorf("replica: snapshot chunk without start")
	}
	db, err := f.tenants.Ensure(m.Tenant)
	if err != nil {
		return fmt.Errorf("replica: snapshot tenant %q: %w", m.Tenant, err)
	}
	for _, rec := range m.Records {
		if err := db.Insert(rec); err != nil {
			return fmt.Errorf("replica: snapshot insert %q: %w", rec.ID, err)
		}
	}
	if m.Done {
		*inSnapshot = false
		f.epoch.Store(m.Epoch)
		applied := m.Next - 1
		f.applied.Store(applied)
		if f.latest.Load() < applied {
			f.latest.Store(applied)
		}
		f.publishProgress()
	}
	return nil
}

// publishProgress refreshes the applied and lag gauges.
func (f *Follower) publishProgress() {
	f.m.applied.Set(int64(f.applied.Load()))
	f.m.lag.Set(int64(f.Lag()))
}
