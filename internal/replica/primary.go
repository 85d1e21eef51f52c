package replica

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"fuzzyid/internal/store"
	"fuzzyid/internal/telemetry"
	"fuzzyid/internal/wire"
)

// Viewer yields a consistent cut of every tenant's record set: no mutation
// of any namespace is in flight (and so none is being offered to the hub)
// while fn runs. store.(*Registry).View is the implementation.
type Viewer interface {
	// View calls fn with the full per-tenant record sets while mutations
	// are blocked across all tenants.
	View(fn func(cut []store.TenantView))
}

// Hub is the primary side of replication: a store.Journal that stamps every
// committed mutation with the next log offset, retains a ring of recent
// mutations for tailing subscribers, and serves replication sessions
// (snapshot bootstrap + frame streaming + heartbeats) over any connection
// the transport hands it.
//
// Wire a Hub into a system by placing it behind the store's journal seam —
// after the durable WAL in a store.MultiJournal, so a mutation reaches
// replicas only once the WAL has staged it — and binding the tenant
// registry with BindStore so snapshots cut consistently against the offset
// counter.
type Hub struct {
	epoch     uint64
	retain    int
	heartbeat time.Duration
	m         hubMetrics

	mu     sync.Mutex
	viewer Viewer
	base   uint64 // oldest retained offset; offsets are 1-based
	next   uint64 // next offset to assign; latest committed is next-1
	// ring retains offsets [base, next): offset o lives at
	// ring[(o-1) % retain]. It grows to retain entries, then each append
	// overwrites the oldest in place.
	ring []store.Mutation
	subs map[*subscriber]struct{}
}

// hubMetrics are the primary-side replication instruments. The zero value
// (nil instruments) is the uninstrumented state.
type hubMetrics struct {
	subscribers *telemetry.Gauge   // live replication streams
	latest      *telemetry.Gauge   // highest committed offset
	lagMax      *telemetry.Gauge   // worst acked lag across subscribers
	frames      *telemetry.Counter // mutation frames shipped
	snapshots   *telemetry.Counter // snapshot bootstraps served
	snapRecords *telemetry.Counter // records shipped inside snapshots
}

func (m *hubMetrics) bind(reg *telemetry.Registry) {
	m.subscribers = reg.Gauge("repl.hub.subscribers")
	m.latest = reg.Gauge("repl.hub.latest")
	m.lagMax = reg.Gauge("repl.hub.lag_max")
	m.frames = reg.Counter("repl.hub.frames")
	m.snapshots = reg.Counter("repl.hub.snapshots")
	m.snapRecords = reg.Counter("repl.hub.snapshot_records")
}

// subscriber is one live replication stream.
type subscriber struct {
	notify chan struct{} // capacity 1; poked on every append
	acked  uint64        // highest acked offset; guarded by the hub mutex
}

// HubOption configures a Hub.
type HubOption interface {
	applyHub(*Hub)
}

type hubOptionFunc func(*Hub)

func (f hubOptionFunc) applyHub(h *Hub) { f(h) }

// WithRetain sets how many recent mutations the hub keeps for tailing
// subscribers (default DefaultRetain); n < 1 keeps one.
func WithRetain(n int) HubOption {
	return hubOptionFunc(func(h *Hub) {
		if n < 1 {
			n = 1
		}
		h.retain = n
	})
}

// WithHeartbeat sets the idle heartbeat interval on replication streams
// (default DefaultHeartbeat).
func WithHeartbeat(d time.Duration) HubOption {
	return hubOptionFunc(func(h *Hub) { h.heartbeat = d })
}

// WithHubTelemetry binds the hub's instruments to reg; nil leaves it
// uninstrumented.
func WithHubTelemetry(reg *telemetry.Registry) HubOption {
	return hubOptionFunc(func(h *Hub) { h.m.bind(reg) })
}

// NewHub constructs a primary replication hub with a fresh epoch.
func NewHub(opts ...HubOption) *Hub {
	h := &Hub{
		epoch:     newEpoch(),
		retain:    DefaultRetain,
		heartbeat: DefaultHeartbeat,
		base:      1,
		next:      1,
		subs:      make(map[*subscriber]struct{}),
	}
	for _, o := range opts {
		o.applyHub(h)
	}
	return h
}

// BindStore gives the hub the consistent-cut view it needs to serve
// snapshot bootstraps. Call before the server takes traffic.
func (h *Hub) BindStore(v Viewer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.viewer = v
}

// Epoch returns the hub's log incarnation (fresh per primary boot).
func (h *Hub) Epoch() uint64 { return h.epoch }

// Latest returns the highest committed offset (0 before any mutation).
func (h *Hub) Latest() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.next - 1
}

// Begin implements store.Journal: the mutation gets the next log offset,
// enters the retention ring and wakes every subscriber. Shipping is not a
// durability step, so the returned Commit is always nil. Each tenant's
// journaled store holds its mutation lock across Begin, so offsets are
// assigned in exactly the order mutations commit within a tenant; across
// tenants the hub's own lock makes the interleaving a single total order
// every follower applies identically. The ring keeps its own copy of the
// mutation's record (see store.Journal).
func (h *Hub) Begin(m store.Mutation) (store.Commit, error) {
	if m.Record != nil {
		rec := *m.Record
		rec.PublicKey = slices.Clone(rec.PublicKey)
		rec.Helper = rec.Helper.Clone()
		m.Record = &rec
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.ring) < h.retain {
		h.ring = append(h.ring, m)
	} else {
		h.ring[(h.next-1)%uint64(h.retain)] = m
		h.base++
	}
	h.next++
	h.m.latest.Set(int64(h.next - 1))
	for sub := range h.subs {
		select {
		case sub.notify <- struct{}{}:
		default:
		}
	}
	h.updateLagLocked()
	return nil, nil
}

// updateLagLocked republishes the worst-subscriber lag gauge; the caller
// holds h.mu.
func (h *Hub) updateLagLocked() {
	latest := h.next - 1
	var worst uint64
	for sub := range h.subs {
		if lag := latest - min(sub.acked, latest); lag > worst {
			worst = lag
		}
	}
	h.m.lagMax.Set(int64(worst))
}

// Status answers the ReplStatus probe for a primary.
func (h *Hub) Status() wire.ReplStatusInfo {
	latest := h.Latest()
	return wire.ReplStatusInfo{
		Role:      "primary",
		Epoch:     h.epoch,
		Applied:   latest,
		Latest:    latest,
		Connected: true,
	}
}

// HandleSubscribe implements protocol.ReplicationHandler: it serves one
// replication stream on rw until the peer disconnects or the stream fails.
// The follower is bootstrapped with a snapshot unless it presents the
// current epoch and an offset still inside the retention ring, then tailed
// frame by frame with heartbeats while idle. Acks are drained concurrently
// and feed the lag gauge.
func (h *Hub) HandleSubscribe(rw io.ReadWriter, req *wire.ReplSubscribe) error {
	sub := &subscriber{notify: make(chan struct{}, 1)}
	h.mu.Lock()
	if h.viewer == nil {
		h.mu.Unlock()
		return wire.Send(rw, &wire.Reject{Reason: "replication not bound to a store"})
	}
	h.subs[sub] = struct{}{}
	canTail := req.Epoch == h.epoch && req.From >= h.base && req.From <= h.next
	h.mu.Unlock()
	h.m.subscribers.Inc()
	defer func() {
		h.mu.Lock()
		delete(h.subs, sub)
		h.updateLagLocked()
		h.mu.Unlock()
		h.m.subscribers.Dec()
	}()

	cursor := req.From
	if !canTail {
		next, err := h.sendSnapshot(rw)
		if err != nil {
			return err
		}
		cursor = next
	}
	// Acks arrive interleaved with our outbound frames; drain them on a
	// side goroutine so a slow burst of frames can never deadlock against
	// an unread ack. readerErr closes when the peer goes away.
	readerErr := make(chan error, 1)
	go func() { readerErr <- h.readAcks(rw, sub) }()

	timer := time.NewTimer(h.heartbeat)
	defer timer.Stop()
	for {
		behind, err := h.streamFrom(rw, &cursor)
		if err != nil {
			return err
		}
		if behind {
			// The cursor fell out of the retention ring (subscriber slower
			// than the write rate): start over from a fresh snapshot.
			next, err := h.sendSnapshot(rw)
			if err != nil {
				return err
			}
			cursor = next
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(h.heartbeat)
		select {
		case err := <-readerErr:
			if err == nil || errors.Is(err, io.EOF) {
				return nil // follower hung up
			}
			return err
		case <-sub.notify:
		case <-timer.C:
			if err := h.send(rw, &wire.ReplHeartbeat{Epoch: h.epoch, Latest: h.Latest()}); err != nil {
				return err
			}
		}
	}
}

// streamFrom ships every retained frame from *cursor on, advancing it.
// behind reports that *cursor has left the retention ring.
func (h *Hub) streamFrom(rw io.ReadWriter, cursor *uint64) (behind bool, err error) {
	for {
		h.mu.Lock()
		if *cursor < h.base {
			h.mu.Unlock()
			return true, nil
		}
		if *cursor >= h.next {
			h.mu.Unlock()
			return false, nil
		}
		m := h.ring[(*cursor-1)%uint64(h.retain)]
		latest := h.next - 1
		h.mu.Unlock()
		if err := h.send(rw, &wire.ReplFrame{Epoch: h.epoch, Offset: *cursor, Latest: latest, Mut: m}); err != nil {
			return false, err
		}
		h.m.frames.Inc()
		*cursor++
	}
}

// sendSnapshot bootstraps the peer: a consistent cut of every tenant's
// record set is streamed in chunks — tenant by tenant, an empty tenant
// contributing one zero-record chunk so the follower mirrors the namespace
// set exactly — and the offset the stream resumes at is returned.
func (h *Hub) sendSnapshot(rw io.ReadWriter) (next uint64, err error) {
	var cut []store.TenantView
	h.mu.Lock()
	viewer := h.viewer
	h.mu.Unlock()
	viewer.View(func(all []store.TenantView) {
		cut = all
		h.mu.Lock()
		next = h.next
		h.mu.Unlock()
	})
	h.m.snapshots.Inc()
	for _, tv := range cut {
		h.m.snapRecords.Add(uint64(len(tv.Records)))
	}
	if len(cut) == 0 {
		// A viewer with no tenants still yields a complete (empty) snapshot.
		cut = []store.TenantView{{Tenant: store.DefaultTenant}}
	}
	first := true
	for ti, tv := range cut {
		recs := tv.Records
		lastTenant := ti == len(cut)-1
		for {
			n := len(recs)
			if n > wire.MaxReplChunk {
				n = wire.MaxReplChunk
			}
			chunk := &wire.ReplSnapshot{
				Epoch:   h.epoch,
				Next:    next,
				First:   first,
				Done:    lastTenant && n == len(recs),
				Tenant:  tenantWire(tv.Tenant),
				Records: recs[:n],
			}
			if err := h.send(rw, chunk); err != nil {
				return 0, err
			}
			recs = recs[n:]
			first = false
			if len(recs) == 0 {
				break
			}
		}
	}
	return next, nil
}

// tenantWire maps the default tenant to its wire spelling "" so snapshot
// chunks stay compact and canonical.
func tenantWire(name string) string {
	if name == store.DefaultTenant {
		return ""
	}
	return name
}

// send writes one stream message under a write deadline (when the stream
// supports deadlines), so a follower that stops draining its socket fails
// the session within DefaultWriteTimeout instead of wedging this goroutine.
func (h *Hub) send(rw io.ReadWriter, m wire.Message) error {
	if d, ok := rw.(interface{ SetWriteDeadline(t time.Time) error }); ok {
		_ = d.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	}
	return wire.Send(rw, m)
}

// readAcks drains follower acknowledgements until the stream dies.
func (h *Hub) readAcks(rw io.ReadWriter, sub *subscriber) error {
	for {
		msg, err := wire.Receive(rw)
		if err != nil {
			return err
		}
		ack, ok := msg.(*wire.ReplAck)
		if !ok {
			return fmt.Errorf("replica: %T on ack stream", msg)
		}
		h.mu.Lock()
		if ack.Offset > sub.acked {
			sub.acked = ack.Offset
		}
		h.updateLagLocked()
		h.mu.Unlock()
	}
}
