package persist

// Group commit: the fsync-amortization protocol of the durable write path.
//
// Under SyncAlways the old Append fsynced privately, capping durable write
// throughput at ~1/fsync-latency per tenant. Begin/Wait split the append in
// two: Begin writes and kernel-flushes the frame under the log mutex (cheap,
// microseconds) and returns a commit handle; Wait parks the caller until a
// leader — the first parked waiter — fsyncs the segment once for the whole
// batch of frames written since the previous sync. Every waiter whose frame
// the fsync covered is released together, so one fsync acknowledges N
// writers. Batches form naturally: while the leader's fsync is in flight new
// writers keep appending (the log mutex is free) and park behind it, and the
// next leader commits them all.
//
// The group window (WithGroupWindow) bounds how long a leader lingers for
// stragglers — writers that have appended but not yet parked — before
// issuing the fsync. Because every Begin is immediately followed by Wait,
// stragglers exist only for the instructions between the two calls, so the
// linger almost never reaches the window; a solo writer syncs immediately
// and keeps the pre-group-commit latency floor. The linger also ends early
// when the pending batch reaches a byte or count cap.

import (
	"fmt"
	"time"

	"fuzzyid/internal/store"
)

// DefaultGroupWindow is the default bound on how long a commit leader waits
// for concurrent writers to join the group before fsyncing.
const DefaultGroupWindow = 2 * time.Millisecond

const (
	// groupMaxBatch ends the leader's linger once this many appends are
	// pending a sync.
	groupMaxBatch = 4096
	// groupMaxBytes ends the leader's linger once this many bytes are
	// pending a sync.
	groupMaxBytes = 1 << 20
	// lingerPoll is the straggler-poll interval inside the linger loop.
	lingerPoll = 20 * time.Microsecond
)

// WithGroupWindow bounds how long a group-commit leader lingers for
// concurrent writers before fsyncing the batch (default DefaultGroupWindow).
// Zero disables the linger: the leader syncs as soon as it is elected, still
// batching every frame already written. Only meaningful under SyncAlways.
func WithGroupWindow(d time.Duration) Option {
	return optionFunc(func(l *Log) {
		if d >= 0 {
			l.groupWindow = d
		}
	})
}

// WithGroupCommit enables or disables group commit under SyncAlways
// (default enabled). Disabled, every Append fsyncs privately before
// returning — the pre-group-commit behaviour, kept for A/B measurement.
func WithGroupCommit(on bool) Option {
	return optionFunc(func(l *Log) { l.groupOff = !on })
}

// groupCommit is the Wait handle of one staged append.
type groupCommit struct {
	l   *Log
	seq uint64 // the append's sequence number; durable once durableSeq >= seq
}

// Wait implements store.Commit.
func (c groupCommit) Wait() error { return c.l.waitDurable(c.seq) }

// Begin implements store.Journal: it encodes the mutation's frame into the
// log's reused frame buffer (so it keeps nothing of the mutation), writes
// it into the active segment and flushes it to the kernel, but — under
// SyncAlways with group commit enabled — defers the fsync to the returned
// commit handle, so concurrent writers share one sync. A nil commit (with nil
// error) means the append is already as durable as the sync policy makes it.
func (l *Log) Begin(m store.Mutation) (store.Commit, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	if !l.replayed {
		l.mu.Unlock()
		return nil, ErrNotRecovered
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return nil, err
	}
	frame, err := appendMutationFrame(l.scratch[:0], m)
	if err != nil {
		l.mu.Unlock()
		return nil, err
	}
	l.scratch = frame
	if _, err := l.w.Write(l.scratch); err != nil {
		err = l.poison(fmt.Errorf("persist: append: %w", err))
		l.mu.Unlock()
		return nil, err
	}
	if err := l.w.Flush(); err != nil {
		err = l.poison(fmt.Errorf("persist: append flush: %w", err))
		l.mu.Unlock()
		return nil, err
	}
	l.size += int64(len(l.scratch))
	l.appendSeq++
	seq := l.appendSeq
	l.m.appends.Inc()
	l.m.appendBytes.Add(uint64(len(l.scratch)))
	if l.sync != SyncAlways {
		// The kernel has the frame; that is all SyncOS promises per append.
		l.syncedSize = l.size
		l.durableSeq = seq
		l.mu.Unlock()
		return nil, nil
	}
	if l.groupOff {
		if err := l.fsync(); err != nil {
			err = l.poison(fmt.Errorf("persist: append sync: %w", err))
			l.mu.Unlock()
			return nil, err
		}
		l.syncedSize = l.size
		l.durableSeq = seq
		l.mu.Unlock()
		return nil, nil
	}
	l.mu.Unlock()
	return groupCommit{l: l, seq: seq}, nil
}

// waitDurable blocks until append seq is fsynced (or the log fails or
// closes), electing the caller as commit leader when no sync is in flight.
func (l *Log) waitDurable(seq uint64) error {
	l.mu.Lock()
	for {
		if l.durableSeq >= seq {
			l.mu.Unlock()
			return nil
		}
		if l.failed != nil {
			err := l.failed
			l.mu.Unlock()
			return err
		}
		if l.closed {
			l.mu.Unlock()
			return ErrClosed
		}
		if l.syncing {
			ch := l.synced
			l.waiters++
			l.mu.Unlock()
			<-ch
			l.mu.Lock()
			l.waiters--
			continue
		}
		l.leaderSync()
	}
}

// stragglers counts writers that have appended since the last sync but are
// not yet parked in waitDurable (and are not the leader). Caller holds l.mu.
func (l *Log) stragglers() int {
	return int(l.appendSeq-l.durableSeq) - l.waiters - 1
}

// leaderSync runs one group commit as the elected leader: linger briefly for
// stragglers (bounded by the group window and the batch caps), then fsync
// the active segment once for every frame written so far and release the
// batch. Called and returns with l.mu held; l.mu is dropped during the
// linger polls and the fsync itself so writers keep appending into the next
// batch. While l.syncing is set, Rotate and Close block and the active
// segment cannot change under the leader.
func (l *Log) leaderSync() {
	l.syncing = true
	if l.groupWindow > 0 && l.stragglers() > 0 {
		deadline := time.Now().Add(l.groupWindow)
		for l.stragglers() > 0 &&
			l.appendSeq-l.durableSeq < groupMaxBatch &&
			l.size-l.syncedSize < groupMaxBytes &&
			time.Now().Before(deadline) {
			l.mu.Unlock()
			time.Sleep(lingerPoll)
			l.mu.Lock()
			if l.closed || l.failed != nil {
				break
			}
		}
	}
	target := l.appendSeq
	targetSize := l.size
	batch := target - l.durableSeq
	f := l.f
	l.mu.Unlock()
	var err error
	start := time.Now()
	if f != nil {
		err = f.Sync()
	}
	dur := time.Since(start)
	l.mu.Lock()
	l.m.fsyncs.Inc()
	l.m.fsyncDur.Observe(dur)
	l.m.groupSize.ObserveValue(batch)
	switch {
	case err != nil:
		_ = l.poison(fmt.Errorf("persist: group sync: %w", err))
	case l.failed != nil:
		// The log was poisoned while l.mu was dropped: a concurrent Begin
		// failed and truncated the segment back to the durable prefix,
		// discarding the very frames this fsync was meant to cover. The sync
		// of the truncated file proves nothing about them — advancing
		// durableSeq here would release the parked waiters with a false ack
		// (and set syncedSize past EOF). Leave both untouched so every
		// waiter falls through to the failed check in waitDurable.
	case target > l.durableSeq:
		l.durableSeq = target
		l.syncedSize = targetSize
	}
	l.syncing = false
	l.broadcastSynced()
}

// broadcastSynced wakes every parked group-commit waiter; each re-checks
// durableSeq/failed/closed under l.mu. Caller holds l.mu.
func (l *Log) broadcastSynced() {
	close(l.synced)
	l.synced = make(chan struct{})
}

// awaitNoLeader blocks until no group-commit fsync is in flight, so the
// caller may retire or replace the active segment. Caller holds l.mu; it is
// dropped and reacquired while waiting.
func (l *Log) awaitNoLeader() {
	for l.syncing {
		ch := l.synced
		l.mu.Unlock()
		<-ch
		l.mu.Lock()
	}
}
