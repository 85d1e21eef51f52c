// Package replica adds read-scaling replication to the authentication
// server: a primary streams its committed mutation log to follower servers,
// which apply it into live local stores and serve identification,
// verification and stats traffic from them — the read-heavy side of the
// enroll/identify asymmetry — while every mutation stays linearised on the
// primary.
//
// The log being shipped is the same one internal/persist makes durable: the
// mutation-journal seam of internal/store expresses every committed
// enrollment and revocation as a store.Mutation, and both the on-disk WAL
// and the replication stream carry the identical wire.EncodeMutation bytes.
// The Hub is one more Journal behind that seam — after the WAL in a
// store.MultiJournal when the primary is durable, alone when it is not: the
// WAL (when configured) stages the mutation first, then the Hub stamps it
// with the next log offset and wakes its subscribers.
//
// A follower bootstraps with a snapshot — the primary cuts the full record
// set consistently against its log offset via store.(*Registry).View —
// then tails the stream, acknowledging applied offsets so the primary can
// publish per-replica lag. Offsets are scoped by an epoch drawn fresh at
// every primary boot: a follower presenting an unknown epoch (or an offset
// that has left the retention ring) is re-bootstrapped with a new snapshot
// rather than served a guessed tail.
//
// Consistency contract: a replica may serve a stale identify or verify —
// bounded by its lag, observable via the ReplStatus probe and the
// repl.follower.lag gauge — and refuses enroll/revoke with a NotPrimary
// redirect. See DESIGN.md §8 and OPERATIONS.md for the operator's view.
package replica

import (
	"crypto/rand"
	"encoding/binary"
	"time"
)

// Default tuning. The hub's retain and heartbeat are overridable via
// HubOption; the follower's timeouts are fixed.
const (
	// DefaultRetain is the number of recent mutations the hub keeps in
	// memory for tailing subscribers; a follower further behind than this
	// is re-bootstrapped from a snapshot.
	DefaultRetain = 8192
	// DefaultHeartbeat is the idle interval after which the primary sends
	// a heartbeat frame on each replication stream.
	DefaultHeartbeat = 500 * time.Millisecond
	// DefaultReadTimeout bounds a follower's wait for the next stream
	// message; it must comfortably exceed the primary's heartbeat.
	DefaultReadTimeout = 10 * time.Second
	// DefaultDialTimeout bounds a follower's connection attempt.
	DefaultDialTimeout = 3 * time.Second
	// DefaultWriteTimeout bounds each of the primary's sends on a
	// replication stream, so a follower that stops reading (stalled
	// process, half-dead host) errors the session instead of wedging the
	// hub goroutine in a blocked write forever.
	DefaultWriteTimeout = 30 * time.Second
)

// newEpoch draws a random non-zero log-incarnation ID. Followers use epoch
// 0 to mean "never synced", so the zero value is excluded.
func newEpoch() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand failing is unrecoverable for the whole system
			// (the protocol layer depends on it for challenges); treat it
			// the same way here.
			panic("replica: epoch randomness: " + err.Error())
		}
		if e := binary.BigEndian.Uint64(b[:]); e != 0 {
			return e
		}
	}
}
