package protocol

// This file is the server and device side of keyspace-sharded clustering
// (DESIGN.md §14). A cluster node checks every keyed operation against its
// versioned cluster map before work runs (see keyedRun), answers map
// fetches, and executes partition split/move handoffs: freeze the moving
// slots, cut their records under the registry's consistent view, stream
// them to the target through the snapshot-bootstrap-style ingest session,
// flip the map to Version+1, and purge the shipped records through the
// journal seam so the group's followers converge. The store-level write
// gate (cluster.Node.Gate on store.Journaled) makes the freeze authoritative:
// a session admitted just before the freeze cannot land a mutation after
// the cut, because the gate runs under the same mutex the cut holds.

import (
	"errors"
	"fmt"
	"io"

	"fuzzyid/internal/cluster"
	"fuzzyid/internal/store"
	"fuzzyid/internal/wire"
)

// handoffRetryMS is the retry-after hint sent with "handoff" sheds: a
// handoff cut is a few memory copies plus one stream, so the freeze window
// is short.
const handoffRetryMS = 50

// WrongPartitionError is returned when a keyed operation reached a node
// whose group does not own the key's slot. It carries the refusing node's
// cluster map, so a routing client can converge in one redirect round.
type WrongPartitionError struct {
	// Map is the refusing node's current cluster map.
	Map *cluster.Map
}

// Error implements error.
func (e *WrongPartitionError) Error() string {
	return fmt.Sprintf("protocol: wrong partition (cluster map version %d)", e.Map.Version)
}

// IsWrongPartition reports whether err is a cluster node's refusal of a
// keyed operation it does not own; if so it also returns the refusing
// node's map.
func IsWrongPartition(err error) (*cluster.Map, bool) {
	var w *WrongPartitionError
	if errors.As(err, &w) {
		return w.Map, true
	}
	return nil, false
}

// ClusterDialer opens a stream to another cluster node's advertised
// address; the transport layer injects a net.Dial-backed implementation so
// the protocol package stays free of networking.
type ClusterDialer func(addr string) (io.ReadWriteCloser, error)

// clusterState is the server's cluster role: its node identity/map and the
// dialer handoffs use to reach their target.
type clusterState struct {
	node *cluster.Node
	dial ClusterDialer
}

// SetCluster puts the server in cluster mode: keyed operations are checked
// against node's map (WrongPartition redirects, handoff sheds), the map is
// served to clients, partition admin sessions are accepted, and the node's
// write gate is installed on every tenant's journal seam as the
// authoritative handoff barrier. Call before serving traffic.
func (s *Server) SetCluster(node *cluster.Node, dial ClusterDialer) {
	s.cl = &clusterState{node: node, dial: dial}
	s.tenants.SetWriteGate(node.Gate)
}

// handleClusterMap answers a map fetch. Non-cluster servers reject it, so a
// client configured for cluster routing against a standalone server fails
// loudly instead of guessing.
func (s *Server) handleClusterMap(rw io.ReadWriter) error {
	if s.cl == nil {
		return wire.Send(rw, &wire.Reject{Reason: "not a cluster node"})
	}
	return wire.Send(rw, &wire.ClusterMapInfo{Map: s.cl.node.Map()})
}

// handleClusterMapGossip installs an unsolicited, newer cluster map pushed
// by a peer — the source of a committed handoff notifies the primaries that
// took no part in it, so `cluster map` answers the current topology from any
// node instead of only from the participants. An older or equal map is a
// no-op; the reply always carries this node's resulting version.
func (s *Server) handleClusterMapGossip(rw io.ReadWriter, m *wire.ClusterMapInfo) error {
	if s.cl == nil {
		return wire.Send(rw, &wire.Reject{Reason: "not a cluster node"})
	}
	s.cl.node.Install(m.Map)
	return wire.Send(rw, &wire.PartitionOK{Version: s.cl.node.Map().Version})
}

// gossipMap pushes a freshly installed map to every group primary that was
// not a handoff participant. Best-effort: a peer that is down keeps its old
// map and its clients converge through WrongPartition redirects instead.
func (s *Server) gossipMap(next *cluster.Map, exclude ...string) {
	skip := make(map[string]bool, len(exclude)+1)
	skip[s.cl.node.Self()] = true
	for _, addr := range exclude {
		skip[addr] = true
	}
	for _, g := range next.Groups {
		if !skip[g.Primary] {
			_ = s.pushMap(g.Primary, next)
		}
	}
}

func (s *Server) pushMap(addr string, m *cluster.Map) error {
	conn, err := s.cl.dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	_, err = await[*wire.PartitionOK](conn, &wire.ClusterMapInfo{Map: m}, "partition ack")
	return err
}

// handlePartitionAdmin executes a split/move of this primary's slots to a
// target primary. The protocol: validate, freeze the moving slots, cut
// their records under the registry's consistent view, stream them to the
// target (First, per-tenant chunks, Done carrying the Version+1 map), await
// the target's ack, install the new map, unfreeze, and purge the shipped
// records through the journal seam (the group's followers converge through
// the replicated deletes). Any failure before the target's ack unfreezes
// and leaves the map unchanged — the handoff never holds acked writes
// hostage.
func (s *Server) handlePartitionAdmin(rw io.ReadWriter, m *wire.PartitionAdmin) error {
	if s.cl == nil {
		return wire.Send(rw, &wire.Reject{Reason: "not a cluster node"})
	}
	if s.primary != "" {
		return wire.Send(rw, &wire.NotPrimary{Primary: s.primary})
	}
	node := s.cl.node
	cur := node.Map()
	reject := func(format string, args ...any) error {
		return wire.Send(rw, &wire.Reject{Reason: fmt.Sprintf(format, args...)})
	}
	self := node.GroupIndex()
	if self < 0 {
		return reject("this node (%s) leads no group in map version %d", node.Self(), cur.Version)
	}
	if m.Target == "" || m.Target == node.Self() {
		return reject("invalid handoff target %q", m.Target)
	}
	targetIdx := cur.GroupIndexOf(m.Target)
	switch m.Action {
	case wire.PartitionSplit:
		if targetIdx >= 0 {
			return reject("split target %s already leads group %d; use move", m.Target, targetIdx)
		}
	case wire.PartitionMove:
		if targetIdx < 0 {
			return reject("move target %s leads no group; use split", m.Target)
		}
	default:
		return reject("unknown partition action %d", m.Action)
	}
	if len(m.Slots) == 0 {
		return reject("no slots to move")
	}
	moving := make(map[uint32]bool, len(m.Slots))
	for _, slot := range m.Slots {
		if slot >= cluster.NumSlots {
			return reject("slot %d out of range", slot)
		}
		if int(cur.Slots[slot]) != self {
			return reject("slot %d is owned by group %d, not this node", slot, cur.Slots[slot])
		}
		if node.Frozen(slot) {
			return reject("slot %d is already mid-handoff", slot)
		}
		moving[slot] = true
	}
	next, err := cur.Moved(m.Slots, m.Target, m.TargetReplicas)
	if err != nil {
		return reject("%v", err)
	}

	// Freeze, then cut: the registry's View waits on every in-flight
	// journaled mutation, so after the cut no pre-freeze mutation of a
	// moving slot can land (the write gate refuses late ones).
	node.Freeze(m.Slots)
	type tenantChunk struct {
		tenant string
		recs   []*store.Record
	}
	var moved []tenantChunk
	s.tenants.View(func(cut []store.TenantView) {
		for _, tv := range cut {
			var recs []*store.Record
			for _, rec := range tv.Records {
				if moving[cluster.SlotOf(tv.Tenant, rec.ID)] {
					recs = append(recs, rec)
				}
			}
			if len(recs) > 0 {
				moved = append(moved, tenantChunk{tenant: tv.Tenant, recs: recs})
			}
		}
	})

	// Ship. Failure to reach or convince the target aborts the handoff:
	// unfreeze, map unchanged, no record touched.
	abort := func(format string, args ...any) error {
		node.Unfreeze(m.Slots)
		return reject(format, args...)
	}
	conn, err := s.cl.dial(m.Target)
	if err != nil {
		return abort("dial handoff target %s: %v", m.Target, err)
	}
	defer conn.Close()
	if err := wire.Send(conn, &wire.PartitionIngest{First: true}); err != nil {
		return abort("open ingest stream: %v", err)
	}
	if _, err := await[*wire.PartitionOK](conn, nil, "partition ack"); err != nil {
		return abort("handoff target refused the stream: %v", err)
	}
	for _, tc := range moved {
		for off := 0; off < len(tc.recs); off += wire.MaxIngestChunk {
			end := min(off+wire.MaxIngestChunk, len(tc.recs))
			chunk := &wire.PartitionIngest{Tenant: tc.tenant, Records: tc.recs[off:end]}
			if err := wire.Send(conn, chunk); err != nil {
				return abort("ship records: %v", err)
			}
			if _, err := await[*wire.PartitionOK](conn, nil, "partition ack"); err != nil {
				return abort("handoff target refused records: %v", err)
			}
		}
	}
	if err := wire.Send(conn, &wire.PartitionIngest{Done: true, NewMap: next}); err != nil {
		return abort("close ingest stream: %v", err)
	}
	if _, err := await[*wire.PartitionOK](conn, nil, "partition ack"); err != nil {
		return abort("handoff target refused the map flip: %v", err)
	}

	// The target owns the records and serves the new map. Flip locally —
	// from here on this node redirects the moved slots — and tell the
	// primaries that took no part in the handoff, so any node answers
	// `cluster map` with the current layout. The gossip must precede the
	// purge: a client seeded at a non-participant re-checks its map there
	// after a scan miss, and an old map once the records are gone would
	// turn every moved identity into a false reject. Best-effort by
	// design: an unreachable peer keeps its old map and its clients
	// converge through WrongPartition redirects instead. Then purge the
	// shipped records (keeping the slots gated until the purge is staged,
	// so no client mutation interleaves) and unfreeze.
	node.Install(next)
	s.gossipMap(next, m.Target)
	var purgeErrs []error
	for _, tc := range moved {
		db, err := s.tenants.Tenant(tc.tenant)
		if err != nil {
			continue // dropped mid-handoff; nothing left to purge
		}
		ids := make([]string, len(tc.recs))
		for i, rec := range tc.recs {
			ids[i] = rec.ID
		}
		if err := db.PurgeMoved(ids); err != nil {
			purgeErrs = append(purgeErrs, fmt.Errorf("purge tenant %q: %w", tc.tenant, err))
		}
	}
	node.Unfreeze(m.Slots)
	if len(purgeErrs) > 0 {
		// The handoff itself committed (map flipped, target serving); a
		// failed purge leaves stale source copies that only scatter reads
		// can see. Surface it to the operator.
		return reject("handoff committed at version %d, but source purge failed: %v", next.Version, errors.Join(purgeErrs...))
	}
	return wire.Send(rw, &wire.PartitionOK{Version: next.Version})
}

// handlePartitionIngest serves the target side of a handoff stream: apply
// each chunk's records through the journal seam (idempotently — a retried
// chunk replaces), install the closing map, ack. The opening First chunk
// was consumed by HandleSession; subsequent chunks arrive in-session.
func (s *Server) handlePartitionIngest(rw io.ReadWriter, first *wire.PartitionIngest) error {
	if s.cl == nil {
		return wire.Send(rw, &wire.Reject{Reason: "not a cluster node"})
	}
	if s.primary != "" {
		return wire.Send(rw, &wire.NotPrimary{Primary: s.primary})
	}
	if !first.First {
		return wire.Send(rw, &wire.Reject{Reason: "ingest stream must open with First"})
	}
	for {
		m, err := expect[*wire.PartitionIngest](rw, &wire.PartitionOK{Version: s.cl.node.Map().Version}, "unexpected message in ingest stream")
		if err != nil {
			return fmt.Errorf("protocol: ingest stream: %w", err)
		}
		if m.Done {
			// Install before acking: once the source sees the ack it
			// redirects clients here, so this node must already own the
			// slots.
			if !s.cl.node.Install(m.NewMap) {
				_ = wire.Send(rw, &wire.Reject{Reason: fmt.Sprintf(
					"ingest map version %d does not advance %d", m.NewMap.Version, s.cl.node.Map().Version)})
				return fmt.Errorf("%w: non-advancing ingest map", ErrProtocol)
			}
			return wire.Send(rw, &wire.PartitionOK{Version: m.NewMap.Version})
		}
		db, err := s.tenants.Ensure(m.Tenant)
		if err != nil {
			_ = wire.Send(rw, &wire.Reject{Reason: fmt.Sprintf("ingest tenant: %v", err)})
			return err
		}
		for _, rec := range m.Records {
			if err := db.IngestHandoff(rec); err != nil {
				_ = wire.Send(rw, &wire.Reject{Reason: fmt.Sprintf("ingest record %q: %v", rec.ID, err)})
				return err
			}
		}
	}
}

// ClusterMap fetches the server's current cluster map.
func (d *Device) ClusterMap(rw io.ReadWriter) (*cluster.Map, error) {
	m, err := await[*wire.ClusterMapInfo](rw, &wire.ClusterMapRequest{}, "cluster map")
	if err != nil {
		return nil, err
	}
	return m.Map, nil
}

// PartitionHandoff runs a partition admin session against the source
// primary: move the given slots to target (action wire.PartitionSplit or
// wire.PartitionMove). It returns the cluster map version in force after
// the handoff.
func (d *Device) PartitionHandoff(rw io.ReadWriter, action byte, slots []uint32, target string, targetReplicas []string) (uint64, error) {
	ok, err := await[*wire.PartitionOK](rw, &wire.PartitionAdmin{
		Action: action, Slots: slots, Target: target, TargetReplicas: targetReplicas,
	}, "handoff verdict")
	if err != nil {
		return 0, err
	}
	return ok.Version, nil
}
