// Package protocol implements the three protocols of the paper over any
// io.ReadWriter (TCP connections in production, net.Pipe in tests and
// benchmarks):
//
//   - UserEnro (Fig. 1): the device extracts (R, P) from the biometric,
//     derives a signing key pair from R, ships (ID, pk, P) to the server and
//     erases the biometric and private key.
//   - Proposed BioIden (Fig. 3): the device sends a *plain* probe sketch s';
//     the server locates the matching record by sketch comparison
//     (conditions (1)-(4)), returns (P, c); the device recovers sk via Rep
//     and answers the challenge with one signature. Cryptographic cost is
//     constant in the database size.
//   - Normal-approach identification (Fig. 2): the server ships every
//     (P_i, c_i); the device attempts Rep against each until one succeeds —
//     the O(N) baseline the paper compares against.
//   - Verification mode (§III): like BioIden but the user claims an ID, so
//     the server retrieves the record by key lookup.
//
// Device and Server are pure protocol engines; internal/transport runs them
// over real connections.
package protocol

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"fuzzyid/internal/cluster"
	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/qos"
	"fuzzyid/internal/sigscheme"
	"fuzzyid/internal/sketch"
	"fuzzyid/internal/store"
	"fuzzyid/internal/telemetry"
	"fuzzyid/internal/wire"
)

// ChallengeLen is the length in bytes of server challenges c and device
// nonces a.
const ChallengeLen = 32

// Errors returned by the protocol engines.
var (
	// ErrProtocol indicates an out-of-order or malformed message.
	ErrProtocol = errors.New("protocol: unexpected message")
	// ErrNoMatch is returned by the device in the normal approach when no
	// helper datum reproduced a key.
	ErrNoMatch = errors.New("protocol: no helper data matched the biometric")
)

// RejectedError is returned when the peer rejects the protocol run (the ⊥
// output of BioIden).
type RejectedError struct {
	// Reason is the peer-supplied reason string.
	Reason string
}

// Error implements error.
func (e *RejectedError) Error() string {
	return fmt.Sprintf("protocol: rejected: %s", e.Reason)
}

// IsRejected reports whether err is a rejection (as opposed to a transport
// or protocol failure).
func IsRejected(err error) bool {
	var r *RejectedError
	return errors.As(err, &r)
}

// NotPrimaryError is returned when a mutation (enroll, revoke) is attempted
// against a read-only replica. Primary names the server that accepts
// mutations, so callers can redirect instead of failing.
type NotPrimaryError struct {
	// Primary is the address of the primary server.
	Primary string
}

// Error implements error.
func (e *NotPrimaryError) Error() string {
	return fmt.Sprintf("protocol: read-only replica: mutations go to primary %s", e.Primary)
}

// IsNotPrimary reports whether err is a replica's refusal of a mutation; if
// so it also returns the primary's address.
func IsNotPrimary(err error) (string, bool) {
	var r *NotPrimaryError
	if errors.As(err, &r) {
		return r.Primary, true
	}
	return "", false
}

// UnknownTenantError is returned when an operation names a tenant namespace
// the server does not host — never created, or already dropped. It is a
// typed, actionable outcome (create the tenant, or fix the name), distinct
// from both transport failures and biometric rejections.
type UnknownTenantError struct {
	// Tenant is the canonical name of the namespace that does not exist.
	Tenant string
}

// Error implements error.
func (e *UnknownTenantError) Error() string {
	return fmt.Sprintf("protocol: unknown tenant %q (create it first, or check the name)", e.Tenant)
}

// IsUnknownTenant reports whether err is a server's refusal of an operation
// against a nonexistent tenant; if so it also returns the tenant name.
func IsUnknownTenant(err error) (string, bool) {
	var u *UnknownTenantError
	if errors.As(err, &u) {
		return u.Tenant, true
	}
	return "", false
}

// OverloadedError is returned when the server's admission controller shed
// the session: the tenant's rate, concurrency or scan-queue budget was
// exhausted. The condition is transient — RetryAfter is the server's hint
// for when a retry is worth attempting.
type OverloadedError struct {
	// RetryAfter is the server-suggested backoff before retrying.
	RetryAfter time.Duration
	// Reason names the limit that shed the session: "rate",
	// "concurrency" or "scan".
	Reason string
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("protocol: overloaded (%s limit): retry after %v", e.Reason, e.RetryAfter)
}

// IsOverloaded reports whether err is a server's load-shedding verdict; if
// so it also returns the retry-after hint.
func IsOverloaded(err error) (time.Duration, bool) {
	var o *OverloadedError
	if errors.As(err, &o) {
		return o.RetryAfter, true
	}
	return 0, false
}

// Device is the biometric device (BioD) engine. It is safe for concurrent
// use; every method call runs one complete protocol session on rw. A device
// addresses the default tenant unless rebound with ForTenant.
type Device struct {
	fe     *core.FuzzyExtractor
	scheme sigscheme.Scheme
	tenant string // namespace stamped onto every request; "" = default
}

// NewDevice constructs a device over the given fuzzy extractor and
// signature scheme.
func NewDevice(fe *core.FuzzyExtractor, scheme sigscheme.Scheme) *Device {
	return &Device{fe: fe, scheme: scheme}
}

// ForTenant returns a device that addresses every protocol session at the
// named tenant namespace ("" for the default tenant). The receiver is not
// modified, so one engine can serve clients bound to different tenants.
func (d *Device) ForTenant(name string) *Device {
	c := *d
	c.tenant = name
	return &c
}

// Enroll runs UserEnro (Fig. 1): Gen(Bio) -> (R, P), KeyGen(R) -> (sk, pk),
// send (ID, pk, P). The private key and biometric are not retained.
func (d *Device) Enroll(rw io.ReadWriter, id string, bio numberline.Vector) error {
	pub, helper, err := d.gen(bio)
	if err != nil {
		return err
	}
	ack, err := await[*wire.EnrollOK](rw, &wire.EnrollRequest{ID: id, PublicKey: pub, Helper: helper, Tenant: d.tenant}, "enroll ack")
	if err != nil {
		return err
	}
	if ack.ID != id {
		return fmt.Errorf("%w: enroll ack for %q", ErrProtocol, ack.ID)
	}
	return nil
}

// Verify runs verification mode: the user claims id and proves possession
// of the enrolled biometric via challenge-response.
func (d *Device) Verify(rw io.ReadWriter, id string, bio numberline.Vector) error {
	return d.answerChallenge(rw, &wire.VerifyRequest{ID: id, Tenant: d.tenant}, bio, id)
}

// Revoke removes the enrollment for id after proving possession of the
// enrolled biometric through a challenge-response run. A revoked user can
// re-enroll with fresh helper data, giving the scheme the revocability that
// raw biometric storage lacks (§I).
func (d *Device) Revoke(rw io.ReadWriter, id string, bio numberline.Vector) error {
	return d.answerChallenge(rw, &wire.RevokeRequest{ID: id, Tenant: d.tenant}, bio, id)
}

// ReEnroll replaces the enrollment for id with fresh helper data and a
// fresh key pair generated from newBio, after proving possession of the
// currently enrolled biometric (oldBio) through a challenge-response run.
// Where Revoke + Enroll leaves a window with no enrolled template — during
// which the user cannot authenticate and an attacker could squat the ID —
// ReEnroll swaps the template in one atomic mutation: every concurrent
// session observes either the old template or the new one, never neither.
// This is the online answer to template aging (a drifting biometric is
// re-anchored at its current reading) and to helper-data rotation.
func (d *Device) ReEnroll(rw io.ReadWriter, id string, oldBio, newBio numberline.Vector) error {
	pub, helper, err := d.gen(newBio)
	if err != nil {
		return err
	}
	// The challenge is built from the *old* helper data: possession of the
	// currently enrolled biometric authorises the replacement.
	return d.answerChallenge(rw, &wire.ReEnrollRequest{ID: id, PublicKey: pub, Helper: helper, Tenant: d.tenant}, oldBio, id)
}

// gen runs the enrollment half of the scheme for Enroll and ReEnroll:
// Gen(bio) -> (R, P), KeyGen(R) -> (sk, pk). Only pk and P leave it.
func (d *Device) gen(bio numberline.Vector) ([]byte, *core.HelperData, error) {
	key, helper, err := d.fe.Gen(bio)
	if err != nil {
		return nil, nil, fmt.Errorf("protocol: gen: %w", err)
	}
	_, pub, err := d.scheme.DeriveKeyPair(key)
	if err != nil {
		return nil, nil, fmt.Errorf("protocol: keygen: %w", err)
	}
	return pub, helper, nil
}

// Identify runs the proposed BioIden (Fig. 3) and returns the identity the
// server established.
func (d *Device) Identify(rw io.ReadWriter, bio numberline.Vector) (string, error) {
	sp := movementBufs.Get().(*[]int64)
	defer putMovements(sp)
	probe, err := d.fe.SketchOnlyInto(*sp, bio)
	if err != nil {
		return "", fmt.Errorf("protocol: identify sketch: %w", err)
	}
	*sp = probe
	return d.finishChallenge(rw, sp, &wire.IdentifyRequest{Probe: &sketch.Sketch{Movements: probe}, Tenant: d.tenant}, bio)
}

// IdentifyNormal runs the O(N) normal approach (Fig. 2): receive every
// (P_i, c_i), attempt Rep against each, sign the challenge of the first
// entry that reproduces a key.
func (d *Device) IdentifyNormal(rw io.ReadWriter, bio numberline.Vector) (string, error) {
	batch, err := await[*wire.ChallengeBatch](rw, &wire.IdentifyRequest{Normal: true, Tenant: d.tenant}, "challenge batch")
	if err != nil {
		return "", err
	}
	for i := range batch.Entries {
		entry := &batch.Entries[i]
		sig, nonce, repErr, err := d.respond(bio, entry.Helper, entry.Challenge)
		if err != nil {
			return "", err
		}
		if repErr == nil {
			return awaitAccept(rw, &wire.BatchSignature{Index: uint32(i), Signature: sig, Nonce: nonce})
		}
	}
	// Nothing matched; tell the server so it can close the session. The
	// server answers that terminal report with a Reject — the expected
	// close of a no-match run, not a failure of its own — so it maps to
	// the ErrNoMatch sentinel rather than surfacing as a RejectedError.
	if _, err := awaitAccept(rw, &wire.BatchSignature{Index: uint32(len(batch.Entries))}); err != nil && !IsRejected(err) {
		return "", err
	}
	return "", ErrNoMatch
}

// Tenants runs a tenant administration session asking for the hosted
// namespace names.
func (d *Device) Tenants(rw io.ReadWriter) ([]string, error) {
	m, err := await[*wire.TenantInfo](rw, &wire.TenantAdmin{Action: wire.TenantActionList}, "tenant list")
	if err != nil {
		return nil, err
	}
	return m.Tenants, nil
}

// CreateTenant runs a tenant administration session creating the named
// namespace.
func (d *Device) CreateTenant(rw io.ReadWriter, name string) error {
	_, err := awaitAccept(rw, &wire.TenantAdmin{Action: wire.TenantActionCreate, Tenant: name})
	return err
}

// DropTenant runs a tenant administration session removing the named
// namespace and every record in it. Irreversible.
func (d *Device) DropTenant(rw io.ReadWriter, name string) error {
	_, err := awaitAccept(rw, &wire.TenantAdmin{Action: wire.TenantActionDrop, Tenant: name})
	return err
}

// SetTenantLimits runs a tenant administration session installing a QoS
// override for the named namespace. Overrides are per-process and
// runtime-only: set them on each node, and again after a restart.
func (d *Device) SetTenantLimits(rw io.ReadWriter, name string, l qos.Limits) error {
	spec := SpecFromLimits(l)
	_, err := awaitAccept(rw, &wire.TenantAdmin{Action: wire.TenantActionSetLimits, Tenant: name, Limits: &spec})
	return err
}

// TenantLimits runs a tenant administration session asking for the named
// namespace's effective QoS envelope.
func (d *Device) TenantLimits(rw io.ReadWriter, name string) (qos.Limits, bool, error) {
	m, err := await[*wire.TenantLimits](rw, &wire.TenantAdmin{Action: wire.TenantActionGetLimits, Tenant: name}, "tenant limits")
	if err != nil {
		return qos.Limits{}, false, err
	}
	return LimitsFromSpec(m.Spec), m.Overridden, nil
}

// SpecFromLimits converts a QoS envelope to its wire form.
func SpecFromLimits(l qos.Limits) wire.LimitsSpec {
	return wire.LimitsSpec{
		RateMilli:       uint64(l.Rate*1000 + 0.5),
		Burst:           uint32(max(l.Burst, 0)),
		MaxConcurrent:   uint32(max(l.MaxConcurrent, 0)),
		Weight:          uint32(max(l.Weight, 0)),
		BytesPerSession: uint64(max(l.BytesPerSession, 0)),
	}
}

// LimitsFromSpec converts the wire form of a QoS envelope back to the
// controller's type.
func LimitsFromSpec(s wire.LimitsSpec) qos.Limits {
	l := qos.Limits{
		Rate:          float64(s.RateMilli) / 1000,
		Burst:         int(s.Burst),
		MaxConcurrent: int(s.MaxConcurrent),
		Weight:        int(s.Weight),
	}
	// Compare in uint64 before narrowing: a hostile spec must not wrap to a
	// negative (or giant) int on 32-bit builds.
	if s.BytesPerSession > 0 && s.BytesPerSession <= uint64(int64(^uint(0)>>1)) {
		l.BytesPerSession = int(s.BytesPerSession)
	}
	return l
}

// ReplStatus runs a replication-status probe: any server answers with its
// role (primary / replica / standalone) and log progress. The client's
// replica fan-out uses it as a cheap health and lag check.
func (d *Device) ReplStatus(rw io.ReadWriter) (*wire.ReplStatusInfo, error) {
	return await[*wire.ReplStatusInfo](rw, &wire.ReplStatus{}, "replication status")
}

// answerChallenge runs a session keyed by a claimed ID (verify, revoke,
// re-enroll) and checks that the server accepted wantID.
func (d *Device) answerChallenge(rw io.ReadWriter, req wire.Message, bio numberline.Vector, wantID string) error {
	sp := movementBufs.Get().(*[]int64)
	defer putMovements(sp)
	id, err := d.finishChallenge(rw, sp, req, bio)
	if err != nil {
		return err
	}
	if id != wantID {
		return fmt.Errorf("%w: accepted as %q, want %q", ErrProtocol, id, wantID)
	}
	return nil
}

// finishChallenge sends req, receives (P, c) into the scratch sp, answers it
// through respond and returns the identity the server accepted. sp may hold
// req's probe: the reply is decoded only after req is sent.
func (d *Device) finishChallenge(rw io.ReadWriter, sp *[]int64, req wire.Message, bio numberline.Vector) (string, error) {
	ch, err := awaitInto[*wire.Challenge](rw, req, sp, "challenge")
	if err != nil {
		return "", err
	}
	// A Rep failure leaves sig and nonce empty: the empty signature lets the
	// server complete the session with a rejection.
	sig, nonce, repErr, err := d.respond(bio, ch.Helper, ch.Challenge)
	if err != nil {
		return "", err
	}
	id, err := awaitAccept(rw, &wire.Signature{Signature: sig, Nonce: nonce})
	switch {
	case repErr != nil && err != nil:
		return "", fmt.Errorf("protocol: rep failed (%v): %w", repErr, err)
	case repErr != nil:
		return "", fmt.Errorf("protocol: rep failed: %w", repErr)
	}
	return id, err
}

// respond is the device side of the step every protocol ends in:
// Rep(bio, P) -> R, KeyGen(R) -> sk, a fresh nonce a, and
// sigma = Sign(sk, ChallengeMessage(c, a)). repErr reports that bio does not
// reproduce R from P; err is any other failure.
func (d *Device) respond(bio numberline.Vector, p *core.HelperData, c []byte) (sig, nonce []byte, repErr, err error) {
	key, repErr := d.fe.Rep(bio, p)
	if repErr != nil {
		return nil, nil, repErr, nil
	}
	priv, _, err := d.scheme.DeriveKeyPair(key)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("protocol: keygen: %w", err)
	}
	if nonce, err = newChallenge(); err != nil {
		return nil, nil, nil, err
	}
	if sig, err = d.scheme.Sign(priv, sigscheme.ChallengeMessage(c, nonce)); err != nil {
		return nil, nil, nil, fmt.Errorf("protocol: sign: %w", err)
	}
	return sig, nonce, nil, nil
}

// awaitAccept sends req and returns the identity of the server's Accept.
func awaitAccept(rw io.ReadWriter, req wire.Message) (string, error) {
	a, err := await[*wire.Accept](rw, req, "verdict")
	if err != nil {
		return "", err
	}
	return a.ID, nil
}

// await sends req (unless nil) and decodes the peer's reply as T. It is the
// one reply decoder of every device session step: a refusal is returned as
// its typed error whatever the step (RejectedError, NotPrimaryError,
// UnknownTenantError, OverloadedError, WrongPartitionError), and any other
// message as ErrProtocol naming step.
func await[T wire.Message](rw io.ReadWriter, req wire.Message, step string) (T, error) {
	return awaitInto[T](rw, req, nil, step)
}

// awaitInto is await decoding the reply's movement vector into the scratch
// sp (see wire.ReceiveInto).
func awaitInto[T wire.Message](rw io.ReadWriter, req wire.Message, sp *[]int64, step string) (T, error) {
	var zero T
	if req != nil {
		if err := wire.Send(rw, req); err != nil {
			return zero, err
		}
	}
	msg, err := wire.ReceiveInto(rw, sp)
	if err != nil {
		return zero, err
	}
	if m, ok := msg.(T); ok {
		return m, nil
	}
	switch m := msg.(type) {
	case *wire.Reject:
		return zero, &RejectedError{Reason: m.Reason}
	case *wire.NotPrimary:
		return zero, &NotPrimaryError{Primary: m.Primary}
	case *wire.UnknownTenant:
		return zero, &UnknownTenantError{Tenant: m.Tenant}
	case *wire.Overloaded:
		retry := max(time.Duration(m.RetryAfterMS)*time.Millisecond, time.Millisecond)
		return zero, &OverloadedError{RetryAfter: retry, Reason: m.Reason}
	case *wire.WrongPartition:
		return zero, &WrongPartitionError{Map: m.Map}
	}
	return zero, fmt.Errorf("%w: %T awaiting %s", ErrProtocol, msg, step)
}

// movementBufs recycles the movement vectors of a device session: the
// probe and the decoded Challenge (40 KB each at n = 5000). They are per
// call, never engine fields: one Device runs many sessions at once.
var movementBufs = sync.Pool{New: func() any { return new([]int64) }}

// maxPooledMovements keeps a hostile peer's oversized vector out of the
// pool, as wire keeps its frame buffers to 1 MiB.
const maxPooledMovements = 1 << 17

func putMovements(p *[]int64) {
	if cap(*p) <= maxPooledMovements {
		movementBufs.Put(p)
	}
}

// session is the pooled state of one server session: the decoded opener
// (an identify's probe; an enroll's or re-enroll's whole message, helper
// data and byte strings) and the record an enroll or re-enroll hands the
// store. Like movementBufs it is per session, never a Server field.
type session struct {
	open wire.Opener
	rec  store.Record
}

var sessions = sync.Pool{New: func() any { return new(session) }}

// putSession recycles st unless a peer inflated its buffers past the 1 MiB
// a pooled movement vector may hold.
func putSession(st *session) {
	if st.open.Retained() <= 8*maxPooledMovements {
		st.rec = store.Record{}
		sessions.Put(st)
	}
}

func newChallenge() ([]byte, error) {
	c := make([]byte, ChallengeLen)
	if _, err := rand.Read(c); err != nil {
		return nil, fmt.Errorf("protocol: challenge randomness: %w", err)
	}
	return c, nil
}

// Server is the authentication server (AS) engine.
type Server struct {
	fe     *core.FuzzyExtractor
	scheme sigscheme.Scheme
	m      serverMetrics

	// tenants routes sessions to per-namespace stores and serves tenant
	// administration.
	tenants *store.Registry

	// primary, when non-empty, puts the server in read-only replica mode:
	// enroll and revoke sessions are refused with a NotPrimary message
	// naming it, while every read path serves locally.
	primary string
	// repl serves replication subscriptions (nil unless this server is a
	// replicating primary).
	repl ReplicationHandler
	// statusFn answers ReplStatus probes; nil means standalone.
	statusFn func() wire.ReplStatusInfo

	// qos, when non-nil, gates every tenant-scoped session through the
	// admission controller before work is scheduled (DESIGN.md §12).
	qos *qos.Controller

	// cl, when non-nil, makes this server a cluster node: keyed operations
	// are checked against the versioned cluster map and partition handoffs
	// are accepted (DESIGN.md §14).
	cl *clusterState
}

// ReplicationHandler serves replication subscriptions on a primary: the
// session stays open for the life of the connection, streaming snapshot
// chunks, mutation frames and heartbeats (internal/replica.Hub is the
// implementation).
type ReplicationHandler interface {
	// HandleSubscribe serves one replication stream on rw until the peer
	// disconnects or the stream fails.
	HandleSubscribe(rw io.ReadWriter, m *wire.ReplSubscribe) error
}

// NewServer constructs a server over the tenant registry reg: sessions
// carrying a tenant name are routed to that namespace's store, and tenant
// administration sessions (list, create, drop) are served from it.
func NewServer(fe *core.FuzzyExtractor, scheme sigscheme.Scheme, reg *store.Registry) *Server {
	return &Server{fe: fe, scheme: scheme, tenants: reg}
}

// resolve maps a session's tenant name to its store and canonical name. An
// unknown tenant yields store.ErrUnknownTenant, which handlers answer with
// the typed UnknownTenant message.
func (s *Server) resolve(tenant string) (*store.Journaled, string, error) {
	name := store.CanonicalTenant(tenant)
	db, err := s.tenants.Tenant(name)
	return db, name, err
}

// refuseTenant answers a session that named a nonexistent tenant with the
// typed UnknownTenant message — a completed protocol outcome, not a
// transport failure.
func (s *Server) refuseTenant(rw io.ReadWriter, name string) error {
	return wire.Send(rw, &wire.UnknownTenant{Tenant: name})
}

// SetQoS installs an admission controller: tenant-scoped sessions are
// gated through it (rate limit and concurrency quota at session open,
// weighted-fair scan slots around the store scan), and shed sessions are
// answered with the Overloaded message. A nil controller disables
// admission control. Call before serving traffic.
func (s *Server) SetQoS(ctl *qos.Controller) { s.qos = ctl }

// SetReadOnly puts the server in replica mode: enroll and revoke sessions
// are refused with a NotPrimary message naming primary, so clients can
// redirect their mutations; identification, verification and stats keep
// serving from the local store.
func (s *Server) SetReadOnly(primary string) { s.primary = primary }

// SetReplication makes the server answer ReplSubscribe sessions through h
// (a primary serving its followers). A nil h refuses subscriptions.
func (s *Server) SetReplication(h ReplicationHandler) { s.repl = h }

// SetStatus sets the answer to ReplStatus probes. A nil fn reports the
// standalone role with zero offsets.
func (s *Server) SetStatus(fn func() wire.ReplStatusInfo) { s.statusFn = fn }

// opStats groups the instruments of one protocol operation: sessions opened,
// sessions that failed with a transport/protocol error, and the server-side
// handling latency (from the opening request being parsed to the final
// verdict being written, so it includes the challenge round trips).
type opStats struct {
	requests *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram
}

func (o *opStats) bind(reg *telemetry.Registry, op string) {
	o.requests = reg.Counter("protocol." + op + ".requests")
	o.errors = reg.Counter("protocol." + op + ".errors")
	o.latency = reg.Histogram("protocol." + op + ".latency")
}

// serverMetrics holds one opStats per operation, plus the per-tenant
// request/error counter families. The zero value (all nil instruments) is
// the uninstrumented state and costs one branch per update.
type serverMetrics struct {
	enroll, verify, identify, identifyNormal, revoke opStats
	reenroll, replSub, replStatus, tenantAdmin       opStats
	clusterMap, partAdmin, partIngest                opStats
	tenantReqs, tenantErrs                           *telemetry.LabelledCounters
}

// Instrument binds the server's per-operation metrics to reg. Call before
// serving traffic; Instrument(nil) leaves the server uninstrumented.
func (s *Server) Instrument(reg *telemetry.Registry) {
	s.m.enroll.bind(reg, "enroll")
	s.m.verify.bind(reg, "verify")
	s.m.identify.bind(reg, "identify")
	s.m.identifyNormal.bind(reg, "identify_normal")
	s.m.revoke.bind(reg, "revoke")
	s.m.reenroll.bind(reg, "reenroll")
	s.m.replSub.bind(reg, "repl_subscribe")
	s.m.replStatus.bind(reg, "repl_status")
	s.m.tenantAdmin.bind(reg, "tenant_admin")
	s.m.clusterMap.bind(reg, "cluster_map")
	s.m.partAdmin.bind(reg, "partition_admin")
	s.m.partIngest.bind(reg, "partition_ingest")
	s.m.tenantReqs = reg.LabelledCounters("tenant", "requests")
	s.m.tenantErrs = reg.LabelledCounters("tenant", "errors")
}

// countTenant records one protocol session against the tenant it resolved
// to, so the stats snapshot breaks traffic down per namespace
// ("tenant.<name>.requests" / "tenant.<name>.errors").
func (s *Server) countTenant(name string, failed bool) {
	s.m.tenantReqs.Get(name).Inc()
	if failed {
		s.m.tenantErrs.Get(name).Inc()
	}
}

// HandleSession serves exactly one protocol run (one request message and its
// follow-ups) on rw. It returns io.EOF when the peer closed the stream
// before a request, nil after a completed run (including rejections, which
// are normal protocol outcomes), and an error on malformed traffic.
func (s *Server) HandleSession(rw io.ReadWriter) error {
	st := sessions.Get().(*session)
	msg, err := wire.ReceiveOpener(rw, &st.open)
	if err != nil {
		putSession(st)
		// A frame read whole leaves the stream in sync: answer one that
		// does not decode (an unknown or retired tag, a malformed body)
		// as any other opener that cannot open a session. A frame cut
		// short, or declared over wire.MaxFrameLen, closes with no reply.
		if errors.Is(err, wire.ErrBadFrame) {
			_ = wire.Send(rw, &wire.Reject{Reason: err.Error()})
		}
		return err
	}
	// The state dies with the session, after an enroll's or re-enroll's
	// mutation has committed: the store copies the record into its row
	// and a store.Journal keeps nothing of a record once Begin returns.
	defer putSession(st)
	var om *opStats
	var run func() error
	switch m := msg.(type) {
	case *wire.EnrollRequest:
		om, run = &s.m.enroll, s.keyedRun(rw, m.Tenant, m.ID, mutatingOp, enrollPayloadBytes(m.PublicKey, m.Helper), func(db *store.Journaled, _ string) error { return s.handleEnroll(rw, db, m, &st.rec) })
	case *wire.VerifyRequest:
		om, run = &s.m.verify, s.keyedRun(rw, m.Tenant, m.ID, readOp, 0, func(db *store.Journaled, _ string) error { return s.handleVerify(rw, db, m) })
	case *wire.IdentifyRequest:
		if m.Normal {
			om, run = &s.m.identifyNormal, s.tenantRun(rw, m.Tenant, readOp, func(db *store.Journaled, name string) error { return s.handleIdentifyNormal(rw, db, name) })
		} else {
			om, run = &s.m.identify, s.tenantRun(rw, m.Tenant, readOp, func(db *store.Journaled, name string) error { return s.handleIdentify(rw, db, name, m) })
		}
	case *wire.RevokeRequest:
		om, run = &s.m.revoke, s.keyedRun(rw, m.Tenant, m.ID, mutatingOp, 0, func(db *store.Journaled, _ string) error { return s.handleRevoke(rw, db, m) })
	case *wire.ReEnrollRequest:
		om, run = &s.m.reenroll, s.keyedRun(rw, m.Tenant, m.ID, mutatingOp, enrollPayloadBytes(m.PublicKey, m.Helper), func(db *store.Journaled, _ string) error { return s.handleReEnroll(rw, db, m, &st.rec) })
	case *wire.ReplSubscribe:
		om, run = &s.m.replSub, func() error { return s.handleSubscribe(rw, m) }
	case *wire.ReplStatus:
		om, run = &s.m.replStatus, func() error { return s.handleReplStatus(rw) }
	case *wire.TenantAdmin:
		om, run = &s.m.tenantAdmin, func() error { return s.handleTenantAdmin(rw, m) }
	case *wire.ClusterMapRequest:
		om, run = &s.m.clusterMap, func() error { return s.handleClusterMap(rw) }
	case *wire.ClusterMapInfo:
		om, run = &s.m.clusterMap, func() error { return s.handleClusterMapGossip(rw, m) }
	case *wire.PartitionAdmin:
		om, run = &s.m.partAdmin, func() error { return s.handlePartitionAdmin(rw, m) }
	case *wire.PartitionIngest:
		om, run = &s.m.partIngest, func() error { return s.handlePartitionIngest(rw, m) }
	default:
		_ = wire.Send(rw, &wire.Reject{Reason: "unexpected message"})
		return fmt.Errorf("%w: %T as session opener", ErrProtocol, msg)
	}
	om.requests.Inc()
	start := time.Now()
	err = run()
	om.latency.Observe(time.Since(start))
	if err != nil {
		om.errors.Inc()
	}
	return err
}

// Op mutability classes for tenantRun.
const (
	readOp     = false
	mutatingOp = true
)

// tenantRun wraps a tenant-scoped handler: mutating sessions on a
// read-only replica are redirected before the tenant is even resolved (a
// lagging follower may not know a freshly created tenant yet, and the
// right answer is still "go to the primary", not "no such tenant"); then
// the session's tenant is resolved once, unknown tenants are answered with
// the typed UnknownTenant message (a completed run), admission control is
// applied (a shed session is answered with Overloaded — a completed run,
// counted as a request but not an error), and the session is counted
// against its namespace. Unknown names are deliberately not counted — the
// label set must stay bounded by the hosted tenants, not by what peers
// send. Admission runs after resolution for the same reason: only hosted
// tenants can occupy admission state.
func (s *Server) tenantRun(rw io.ReadWriter, tenant string, mutating bool, fn func(*store.Journaled, string) error) func() error {
	return s.keyedRun(rw, tenant, "", mutating, 0, fn)
}

// keyedRun is tenantRun for operations addressing one user ID: on a cluster
// node the (tenant, ID) slot is checked against the node's map before any
// work runs — a slot the node's group does not own is answered with the
// typed WrongPartition redirect carrying the current map, and a mutation of
// a slot frozen mid-handoff is shed with a retryable Overloaded (the client
// retries into the post-flip redirect). payloadBytes is the session's
// write-payload size, charged against the tenant's rate bucket when its
// envelope prices bytes. An empty id skips the cluster checks (identify
// scans serve the local slice of every scatter-gather fan-out).
func (s *Server) keyedRun(rw io.ReadWriter, tenant, id string, mutating bool, payloadBytes int, fn func(*store.Journaled, string) error) func() error {
	return func() error {
		if mutating && s.primary != "" {
			return wire.Send(rw, &wire.NotPrimary{Primary: s.primary})
		}
		if s.cl != nil && id != "" {
			slot := cluster.SlotOf(tenant, id)
			if !s.cl.node.Owns(slot) {
				return wire.Send(rw, &wire.WrongPartition{Map: s.cl.node.Map()})
			}
			if mutating && s.cl.node.Frozen(slot) {
				return wire.Send(rw, &wire.Overloaded{RetryAfterMS: handoffRetryMS, Reason: "handoff"})
			}
		}
		db, name, err := s.resolve(tenant)
		if err != nil {
			return s.refuseTenant(rw, name)
		}
		if s.qos != nil {
			release, admitErr := s.qos.Admit(name, payloadBytes)
			if admitErr != nil {
				s.countTenant(name, false)
				return s.shed(rw, admitErr)
			}
			defer release()
		}
		err = fn(db, name)
		s.countTenant(name, err != nil)
		return err
	}
}

// enrollPayloadBytes approximates the durable size of an enrollment payload
// (public key plus helper data) for byte-priced admission control.
func enrollPayloadBytes(pk []byte, h *core.HelperData) int {
	n := len(pk)
	if h != nil && h.Sketch != nil && h.Sketch.Sketch != nil {
		n += 8*len(h.Sketch.Sketch.Movements) + 32 + len(h.Seed)
	}
	return n
}

// shed answers a session the admission controller refused with the typed
// Overloaded message; a non-overload admission failure is surfaced as a
// session error.
func (s *Server) shed(rw io.ReadWriter, admitErr error) error {
	var ov *qos.OverloadError
	if !errors.As(admitErr, &ov) {
		return admitErr
	}
	ms := ov.RetryAfter.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return wire.Send(rw, &wire.Overloaded{RetryAfterMS: uint32(min(ms, 1<<31)), Reason: ov.Reason})
}

// scanGate takes a weighted-fair slot of the shared scan pool for the
// session's tenant before an identification store scan. ok=true means the
// scan may run and release must be called when it finishes; ok=false means
// the session was shed (err carries the result of sending Overloaded).
func (s *Server) scanGate(rw io.ReadWriter, name string) (release func(), ok bool, err error) {
	if s.qos == nil {
		return func() {}, true, nil
	}
	release, acquireErr := s.qos.AcquireScan(name)
	if acquireErr != nil {
		return nil, false, s.shed(rw, acquireErr)
	}
	return release, true, nil
}

// handleSubscribe serves a replication stream; the session stays open for
// the life of the connection. Servers not acting as a replicating primary
// refuse it.
func (s *Server) handleSubscribe(rw io.ReadWriter, m *wire.ReplSubscribe) error {
	if s.repl == nil {
		return wire.Send(rw, &wire.Reject{Reason: "replication disabled"})
	}
	// The transport arms a per-session read deadline (WithIdleTimeout)
	// before every session; a replication stream lives for the whole
	// connection and paces itself with heartbeats and write deadlines, so
	// the one-shot idle deadline must not sever it mid-stream.
	if d, ok := rw.(interface{ SetReadDeadline(time.Time) error }); ok {
		_ = d.SetReadDeadline(time.Time{})
	}
	return s.repl.HandleSubscribe(rw, m)
}

// handleReplStatus answers the replication health probe; a server with no
// replication role reports itself standalone.
func (s *Server) handleReplStatus(rw io.ReadWriter) error {
	info := wire.ReplStatusInfo{Role: "standalone", Connected: true}
	if s.statusFn != nil {
		info = s.statusFn()
	}
	return wire.Send(rw, &info)
}

// handleTenantAdmin serves the tenant administration session: list answers
// with the hosted namespace names; create and drop mutate the registry (and
// so are refused with a redirect on a read-only replica) and acknowledge
// with an Accept echoing the canonical name. Set-limits and get-limits
// manage per-process QoS overrides and are served on any node — including
// read-only replicas, which run their own admission control — so they do
// not redirect to the primary.
func (s *Server) handleTenantAdmin(rw io.ReadWriter, m *wire.TenantAdmin) error {
	if m.Action == wire.TenantActionList {
		return wire.Send(rw, &wire.TenantInfo{Tenants: s.tenants.Names()})
	}
	if m.Action == wire.TenantActionSetLimits || m.Action == wire.TenantActionGetLimits {
		return s.handleTenantLimits(rw, m)
	}
	if s.primary != "" {
		return wire.Send(rw, &wire.NotPrimary{Primary: s.primary})
	}
	name := store.CanonicalTenant(m.Tenant)
	switch m.Action {
	case wire.TenantActionCreate:
		if err := s.tenants.Create(name); err != nil {
			return wire.Send(rw, &wire.Reject{Reason: fmt.Sprintf("create tenant: %v", err)})
		}
	case wire.TenantActionDrop:
		if err := s.tenants.Drop(name); err != nil {
			if errors.Is(err, store.ErrUnknownTenant) {
				return s.refuseTenant(rw, name)
			}
			return wire.Send(rw, &wire.Reject{Reason: fmt.Sprintf("drop tenant: %v", err)})
		}
	default:
		return wire.Send(rw, &wire.Reject{Reason: "unknown tenant action"})
	}
	return wire.Send(rw, &wire.Accept{ID: name})
}

// handleTenantLimits serves the QoS half of the tenant admin session:
// set-limits installs a per-tenant override on this node's controller,
// get-limits reports the effective envelope. Both require admission
// control to be enabled and the namespace to exist.
func (s *Server) handleTenantLimits(rw io.ReadWriter, m *wire.TenantAdmin) error {
	if s.qos == nil {
		return wire.Send(rw, &wire.Reject{Reason: "admission control disabled"})
	}
	_, name, err := s.resolve(m.Tenant)
	if err != nil {
		return s.refuseTenant(rw, name)
	}
	if m.Action == wire.TenantActionSetLimits {
		var spec wire.LimitsSpec
		if m.Limits != nil {
			spec = *m.Limits
		}
		s.qos.SetLimits(name, LimitsFromSpec(spec))
		return wire.Send(rw, &wire.Accept{ID: name})
	}
	limits, overridden := s.qos.LimitsFor(name)
	return wire.Send(rw, &wire.TenantLimits{
		Tenant: name, Spec: SpecFromLimits(limits), Overridden: overridden,
	})
}

// handleEnroll stores m's record, built in rec, the session's own.
func (s *Server) handleEnroll(rw io.ReadWriter, db *store.Journaled, m *wire.EnrollRequest, rec *store.Record) error {
	*rec = store.Record{ID: m.ID, PublicKey: m.PublicKey, Helper: m.Helper}
	err := db.Insert(rec)
	return s.commit(rw, m.Tenant, "enroll", err, &wire.EnrollOK{ID: m.ID})
}

// commit answers a mutating session after its store write: ok when err is
// nil. Otherwise a tenant dropped since the session resolved it is answered
// with UnknownTenant, a cluster write-gate verdict with its shed (frozen
// slot) or redirect (foreign slot), and any other failure with a Reject
// naming op.
func (s *Server) commit(rw io.ReadWriter, tenant, op string, err error, ok wire.Message) error {
	switch {
	case err == nil:
		return wire.Send(rw, ok)
	case errors.Is(err, store.ErrUnknownTenant):
		return s.refuseTenant(rw, store.CanonicalTenant(tenant))
	case errors.Is(err, cluster.ErrSlotFrozen):
		return wire.Send(rw, &wire.Overloaded{RetryAfterMS: handoffRetryMS, Reason: "handoff"})
	case errors.Is(err, cluster.ErrSlotNotOwned) && s.cl != nil:
		return wire.Send(rw, &wire.WrongPartition{Map: s.cl.node.Map()})
	}
	return wire.Send(rw, &wire.Reject{Reason: fmt.Sprintf("%s: %v", op, err)})
}

// scratchRecords recycles the record a verify, identify, revoke or re-enroll
// session materialises its enrolled template into, so the challenge path
// builds no movement vector per session.
var scratchRecords = sync.Pool{New: func() any { return new(store.Record) }}

func (s *Server) handleVerify(rw io.ReadWriter, db *store.Journaled, m *wire.VerifyRequest) error {
	return s.claimed(rw, db, m.ID, nil)
}

// handleRevoke deletes an enrollment after the device proves possession of
// the enrolled biometric.
func (s *Server) handleRevoke(rw io.ReadWriter, db *store.Journaled, m *wire.RevokeRequest) error {
	return s.claimed(rw, db, m.ID, func() error {
		return s.commit(rw, m.Tenant, "revoke", db.Delete(m.ID), &wire.Accept{ID: m.ID})
	})
}

// handleReEnroll replaces an enrollment's template after the device proves
// possession of the *currently enrolled* biometric. The swap goes through
// Journaled.Replace — one journalled mutation — so concurrent identify/verify
// sessions observe either the old template or the new one in full. The
// replacement is built in rec, the session's own.
func (s *Server) handleReEnroll(rw io.ReadWriter, db *store.Journaled, m *wire.ReEnrollRequest, rec *store.Record) error {
	return s.claimed(rw, db, m.ID, func() error {
		*rec = store.Record{ID: m.ID, PublicKey: m.PublicKey, Helper: m.Helper}
		err := db.Replace(rec)
		return s.commit(rw, m.Tenant, "re-enroll", err, &wire.Accept{ID: m.ID})
	})
}

// claimed serves a session keyed by a claimed ID: it loads the enrolled
// record and runs challengeResponse against it. A revoke or re-enroll is
// thus exactly as strongly authenticated as a verification: its challenge
// is built from the enrolled helper data and verified against the enrolled
// public key before commit runs.
func (s *Server) claimed(rw io.ReadWriter, db *store.Journaled, id string, commit func() error) error {
	rec := scratchRecords.Get().(*store.Record)
	defer scratchRecords.Put(rec)
	if !db.GetInto(id, rec) {
		return wire.Send(rw, &wire.Reject{Reason: "unknown identity"})
	}
	return s.challengeResponse(rw, rec, commit)
}

func (s *Server) handleIdentify(rw io.ReadWriter, db *store.Journaled, name string, m *wire.IdentifyRequest) error {
	if m.Probe == nil {
		return wire.Send(rw, &wire.Reject{Reason: "missing probe sketch"})
	}
	// The scan slot covers only the database scan — not the challenge
	// round trip, where a slow device would otherwise pin a slot.
	release, ok, err := s.scanGate(rw, name)
	if !ok {
		return err
	}
	rec := scratchRecords.Get().(*store.Record)
	defer scratchRecords.Put(rec)
	err = db.IdentifyInto(context.Background(), m.Probe, rec)
	release()
	if err != nil {
		return wire.Send(rw, &wire.Reject{Reason: "no matching record"})
	}
	return s.challengeResponse(rw, rec, nil)
}

// challengeResponse runs the server side of the step every protocol ends
// in: issue (P, c) for rec, await (sigma, a) and verify it. A verified
// session is accepted as rec.ID, or handed to commit, which applies an
// authenticated mutation and sends the verdict itself.
func (s *Server) challengeResponse(rw io.ReadWriter, rec *store.Record, commit func() error) error {
	challenge, err := newChallenge()
	if err != nil {
		return err
	}
	sig, err := expect[*wire.Signature](rw, &wire.Challenge{Helper: rec.Helper, Challenge: challenge}, "expected signature")
	if err != nil {
		return err
	}
	switch {
	case !s.verified(rec.PublicKey, challenge, sig.Nonce, sig.Signature):
		return wire.Send(rw, &wire.Reject{Reason: "signature verification failed"})
	case commit != nil:
		return commit()
	}
	return wire.Send(rw, &wire.Accept{ID: rec.ID})
}

// verified is the one signature check of every protocol: sig must sign
// ChallengeMessage(c, nonce) under pk. An empty signature — the device's
// answer when Rep failed — never verifies.
func (s *Server) verified(pk, c, nonce, sig []byte) bool {
	return len(sig) > 0 && s.scheme.Verify(pk, sigscheme.ChallengeMessage(c, nonce), sig)
}

// expect sends out and reads the peer's reply on a server session as T.
// Any other message is answered with a Reject carrying reason and fails
// the session with ErrProtocol.
func expect[T wire.Message](rw io.ReadWriter, out wire.Message, reason string) (T, error) {
	var zero T
	if err := wire.Send(rw, out); err != nil {
		return zero, err
	}
	msg, err := wire.Receive(rw)
	if err != nil {
		return zero, err
	}
	m, ok := msg.(T)
	if !ok {
		_ = wire.Send(rw, &wire.Reject{Reason: reason})
		return zero, fmt.Errorf("%w: %T (%s)", ErrProtocol, msg, reason)
	}
	return m, nil
}

// handleIdentifyNormal implements the server side of Fig. 2: ship all
// (P_i, c_i), then verify the indexed response.
func (s *Server) handleIdentifyNormal(rw io.ReadWriter, db *store.Journaled, name string) error {
	// The O(N) normal approach ships the whole table; gating the copy
	// keeps a flood of Fig. 2 runs from monopolizing the store.
	release, ok, err := s.scanGate(rw, name)
	if !ok {
		return err
	}
	records := db.All()
	release()
	challenges := make([][]byte, len(records))
	batch := &wire.ChallengeBatch{Entries: make([]wire.ChallengeEntry, len(records))}
	for i, rec := range records {
		c, err := newChallenge()
		if err != nil {
			return err
		}
		challenges[i] = c
		batch.Entries[i] = wire.ChallengeEntry{Helper: rec.Helper, Challenge: c}
	}
	resp, err := expect[*wire.BatchSignature](rw, batch, "expected batch signature")
	if err != nil {
		return err
	}
	// Compare in uint64: int(resp.Index) can go negative on 32-bit
	// platforms and would dodge the bounds check.
	if uint64(resp.Index) >= uint64(len(records)) {
		return wire.Send(rw, &wire.Reject{Reason: "no matching record"})
	}
	rec := records[resp.Index]
	if !s.verified(rec.PublicKey, challenges[resp.Index], resp.Nonce, resp.Signature) {
		return wire.Send(rw, &wire.Reject{Reason: "signature verification failed"})
	}
	return wire.Send(rw, &wire.Accept{ID: rec.ID})
}
