package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"fuzzyid/internal/core"
	"fuzzyid/internal/sketch"
)

// MsgType tags every protocol message on the wire.
type MsgType byte

// Message type tags. The values are part of the wire contract; append only.
const (
	// TypeEnrollRequest carries (ID, pk, P) from the device to the server.
	TypeEnrollRequest MsgType = iota + 1
	// TypeEnrollOK acknowledges enrollment.
	TypeEnrollOK
	// TypeVerifyRequest opens verification mode with a claimed identity.
	TypeVerifyRequest
	// TypeIdentifyRequest opens identification mode with a probe sketch s'.
	TypeIdentifyRequest
	// TypeChallenge carries (P, c) from the server to the device.
	TypeChallenge
	// TypeChallengeBatch carries all (P_i, c_i) for the normal approach.
	TypeChallengeBatch
	// TypeSignature carries (sigma, a) from the device to the server.
	TypeSignature
	// TypeBatchSignature carries (index, sigma, a) for the normal approach.
	TypeBatchSignature
	// TypeAccept reports a successful protocol run and the identified ID.
	TypeAccept
	// TypeReject reports a failed protocol run.
	TypeReject
	// TypeRevokeRequest asks to revoke an enrollment after proving
	// possession of the biometric (challenge-response follows).
	TypeRevokeRequest
	// Tags 12–15 (a batched identify) and 16–17 (a stats session; the
	// snapshot is served over HTTP instead) are retired and stay reserved
	// so no later tag moves; a server answers them with Reject.
	_
	_
	_
	_
	_
	_
	// TypeNotPrimary rejects a mutation on a read-only replica, naming the
	// primary the client should redirect to.
	TypeNotPrimary
	// TypeReplSubscribe opens a replication stream from a given offset.
	TypeReplSubscribe
	// TypeReplSnapshot carries one chunk of a snapshot bootstrap.
	TypeReplSnapshot
	// TypeReplFrame ships one committed mutation at its log offset.
	TypeReplFrame
	// TypeReplAck reports the follower's applied offset back to the primary.
	TypeReplAck
	// TypeReplHeartbeat keeps an idle replication stream alive and carries
	// the primary's latest offset.
	TypeReplHeartbeat
	// TypeReplStatus asks a server for its replication role and progress.
	TypeReplStatus
	// TypeReplStatusInfo answers a ReplStatus probe.
	TypeReplStatusInfo
	// TypeUnknownTenant rejects an operation naming a tenant namespace the
	// server does not host (see tenant.go).
	TypeUnknownTenant
	// TypeTenantAdmin opens a tenant administration session: list, create
	// or drop a namespace (see tenant.go).
	TypeTenantAdmin
	// TypeTenantInfo answers a tenant list request with the hosted
	// namespace names (see tenant.go).
	TypeTenantInfo
	// TypeOverloaded sheds a session the admission controller refused to
	// run, carrying a retry-after hint (see tenant.go).
	TypeOverloaded
	// TypeTenantLimits answers a get-limits tenant-admin request with the
	// namespace's effective QoS envelope (see tenant.go).
	TypeTenantLimits
	// TypeReEnrollRequest asks to replace an enrollment's template (fresh
	// pk and helper data) after proving possession of the currently
	// enrolled biometric (challenge-response follows).
	TypeReEnrollRequest
	// TypeClusterMapRequest asks a cluster node for its current versioned
	// cluster map (see cluster.go).
	TypeClusterMapRequest
	// TypeClusterMapInfo answers a ClusterMapRequest with the node's
	// current cluster map (see cluster.go).
	TypeClusterMapInfo
	// TypeWrongPartition refuses a keyed operation routed to a node whose
	// group does not own the key's slot, carrying the refusing node's map
	// so the client can re-route in one round (see cluster.go).
	TypeWrongPartition
	// TypePartitionAdmin asks a partition primary to split or move a set
	// of its slots to a target primary via record handoff (see
	// cluster.go).
	TypePartitionAdmin
	// TypePartitionIngest streams one chunk of a partition handoff from
	// the source primary to the target (see cluster.go).
	TypePartitionIngest
	// TypePartitionOK acknowledges a completed partition admin operation
	// or ingest stream, carrying the resulting map version (see
	// cluster.go).
	TypePartitionOK
)

// Message is implemented by every protocol message.
type Message interface {
	// Type returns the wire tag.
	Type() MsgType
	// encode appends the message body (without tag).
	encode(e *Encoder)
	// decode parses the message body (without tag).
	decode(d *Decoder) error
}

// decodeTenantTail reads a request's trailing tenant field ("" selects the
// default tenant). The field is mandatory on the live wire — truncated
// frames must stay rejected — while *stored* mutation streams get their
// version tolerance from the mutation codec's tag space (repl.go), which is
// where pre-tenant bytes actually survive.
func decodeTenantTail(d *Decoder) (string, error) {
	return d.String(MaxTenantLen)
}

// EnrollRequest registers a user: the UserEnro message (ID, pk, P).
type EnrollRequest struct {
	// ID is the identity being enrolled.
	ID string
	// PublicKey is the serialized signature-verification key pk.
	PublicKey []byte
	// Helper is the public helper data P = (s, r).
	Helper *core.HelperData
	// Tenant is the namespace to enroll into ("" = default tenant).
	Tenant string
}

// Type implements Message.
func (*EnrollRequest) Type() MsgType { return TypeEnrollRequest }

func (m *EnrollRequest) encode(e *Encoder) {
	e.String(m.ID)
	e.VarBytes(m.PublicKey)
	encodeHelper(e, m.Helper)
	e.String(m.Tenant)
}

func (m *EnrollRequest) decode(d *Decoder) error {
	var err error
	if m.ID, err = d.String(MaxBytesLen); err != nil {
		return err
	}
	if m.PublicKey, err = d.varBytesInto(MaxBytesLen, d.open.pkBuf()); err != nil {
		return err
	}
	if m.Helper, err = decodeHelperInto(d, d.open); err != nil {
		return err
	}
	m.Tenant, err = decodeTenantTail(d)
	return err
}

// EnrollOK acknowledges an enrollment.
type EnrollOK struct {
	// ID echoes the enrolled identity.
	ID string
}

// Type implements Message.
func (*EnrollOK) Type() MsgType { return TypeEnrollOK }

func (m *EnrollOK) encode(e *Encoder) { e.String(m.ID) }

func (m *EnrollOK) decode(d *Decoder) error {
	var err error
	m.ID, err = d.String(MaxBytesLen)
	return err
}

// VerifyRequest opens a verification-mode run with a claimed identity.
type VerifyRequest struct {
	// ID is the claimed identity to verify against.
	ID string
	// Tenant is the namespace the identity lives in ("" = default tenant).
	Tenant string
}

// Type implements Message.
func (*VerifyRequest) Type() MsgType { return TypeVerifyRequest }

func (m *VerifyRequest) encode(e *Encoder) {
	e.String(m.ID)
	e.String(m.Tenant)
}

func (m *VerifyRequest) decode(d *Decoder) error {
	var err error
	if m.ID, err = d.String(MaxBytesLen); err != nil {
		return err
	}
	m.Tenant, err = decodeTenantTail(d)
	return err
}

// IdentifyRequest opens an identification-mode run: the probe sketch s'.
// Normal is true when the client asks for the O(N) normal approach of
// Fig. 2 instead of the proposed sketch-search protocol (used by the
// comparison experiments; Fig. 2's request carries no sketch).
type IdentifyRequest struct {
	// Probe is the plain probe sketch s' (nil in a normal-approach run).
	Probe *sketch.Sketch
	// Normal selects the O(N) normal approach of Fig. 2.
	Normal bool
	// Tenant is the namespace to search ("" = default tenant).
	Tenant string
}

// Type implements Message.
func (*IdentifyRequest) Type() MsgType { return TypeIdentifyRequest }

func (m *IdentifyRequest) encode(e *Encoder) {
	e.Bool(m.Normal)
	if m.Probe == nil {
		e.Int64Slice(nil)
	} else {
		e.Int64Slice(m.Probe.Movements)
	}
	e.String(m.Tenant)
}

func (m *IdentifyRequest) decode(d *Decoder) error {
	var err error
	if m.Normal, err = d.Bool(); err != nil {
		return err
	}
	movements, err := d.Int64Slice(MaxVectorLen)
	if err != nil {
		return err
	}
	if len(movements) == 0 {
		m.Probe = nil
	} else {
		m.Probe = &sketch.Sketch{Movements: movements}
	}
	m.Tenant, err = decodeTenantTail(d)
	return err
}

// Challenge carries the helper data and a fresh challenge (P, c) to the
// device.
type Challenge struct {
	// Helper is the matched record's helper data P.
	Helper *core.HelperData
	// Challenge is the fresh random challenge c.
	Challenge []byte
}

// Type implements Message.
func (*Challenge) Type() MsgType { return TypeChallenge }

func (m *Challenge) encode(e *Encoder) {
	encodeHelper(e, m.Helper)
	e.VarBytes(m.Challenge)
}

func (m *Challenge) decode(d *Decoder) error {
	var err error
	if m.Helper, err = decodeHelper(d); err != nil {
		return err
	}
	m.Challenge, err = d.VarBytes(MaxBytesLen)
	return err
}

// ChallengeEntry is one (P_i, c_i) pair of the normal approach.
type ChallengeEntry struct {
	// Helper is one enrolled helper datum P_i.
	Helper *core.HelperData
	// Challenge is the challenge c_i paired with it.
	Challenge []byte
}

// ChallengeBatch carries every enrolled helper datum with its challenge —
// the server side of Fig. 2, where the device must try Rep against each.
type ChallengeBatch struct {
	// Entries holds one (P_i, c_i) pair per enrolled record.
	Entries []ChallengeEntry
}

// Type implements Message.
func (*ChallengeBatch) Type() MsgType { return TypeChallengeBatch }

func (m *ChallengeBatch) encode(e *Encoder) {
	e.Uint32(uint32(len(m.Entries)))
	for i := range m.Entries {
		encodeHelper(e, m.Entries[i].Helper)
		e.VarBytes(m.Entries[i].Challenge)
	}
}

func (m *ChallengeBatch) decode(d *Decoder) error {
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if int(n) > MaxBatchLen {
		return fmt.Errorf("%w: batch %d", ErrTooLarge, n)
	}
	m.Entries = make([]ChallengeEntry, n)
	for i := range m.Entries {
		if m.Entries[i].Helper, err = decodeHelper(d); err != nil {
			return err
		}
		if m.Entries[i].Challenge, err = d.VarBytes(MaxBytesLen); err != nil {
			return err
		}
	}
	return nil
}

// Signature carries the device response (sigma, a).
type Signature struct {
	// Signature is sigma, the signature over (c, a).
	Signature []byte
	// Nonce is the device-chosen nonce a.
	Nonce []byte
}

// Type implements Message.
func (*Signature) Type() MsgType { return TypeSignature }

func (m *Signature) encode(e *Encoder) {
	e.VarBytes(m.Signature)
	e.VarBytes(m.Nonce)
}

func (m *Signature) decode(d *Decoder) error {
	var err error
	if m.Signature, err = d.VarBytes(MaxBytesLen); err != nil {
		return err
	}
	m.Nonce, err = d.VarBytes(MaxBytesLen)
	return err
}

// BatchSignature is the device response in the normal approach: which batch
// entry succeeded, plus (sigma, a) for that entry's challenge.
type BatchSignature struct {
	// Index is the batch entry whose challenge was answered.
	Index uint32
	// Signature is sigma for that entry's challenge.
	Signature []byte
	// Nonce is the device-chosen nonce a.
	Nonce []byte
}

// Type implements Message.
func (*BatchSignature) Type() MsgType { return TypeBatchSignature }

func (m *BatchSignature) encode(e *Encoder) {
	e.Uint32(m.Index)
	e.VarBytes(m.Signature)
	e.VarBytes(m.Nonce)
}

func (m *BatchSignature) decode(d *Decoder) error {
	var err error
	if m.Index, err = d.Uint32(); err != nil {
		return err
	}
	if m.Signature, err = d.VarBytes(MaxBytesLen); err != nil {
		return err
	}
	m.Nonce, err = d.VarBytes(MaxBytesLen)
	return err
}

// Accept reports protocol success with the identified/verified identity.
type Accept struct {
	// ID is the identified or verified identity.
	ID string
}

// Type implements Message.
func (*Accept) Type() MsgType { return TypeAccept }

func (m *Accept) encode(e *Encoder) { e.String(m.ID) }

func (m *Accept) decode(d *Decoder) error {
	var err error
	m.ID, err = d.String(MaxBytesLen)
	return err
}

// RevokeRequest opens a revocation run for a claimed identity. The server
// answers with a Challenge; only a device that can reproduce the enrolled
// key may complete the revocation (biometric-authenticated deletion).
type RevokeRequest struct {
	// ID is the identity whose enrollment should be revoked.
	ID string
	// Tenant is the namespace the identity lives in ("" = default tenant).
	Tenant string
}

// Type implements Message.
func (*RevokeRequest) Type() MsgType { return TypeRevokeRequest }

func (m *RevokeRequest) encode(e *Encoder) {
	e.String(m.ID)
	e.String(m.Tenant)
}

func (m *RevokeRequest) decode(d *Decoder) error {
	var err error
	if m.ID, err = d.String(MaxBytesLen); err != nil {
		return err
	}
	m.Tenant, err = decodeTenantTail(d)
	return err
}

// ReEnrollRequest opens a re-enrollment run: replace the identity's
// enrolled template with a fresh (pk, P) pair generated from a new reading.
// The server answers with a Challenge built from the *currently enrolled*
// helper data; only a device that can still reproduce the old key — i.e.
// that possesses the enrolled biometric — may install the replacement
// (biometric-authenticated template rotation, the online answer to
// template aging).
type ReEnrollRequest struct {
	// ID is the identity whose template should be replaced.
	ID string
	// PublicKey is the replacement signature-verification key pk'.
	PublicKey []byte
	// Helper is the replacement helper data P' = (s', r').
	Helper *core.HelperData
	// Tenant is the namespace the identity lives in ("" = default tenant).
	Tenant string
}

// Type implements Message.
func (*ReEnrollRequest) Type() MsgType { return TypeReEnrollRequest }

func (m *ReEnrollRequest) encode(e *Encoder) {
	e.String(m.ID)
	e.VarBytes(m.PublicKey)
	encodeHelper(e, m.Helper)
	e.String(m.Tenant)
}

func (m *ReEnrollRequest) decode(d *Decoder) error {
	var err error
	if m.ID, err = d.String(MaxBytesLen); err != nil {
		return err
	}
	if m.PublicKey, err = d.varBytesInto(MaxBytesLen, d.open.pkBuf()); err != nil {
		return err
	}
	if m.Helper, err = decodeHelperInto(d, d.open); err != nil {
		return err
	}
	m.Tenant, err = decodeTenantTail(d)
	return err
}

// Reject reports protocol failure (the ⊥ output).
type Reject struct {
	// Reason is a human-readable explanation of the rejection.
	Reason string
}

// Type implements Message.
func (*Reject) Type() MsgType { return TypeReject }

func (m *Reject) encode(e *Encoder) { e.String(m.Reason) }

func (m *Reject) decode(d *Decoder) error {
	var err error
	m.Reason, err = d.String(MaxBytesLen)
	return err
}

// Marshal encodes a message with its type tag.
func Marshal(m Message) ([]byte, error) {
	if m == nil {
		return nil, errNilMessage
	}
	e := NewEncoder(256)
	e.Byte(byte(m.Type()))
	m.encode(e)
	return e.Bytes(), nil
}

var errNilMessage = errors.New("wire: marshal nil message")

// Unmarshal decodes a tagged message.
func Unmarshal(buf []byte) (Message, error) { return unmarshal(NewDecoder(buf)) }

func unmarshal(d *Decoder) (Message, error) {
	tag, err := d.Byte()
	if err != nil {
		return nil, badFrame(err)
	}
	m, err := d.open.message(MsgType(tag))
	if err != nil {
		return nil, err
	}
	if err := m.decode(d); err != nil {
		return nil, badFrame(fmt.Errorf("wire: decode %T: %w", m, err))
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// badFrame marks a decode error as ErrBadFrame, keeping its own sentinel
// (ErrTruncated, ErrTooLarge) matchable beside it.
func badFrame(err error) error {
	if errors.Is(err, ErrBadFrame) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrBadFrame, err)
}

// maxPooledFrame bounds the frame buffers Send and Receive recycle; a larger
// frame (a snapshot chunk, a normal-approach batch) uses a one-off buffer.
const maxPooledFrame = 1 << 20

// frameBufs recycles Send's and Receive's frame buffers, each held in the
// Encoder Send writes through, so a Send allocates neither. Recycling a
// received frame is safe because every decoder copies what it keeps
// (VarBytes, String, Bytes32, Int64Slice): no decoded message aliases its
// frame. A sent frame is done with once Write returns (io.Writer must not
// retain it).
var frameBufs = sync.Pool{New: func() any { return new(Encoder) }}

// Send marshals m and writes it as one frame — header, tag and body in
// one buffer, so one Write.
func Send(w io.Writer, m Message) error {
	if m == nil {
		return errNilMessage
	}
	e := frameBufs.Get().(*Encoder)
	defer frameBufs.Put(e)
	e.buf = append(e.buf[:0], 0, 0, 0, 0, byte(m.Type()))
	m.encode(e)
	frame := e.buf
	if cap(frame) > maxPooledFrame {
		e.buf = nil
	}
	if len(frame)-4 > MaxFrameLen {
		return fmt.Errorf("%w: frame %d bytes", ErrTooLarge, len(frame)-4)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// Receive reads one frame and unmarshals the message. The message owns
// every byte it holds.
func Receive(r io.Reader) (Message, error) { return ReceiveInto(r, nil) }

// ReceiveInto is Receive decoding the message's first movement vector —
// an IdentifyRequest's probe, the helper movements of a Challenge,
// EnrollRequest or ReEnrollRequest — into scratch's capacity, and setting
// *scratch to it. The decoded message aliases *scratch from then on: the
// caller may reuse the scratch (pass it to ReceiveInto again, or return it
// to a pool) only once nothing holds the message any more. A nil scratch
// is Receive.
func ReceiveInto(r io.Reader, scratch *[]int64) (Message, error) {
	return receive(r, &Decoder{scratch: scratch})
}

// Opener is the reusable decode state of the message that opens a server
// session. ReceiveOpener decodes an EnrollRequest or ReEnrollRequest wholly
// into it: the message struct, the helper data's three structs, and the
// public key, seed and movement vector, each in capacity an earlier
// session left. Only the ID and tenant strings are allocated, as a store
// keeps the ID. The zero value is ready to use.
type Opener struct {
	d         Decoder
	movements []int64
	pk, seed  []byte
	enroll    EnrollRequest
	reEnroll  ReEnrollRequest
	helper    core.HelperData
	robust    sketch.RobustSketch
	sketch    sketch.Sketch
}

// ReceiveOpener is ReceiveInto for a session's opening message, decoding
// into o: an EnrollRequest or ReEnrollRequest is o's own, and any other
// message decodes its first movement vector into o's. The message aliases
// o from then on: the caller may reuse o (pass it to ReceiveOpener again,
// or return it to a pool) only once nothing holds the message, nor
// anything taken from it, any more.
func ReceiveOpener(r io.Reader, o *Opener) (Message, error) {
	o.d = Decoder{scratch: &o.movements, open: o}
	m, err := receive(r, &o.d)
	o.d = Decoder{}
	return m, err
}

// Retained returns the bytes of buffer capacity o keeps for the next
// session, so a pool can drop an opener a hostile peer inflated.
func (o *Opener) Retained() int { return 8*cap(o.movements) + cap(o.pk) + cap(o.seed) }

// pkBuf and seedBuf return the buffers a public key and a seed decode
// into: o's, or nil (a fresh copy) for a nil o.
func (o *Opener) pkBuf() *[]byte {
	if o == nil {
		return nil
	}
	return &o.pk
}

func (o *Opener) seedBuf() *[]byte {
	if o == nil {
		return nil
	}
	return &o.seed
}

// message returns the zeroed message a tag decodes into: o's own for an
// enroll or re-enroll opener, and a fresh one otherwise or for a nil o.
func (o *Opener) message(t MsgType) (Message, error) {
	if o != nil {
		switch t {
		case TypeEnrollRequest:
			o.enroll = EnrollRequest{}
			return &o.enroll, nil
		case TypeReEnrollRequest:
			o.reEnroll = ReEnrollRequest{}
			return &o.reEnroll, nil
		}
	}
	return newMessage(t)
}

// receive reads one frame into a pooled buffer and unmarshals it through d.
func receive(r io.Reader, d *Decoder) (Message, error) {
	fb := frameBufs.Get().(*Encoder)
	defer frameBufs.Put(fb)
	buf, err := readFrameInto(r, fb.buf)
	if err != nil {
		return nil, err
	}
	if cap(buf) <= maxPooledFrame {
		fb.buf = buf[:0]
	}
	d.buf = buf
	return unmarshal(d)
}

func newMessage(t MsgType) (Message, error) {
	switch t {
	case TypeEnrollRequest:
		return &EnrollRequest{}, nil
	case TypeEnrollOK:
		return &EnrollOK{}, nil
	case TypeVerifyRequest:
		return &VerifyRequest{}, nil
	case TypeIdentifyRequest:
		return &IdentifyRequest{}, nil
	case TypeChallenge:
		return &Challenge{}, nil
	case TypeChallengeBatch:
		return &ChallengeBatch{}, nil
	case TypeSignature:
		return &Signature{}, nil
	case TypeBatchSignature:
		return &BatchSignature{}, nil
	case TypeAccept:
		return &Accept{}, nil
	case TypeReject:
		return &Reject{}, nil
	case TypeRevokeRequest:
		return &RevokeRequest{}, nil
	case TypeNotPrimary:
		return &NotPrimary{}, nil
	case TypeReplSubscribe:
		return &ReplSubscribe{}, nil
	case TypeReplSnapshot:
		return &ReplSnapshot{}, nil
	case TypeReplFrame:
		return &ReplFrame{}, nil
	case TypeReplAck:
		return &ReplAck{}, nil
	case TypeReplHeartbeat:
		return &ReplHeartbeat{}, nil
	case TypeReplStatus:
		return &ReplStatus{}, nil
	case TypeReplStatusInfo:
		return &ReplStatusInfo{}, nil
	case TypeUnknownTenant:
		return &UnknownTenant{}, nil
	case TypeTenantAdmin:
		return &TenantAdmin{}, nil
	case TypeTenantInfo:
		return &TenantInfo{}, nil
	case TypeOverloaded:
		return &Overloaded{}, nil
	case TypeTenantLimits:
		return &TenantLimits{}, nil
	case TypeReEnrollRequest:
		return &ReEnrollRequest{}, nil
	case TypeClusterMapRequest:
		return &ClusterMapRequest{}, nil
	case TypeClusterMapInfo:
		return &ClusterMapInfo{}, nil
	case TypeWrongPartition:
		return &WrongPartition{}, nil
	case TypePartitionAdmin:
		return &PartitionAdmin{}, nil
	case TypePartitionIngest:
		return &PartitionIngest{}, nil
	case TypePartitionOK:
		return &PartitionOK{}, nil
	default:
		return nil, fmt.Errorf("%w %d", ErrUnknownType, t)
	}
}

// encodeHelper writes a HelperData; see EncodeHelper (record.go), which is
// the exported form shared with the on-disk record codec.
func encodeHelper(e *Encoder, h *core.HelperData) { EncodeHelper(e, h) }

func decodeHelper(d *Decoder) (*core.HelperData, error) { return decodeHelperInto(d, nil) }

// decodeHelperInto is decodeHelper building the helper data in o's structs
// and its seed in o's buffer when o is non-nil.
func decodeHelperInto(d *Decoder, o *Opener) (*core.HelperData, error) {
	movements, err := d.Int64Slice(MaxVectorLen)
	if err != nil {
		return nil, err
	}
	digest, err := d.Bytes32()
	if err != nil {
		return nil, err
	}
	seed, err := d.varBytesInto(MaxBytesLen, o.seedBuf())
	if err != nil {
		return nil, err
	}
	if len(movements) == 0 && len(seed) == 0 {
		return nil, nil
	}
	if o == nil {
		return &core.HelperData{
			Sketch: &sketch.RobustSketch{
				Sketch: &sketch.Sketch{Movements: movements},
				Digest: digest,
			},
			Seed: seed,
		}, nil
	}
	o.sketch = sketch.Sketch{Movements: movements}
	o.robust = sketch.RobustSketch{Sketch: &o.sketch, Digest: digest}
	o.helper = core.HelperData{Sketch: &o.robust, Seed: seed}
	return &o.helper, nil
}
