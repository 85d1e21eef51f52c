package protocol

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"fuzzyid/internal/cluster"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/qos"
	"fuzzyid/internal/wire"
)

// deviceCall runs one Device method. On success it returns the identity the
// call reports as established and the message type the server must have
// sent it in (none for calls that establish no identity).
type deviceCall struct {
	name string
	run  func(d *Device, rw io.ReadWriter, bio numberline.Vector) (id string, from wire.MsgType, err error)
}

const noIdentity wire.MsgType = 255

// deviceCalls lists every Device method; each claims identity "alice".
var deviceCalls = []deviceCall{
	{"Enroll", func(d *Device, rw io.ReadWriter, bio numberline.Vector) (string, wire.MsgType, error) {
		return "alice", wire.TypeEnrollOK, d.Enroll(rw, "alice", bio)
	}},
	{"Verify", func(d *Device, rw io.ReadWriter, bio numberline.Vector) (string, wire.MsgType, error) {
		return "alice", wire.TypeAccept, d.Verify(rw, "alice", bio)
	}},
	{"Identify", func(d *Device, rw io.ReadWriter, bio numberline.Vector) (string, wire.MsgType, error) {
		id, err := d.Identify(rw, bio)
		return id, wire.TypeAccept, err
	}},
	{"IdentifyNormal", func(d *Device, rw io.ReadWriter, bio numberline.Vector) (string, wire.MsgType, error) {
		id, err := d.IdentifyNormal(rw, bio)
		return id, wire.TypeAccept, err
	}},
	{"Revoke", func(d *Device, rw io.ReadWriter, bio numberline.Vector) (string, wire.MsgType, error) {
		return "alice", wire.TypeAccept, d.Revoke(rw, "alice", bio)
	}},
	{"ReEnroll", func(d *Device, rw io.ReadWriter, bio numberline.Vector) (string, wire.MsgType, error) {
		return "alice", wire.TypeAccept, d.ReEnroll(rw, "alice", bio, bio)
	}},
	{"Tenants", func(d *Device, rw io.ReadWriter, _ numberline.Vector) (string, wire.MsgType, error) {
		_, err := d.Tenants(rw)
		return "", noIdentity, err
	}},
	{"CreateTenant", func(d *Device, rw io.ReadWriter, _ numberline.Vector) (string, wire.MsgType, error) {
		return "", noIdentity, d.CreateTenant(rw, "t")
	}},
	{"DropTenant", func(d *Device, rw io.ReadWriter, _ numberline.Vector) (string, wire.MsgType, error) {
		return "", noIdentity, d.DropTenant(rw, "t")
	}},
	{"SetTenantLimits", func(d *Device, rw io.ReadWriter, _ numberline.Vector) (string, wire.MsgType, error) {
		return "", noIdentity, d.SetTenantLimits(rw, "t", qos.Limits{Rate: 1})
	}},
	{"TenantLimits", func(d *Device, rw io.ReadWriter, _ numberline.Vector) (string, wire.MsgType, error) {
		_, _, err := d.TenantLimits(rw, "t")
		return "", noIdentity, err
	}},
	{"ReplStatus", func(d *Device, rw io.ReadWriter, _ numberline.Vector) (string, wire.MsgType, error) {
		_, err := d.ReplStatus(rw)
		return "", noIdentity, err
	}},
	{"ClusterMap", func(d *Device, rw io.ReadWriter, _ numberline.Vector) (string, wire.MsgType, error) {
		_, err := d.ClusterMap(rw)
		return "", noIdentity, err
	}},
	{"PartitionHandoff", func(d *Device, rw io.ReadWriter, _ numberline.Vector) (string, wire.MsgType, error) {
		_, err := d.PartitionHandoff(rw, wire.PartitionMove, []uint32{1}, "p1", nil)
		return "", noIdentity, err
	}},
}

// scriptedReply runs call against a fake server that answers each frame the
// device sends with the next frame of replies (each a length-prefixed wire
// frame, possibly truncated or malformed) and closes the stream when they
// run out. It returns the call's result and the frames actually sent.
func scriptedReply(t testing.TB, d *Device, call deviceCall, bio numberline.Vector, replies []byte) (id string, from wire.MsgType, sent [][]byte, err error) {
	t.Helper()
	devEnd, srvEnd := net.Pipe()
	srvDone := make(chan [][]byte, 1)
	go func() {
		defer srvEnd.Close()
		var sent [][]byte
		defer func() { srvDone <- sent }()
		for len(replies) > 0 {
			if _, err := wire.ReadFrame(srvEnd); err != nil {
				return
			}
			n := len(replies)
			if n >= 4 {
				n = int(min(uint64(binary.BigEndian.Uint32(replies))+4, uint64(n)))
			}
			frame := replies[:n]
			replies = replies[n:]
			if _, err := srvEnd.Write(frame); err != nil {
				return
			}
			sent = append(sent, frame)
		}
	}()
	type result struct {
		id   string
		from wire.MsgType
		err  error
	}
	done := make(chan result, 1)
	go func() {
		id, from, err := call.run(d, devEnd, bio)
		done <- result{id, from, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: device call hung", call.name)
	}
	devEnd.Close()
	return r.id, r.from, <-srvDone, r.err
}

func encodeFrames(t testing.TB, msgs ...wire.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := wire.Send(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestDeviceRefusals pins the one reply decoder: whichever Device call a
// refusal answers, it surfaces as the matching typed error.
func TestDeviceRefusals(t *testing.T) {
	e := newEnv(t, 64, 161)
	bio := e.src.NewUser("alice").Template
	m, err := cluster.ParseSpec("p0;p1")
	if err != nil {
		t.Fatal(err)
	}
	refusals := []struct {
		msg wire.Message
		is  func(error) bool
	}{
		{&wire.Reject{Reason: "no"}, IsRejected},
		{&wire.NotPrimary{Primary: "p0"}, func(err error) bool { p, ok := IsNotPrimary(err); return ok && p == "p0" }},
		{&wire.UnknownTenant{Tenant: "t"}, func(err error) bool { n, ok := IsUnknownTenant(err); return ok && n == "t" }},
		{&wire.Overloaded{RetryAfterMS: 5, Reason: "rate"}, func(err error) bool { d, ok := IsOverloaded(err); return ok && d == 5*time.Millisecond }},
		{&wire.WrongPartition{Map: m}, func(err error) bool { got, ok := IsWrongPartition(err); return ok && got.Version == m.Version }},
	}
	for _, call := range deviceCalls {
		for _, r := range refusals {
			_, _, _, err := scriptedReply(t, e.device, call, bio, encodeFrames(t, r.msg))
			if !r.is(err) {
				t.Errorf("%s answered with %T: err = %v", call.name, r.msg, err)
			}
		}
	}
}

// FuzzDeviceReplies answers each Device call with fuzzed server frames. The
// call must return, without panicking, and may report success only for an
// identity a frame of the expected type actually accepted.
func FuzzDeviceReplies(f *testing.F) {
	e := newEnv(f, 64, 162)
	bio := e.src.NewUser("alice").Template
	_, helper, err := e.fe.Gen(bio)
	if err != nil {
		f.Fatal(err)
	}
	c := bytes.Repeat([]byte{7}, ChallengeLen)
	m, err := cluster.ParseSpec("p0;p1")
	if err != nil {
		f.Fatal(err)
	}
	refusals := []wire.Message{
		&wire.Reject{Reason: "no"}, &wire.NotPrimary{Primary: "p0"}, &wire.UnknownTenant{Tenant: "t"},
		&wire.Overloaded{RetryAfterMS: 5, Reason: "rate"}, &wire.WrongPartition{Map: m},
	}
	happy := [][]wire.Message{
		{&wire.EnrollOK{ID: "alice"}},
		{&wire.Challenge{Helper: helper, Challenge: c}, &wire.Accept{ID: "alice"}},
		{&wire.Challenge{Helper: helper, Challenge: c}, &wire.Accept{ID: "alice"}},
		{&wire.ChallengeBatch{Entries: []wire.ChallengeEntry{{Helper: helper, Challenge: c}}}, &wire.Accept{ID: "alice"}},
		{&wire.Challenge{Helper: helper, Challenge: c}, &wire.Accept{ID: "alice"}},
		{&wire.Challenge{Helper: helper, Challenge: c}, &wire.Accept{ID: "alice"}},
		{&wire.TenantInfo{Tenants: []string{"default"}}},
		{&wire.Accept{ID: "t"}},
		{&wire.Accept{ID: "t"}},
		{&wire.Accept{ID: "t"}},
		{&wire.TenantLimits{Tenant: "t"}},
		{&wire.ReplStatusInfo{Role: "standalone"}},
		{&wire.ClusterMapInfo{Map: m}},
		{&wire.PartitionOK{Version: 2}},
	}
	for i, msgs := range happy {
		if _, _, _, err := scriptedReply(f, e.device, deviceCalls[i], bio, encodeFrames(f, msgs...)); err != nil {
			f.Fatalf("%s on its well-formed transcript: %v", deviceCalls[i].name, err)
		}
		f.Add(byte(i), encodeFrames(f, msgs...))
		f.Add(byte(i), encodeFrames(f, append(msgs[:len(msgs)-1:len(msgs)-1], refusals[i%len(refusals)])...))
	}
	f.Add(byte(2), encodeFrames(f, &wire.Challenge{Helper: helper, Challenge: c}, &wire.Accept{ID: "mallory"}))
	f.Add(byte(1), encodeFrames(f, &wire.Challenge{Helper: helper, Challenge: c}, &wire.Accept{ID: "mallory"}))
	// Replies under retired tags (12–15, once a batched identify's
	// challenge and result; 16–17, once a stats session's request and
	// snapshot) decode to nothing and establish no identity.
	f.Add(byte(2), []byte{0, 0, 0, 5, 13, 0, 0, 0, 0})
	f.Add(byte(1), []byte{0, 0, 0, 5, 15, 0, 0, 0, 0})
	f.Add(byte(6), []byte{0, 0, 0, 5, 16, 0, 0, 0, 0})
	f.Add(byte(6), []byte{0, 0, 0, 5, 17, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, which byte, replies []byte) {
		call := deviceCalls[int(which)%len(deviceCalls)]
		id, from, sent, err := scriptedReply(t, e.device, call, bio, replies)
		if err != nil || from == noIdentity {
			return
		}
		accepted := map[string]bool{}
		for _, frame := range sent {
			msg, derr := wire.Receive(bytes.NewReader(frame))
			if derr != nil || msg.Type() != from {
				continue
			}
			switch m := msg.(type) {
			case *wire.EnrollOK:
				accepted[m.ID] = true
			case *wire.Accept:
				accepted[m.ID] = true
			}
		}
		if id != "" && !accepted[id] {
			t.Fatalf("%s reported %q established; the server's %v frames accepted %v", call.name, id, from, accepted)
		}
	})
}
