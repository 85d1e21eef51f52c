package wire

import (
	"bytes"
	"testing"

	"fuzzyid/internal/sketch"
	"fuzzyid/internal/store"
)

// everyMessage returns one populated message of every type, the helpers
// taken from the golden paper-dimension Gen.
func everyMessage(t *testing.T) []Message {
	t.Helper()
	_, _, _, helper := goldenGen(t)
	probe := &sketch.Sketch{Movements: helper.Sketch.Sketch.Movements}
	rec := &store.Record{ID: "golden", PublicKey: []byte("golden-public-key"), Helper: helper}
	m := testClusterMap(9)
	return []Message{
		&EnrollRequest{ID: "alice", PublicKey: []byte{1, 2, 3}, Helper: helper, Tenant: "acme"},
		&EnrollOK{ID: "alice"},
		&VerifyRequest{ID: "bob", Tenant: "acme"},
		&IdentifyRequest{Probe: probe},
		&Challenge{Helper: helper, Challenge: []byte("golden-challenge")},
		&ChallengeBatch{Entries: []ChallengeEntry{{Helper: helper, Challenge: []byte("c0")}}},
		&Signature{Signature: []byte("sig"), Nonce: []byte("nonce")},
		&BatchSignature{Index: 7, Signature: []byte("sig"), Nonce: []byte("a")},
		&Accept{ID: "alice"},
		&Reject{Reason: "no matching record"},
		&RevokeRequest{ID: "alice"},
		&NotPrimary{Primary: "10.0.0.1:7700"},
		&ReplSubscribe{Epoch: 0xdead, From: 42},
		&ReplSnapshot{Epoch: 1, Next: 10, First: true, Done: true, Records: []*store.Record{rec}},
		&ReplFrame{Epoch: 2, Offset: 9, Mut: store.ReplaceMutation(rec)},
		&ReplAck{Offset: 8},
		&ReplHeartbeat{Epoch: 2, Latest: 9},
		&ReplStatus{},
		&ReplStatusInfo{Role: "replica", Primary: "10.0.0.1:7700", Epoch: 2, Applied: 8, Latest: 9, Connected: true},
		&UnknownTenant{Tenant: "ghost"},
		&TenantAdmin{Action: TenantActionSetLimits, Tenant: "acme",
			Limits: &LimitsSpec{RateMilli: 1500, Burst: 10, MaxConcurrent: 8, Weight: 3}},
		&TenantInfo{Tenants: []string{"default", "acme"}},
		&Overloaded{RetryAfterMS: 120, Reason: "rate"},
		&TenantLimits{Tenant: "acme", Spec: LimitsSpec{RateMilli: 250, Weight: 1}, Overridden: true},
		&ReEnrollRequest{ID: "alice", PublicKey: []byte{7}, Helper: helper, Tenant: "acme"},
		&ClusterMapRequest{},
		&ClusterMapInfo{Map: m},
		&WrongPartition{Map: m},
		&PartitionAdmin{Action: PartitionSplit, Slots: []uint32{0, 2, 4}, Target: "10.0.0.9:7700", TargetReplicas: []string{"10.0.0.10:7700"}},
		&PartitionIngest{Tenant: "acme", Records: []*store.Record{rec}},
		&PartitionOK{Version: 9},
	}
}

// TestDecodedMessagesOwnTheirBytes is what makes Receive's frame-buffer
// pool safe: for every message type, a decoded message must survive its
// frame being overwritten, re-marshalling to exactly the original bytes.
// A decoder that kept a slice of the frame would re-marshal 0xFF bytes.
func TestDecodedMessagesOwnTheirBytes(t *testing.T) {
	seen := map[MsgType]bool{}
	for _, msg := range everyMessage(t) {
		seen[msg.Type()] = true
		orig, err := Marshal(msg)
		if err != nil {
			t.Fatalf("marshal %T: %v", msg, err)
		}
		frame := bytes.Clone(orig)
		got, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("unmarshal %T: %v", msg, err)
		}
		for i := range frame {
			frame[i] = 0xFF
		}
		again, err := Marshal(got)
		if err != nil {
			t.Fatalf("re-marshal %T: %v", msg, err)
		}
		if !bytes.Equal(again, orig) {
			t.Errorf("%T aliases its frame: re-marshalled bytes changed when the frame was overwritten", msg)
		}
	}
	for typ := TypeEnrollRequest; typ <= TypePartitionOK; typ++ {
		if !seen[typ] && !retiredTag(typ) {
			t.Errorf("message type %d has no sample", typ)
		}
	}
}

// TestReceiveReusesFrameBuffer pins the allocation cost of reading a frame:
// receiving an n = 5000 Challenge allocates exactly what decoding it does,
// because the frame header and the 40 KB payload are both read into a
// pooled buffer.
func TestReceiveReusesFrameBuffer(t *testing.T) {
	_, _, _, helper := goldenGen(t)
	ch := &Challenge{Helper: helper, Challenge: []byte("golden-challenge")}
	payload, err := Marshal(ch)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Send(&buf, ch); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	receive := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if _, err := Receive(r); err != nil {
			t.Fatal(err)
		}
	})
	decode := testing.AllocsPerRun(100, func() {
		if _, err := Unmarshal(payload); err != nil {
			t.Fatal(err)
		}
	})
	if receive != decode {
		t.Fatalf("Receive allocates %v per Challenge, Unmarshal %v: want the same", receive, decode)
	}
}

// writeCounter records every Write call.
type writeCounter struct {
	writes int
	bytes.Buffer
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestSendWritesOneFrame pins Send's output for every message type: one
// Write carrying exactly the length header and the marshalled message.
func TestSendWritesOneFrame(t *testing.T) {
	for _, msg := range everyMessage(t) {
		payload, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 { // the second Send reuses the pooled buffer
			var w writeCounter
			if err := Send(&w, msg); err != nil {
				t.Fatalf("send %T: %v", msg, err)
			}
			if w.writes != 1 || !bytes.Equal(w.Bytes(), frame(payload)) {
				t.Fatalf("%T: %d writes of %d bytes, want one write of the %d-byte frame",
					msg, w.writes, w.Len(), len(payload)+4)
			}
		}
	}
}

// TestReceiveIntoDecodesIntoScratch checks the aliasing ReceiveInto
// documents: the Challenge's movements are the scratch's array, so a
// warmed scratch takes the 40 KB vector out of the decode.
func TestReceiveIntoDecodesIntoScratch(t *testing.T) {
	_, _, _, helper := goldenGen(t)
	var buf bytes.Buffer
	if err := Send(&buf, &Challenge{Helper: helper, Challenge: []byte("c")}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	scratch := make([]int64, 0, helper.Dimension())
	msg, err := ReceiveInto(bytes.NewReader(frame), &scratch)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(*Challenge).Helper.Sketch.Sketch.Movements
	if len(scratch) != helper.Dimension() || &got[0] != &scratch[0] {
		t.Fatal("decoded movements do not alias the scratch")
	}
	r := bytes.NewReader(frame)
	into := testing.AllocsPerRun(50, func() {
		r.Reset(frame)
		if _, err := ReceiveInto(r, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	plain := testing.AllocsPerRun(50, func() {
		r.Reset(frame)
		if _, err := Receive(r); err != nil {
			t.Fatal(err)
		}
	})
	if into != plain-1 {
		t.Fatalf("ReceiveInto allocates %v, Receive %v: want exactly the movement vector fewer", into, plain)
	}
}

// TestReceiveOpenerDecodesIntoOpener checks the aliasing ReceiveOpener
// documents: an EnrollRequest or ReEnrollRequest is the opener's own
// struct, with its public key, helper data, seed and movements in the
// opener's buffers, so a warm opener decodes one allocating only its ID. A
// message from plain Receive owns its bytes: decoding another opener into
// the same state leaves it as it was.
func TestReceiveOpenerDecodesIntoOpener(t *testing.T) {
	_, _, _, helper := goldenGen(t)
	other := helper.Clone()
	other.Seed[0] ^= 0xff
	other.Sketch.Sketch.Movements[0]++
	for _, c := range []struct{ first, second Message }{
		{&EnrollRequest{ID: "alice", PublicKey: []byte("pk-1"), Helper: helper}, &EnrollRequest{ID: "bob", PublicKey: []byte("pk-2"), Helper: other}},
		{&ReEnrollRequest{ID: "alice", PublicKey: []byte("pk-1"), Helper: helper}, &ReEnrollRequest{ID: "bob", PublicKey: []byte("pk-2"), Helper: other}},
	} {
		first, err := Marshal(c.first)
		if err != nil {
			t.Fatal(err)
		}
		second, err := Marshal(c.second)
		if err != nil {
			t.Fatal(err)
		}
		var o Opener
		msg, err := ReceiveOpener(bytes.NewReader(frame(first)), &o)
		if err != nil {
			t.Fatal(err)
		}
		var pk []byte
		var h any
		switch m := msg.(type) {
		case *EnrollRequest:
			if m != &o.enroll {
				t.Fatal("EnrollRequest is not the opener's own")
			}
			pk, h = m.PublicKey, m.Helper
		case *ReEnrollRequest:
			if m != &o.reEnroll {
				t.Fatal("ReEnrollRequest is not the opener's own")
			}
			pk, h = m.PublicKey, m.Helper
		}
		if h != &o.helper || &pk[0] != &o.pk[0] || &o.helper.Seed[0] != &o.seed[0] ||
			o.helper.Sketch != &o.robust || o.robust.Sketch != &o.sketch || &o.sketch.Movements[0] != &o.movements[0] {
			t.Fatalf("%T: decoded fields do not alias the opener", msg)
		}
		if got, _ := Marshal(msg); !bytes.Equal(got, first) {
			t.Fatalf("%T: the opener's message re-marshals differently", msg)
		}
		plain, err := Receive(bytes.NewReader(frame(first)))
		if err != nil {
			t.Fatal(err)
		}
		if raceEnabled {
			continue // sync.Pool drops puts under -race
		}
		next := frame(second)
		r := bytes.NewReader(nil)
		allocs := testing.AllocsPerRun(50, func() {
			r.Reset(next)
			if _, err := ReceiveOpener(r, &o); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Fatalf("%T: a warm opener allocates %v per decode, want the ID's 1", msg, allocs)
		}
		if got, _ := Marshal(plain); !bytes.Equal(got, first) {
			t.Fatalf("%T: a Receive'd message changed when an opener decoded another", plain)
		}
	}
}
