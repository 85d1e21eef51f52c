package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"fuzzyid/internal/core"
	"fuzzyid/internal/sketch"
	"fuzzyid/internal/store"
)

// FuzzUnmarshal feeds arbitrary bytes to the message decoder: it must never
// panic, and anything it accepts must re-encode to a decodable message of
// the same type (decode/encode/decode stability). Every accepted input is
// also decoded through ReceiveInto, into scratch of capacity scratchCap
// pre-filled with garbage, and through ReceiveOpener, into one opener every
// input reuses, and each must re-marshal to Unmarshal's bytes.
func FuzzUnmarshal(f *testing.F) {
	// Seed with every message type plus structural edge cases.
	seeds := []Message{
		&EnrollRequest{ID: "alice", PublicKey: []byte{1, 2, 3}},
		&EnrollOK{ID: "x"},
		&VerifyRequest{ID: "y"},
		&IdentifyRequest{Normal: true},
		&Challenge{Challenge: []byte("c")},
		&ChallengeBatch{},
		&Signature{Signature: []byte("s"), Nonce: []byte("n")},
		&BatchSignature{Index: 3},
		&Accept{ID: "z"},
		&Reject{Reason: "r"},
		&RevokeRequest{ID: "w"},
		&ReEnrollRequest{ID: "w", PublicKey: []byte{7}},
		&ReEnrollRequest{ID: "t", PublicKey: []byte{8}, Tenant: "acme"},
		&EnrollRequest{ID: "t", PublicKey: []byte{9}, Tenant: "acme"},
		&VerifyRequest{ID: "t", Tenant: "acme"},
		&TenantAdmin{Action: TenantActionCreate, Tenant: "acme"},
		&TenantAdmin{Action: TenantActionList},
		&TenantInfo{Tenants: []string{"default", "acme"}},
		&UnknownTenant{Tenant: "ghost"},
		&TenantAdmin{Action: TenantActionSetLimits, Tenant: "acme",
			Limits: &LimitsSpec{RateMilli: 1000, Burst: 5, MaxConcurrent: 4, Weight: 2}},
		&TenantAdmin{Action: TenantActionGetLimits, Tenant: "acme"},
		&TenantLimits{Tenant: "acme", Spec: LimitsSpec{Weight: 1}},
		&Overloaded{RetryAfterMS: 50, Reason: "scan"},
		&IdentifyRequest{Probe: fuzzHelper().Sketch.Sketch, Tenant: "acme"},
		&Challenge{Helper: fuzzHelper(), Challenge: []byte("c")},
		&EnrollRequest{ID: "h", PublicKey: []byte{1}, Helper: fuzzHelper()},
	}
	for i, m := range seeds {
		buf, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf, uint16(i%5))
	}
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(3))
	// Retired tags, bare and with a one-probe body shaped like the
	// batched identify request tag 12 once carried.
	for tag := MsgType(12); tag <= 17; tag++ {
		e := NewEncoder(32)
		e.Byte(byte(tag))
		e.Uint32(1)
		e.Int64Slice([]int64{1})
		e.String("")
		f.Add([]byte{byte(tag)}, uint16(0))
		f.Add(e.Bytes(), uint16(1))
	}
	var open Opener
	f.Fuzz(func(t *testing.T, data []byte, scratchCap uint16) {
		msg, err := Unmarshal(data)
		if len(data) > 0 && retiredTag(MsgType(data[0])) && err == nil {
			t.Fatalf("retired tag %d decoded into %T", data[0], msg)
		}
		if err != nil {
			// Rejection is fine; panics are not. A whole buffer that does
			// not decode is always ErrBadFrame, which is what lets a server
			// answer it and keep the stream.
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("Unmarshal error %v is not ErrBadFrame", err)
			}
			return
		}
		re, err := Marshal(msg)
		if err != nil {
			t.Fatalf("accepted message failed to re-marshal: %v", err)
		}
		again, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-marshaled message failed to decode: %v", err)
		}
		if again.Type() != msg.Type() {
			t.Fatalf("type changed across round trip: %d -> %d", msg.Type(), again.Type())
		}

		scratch := make([]int64, scratchCap%512)
		for i := range scratch {
			scratch[i] = -0x5A5A5A5A5A5A5A5A ^ int64(i)
		}
		into, err := ReceiveInto(bytes.NewReader(frame(data)), &scratch)
		if err != nil {
			t.Fatalf("ReceiveInto rejected what Unmarshal accepted: %v", err)
		}
		viaScratch, err := Marshal(into)
		if err != nil {
			t.Fatalf("ReceiveInto's message failed to re-marshal: %v", err)
		}
		if !bytes.Equal(viaScratch, re) {
			t.Fatalf("ReceiveInto decoded differently from Unmarshal:\n%x\n%x", viaScratch, re)
		}
		opened, err := ReceiveOpener(bytes.NewReader(frame(data)), &open)
		if err != nil {
			t.Fatalf("ReceiveOpener rejected what Unmarshal accepted: %v", err)
		}
		if viaOpener, err := Marshal(opened); err != nil || !bytes.Equal(viaOpener, re) {
			t.Fatalf("ReceiveOpener decoded differently from Unmarshal (%v):\n%x\n%x", err, viaOpener, re)
		}
	})
}

// retiredTag reports the tags of withdrawn messages (12–15, a batched
// identify; 16–17, a stats session): they stay reserved, and no decoder
// may accept them.
func retiredTag(t MsgType) bool { return t >= 12 && t <= 17 }

// fuzzHelper builds a small valid helper datum for codec seeds.
func fuzzHelper() *core.HelperData {
	return &core.HelperData{
		Sketch: &sketch.RobustSketch{
			Sketch: &sketch.Sketch{Movements: []int64{7, -3, 12}},
			Digest: [32]byte{4},
		},
		Seed: []byte("seed"),
	}
}

// FuzzDecodeRecord feeds arbitrary bytes to the store-record codec shared
// by the WAL, snapshots and the replication stream: it must never panic,
// reject trailing garbage, and anything accepted must re-encode to the
// identical bytes (canonical round trip).
func FuzzDecodeRecord(f *testing.F) {
	e := NewEncoder(256)
	EncodeRecord(e, &store.Record{ID: "alice", PublicKey: []byte{1, 2}, Helper: fuzzHelper()})
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{RecordVersion})
	f.Add([]byte{0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		rec, err := DecodeRecord(d)
		if err != nil || d.Done() != nil {
			return // rejection is fine; panics are not
		}
		re := NewEncoder(len(data))
		EncodeRecord(re, rec)
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("record round trip not canonical: %x -> %x", data, re.Bytes())
		}
	})
}

// FuzzDecodeMutation feeds arbitrary bytes to the tenant-extended mutation
// codec — the payload format of the WAL and the replication stream. An
// accepted mutation must round-trip to the identical bytes, so the legacy
// (untenanted) and tenant-qualified encodings stay canonical and corrupt
// frames are rejected rather than reinterpreted.
func FuzzDecodeMutation(f *testing.F) {
	seed := func(m store.Mutation) {
		e := NewEncoder(256)
		if err := EncodeMutation(e, m); err != nil {
			f.Fatal(err)
		}
		f.Add(e.Bytes())
	}
	rec := &store.Record{ID: "bob", PublicKey: []byte{3}, Helper: fuzzHelper()}
	seed(store.InsertMutation(rec)) // legacy tag 1
	seed(store.DeleteMutation("bob"))
	tenantIns := store.InsertMutation(rec)
	tenantIns.Tenant = "acme"
	seed(tenantIns) // tenant-qualified tag 3
	tenantDel := store.DeleteMutation("bob")
	tenantDel.Tenant = "acme"
	seed(tenantDel)
	seed(store.Mutation{Op: store.OpTenantCreate, Tenant: "acme"})
	seed(store.Mutation{Op: store.OpTenantDrop, Tenant: "acme"})
	seed(store.ReplaceMutation(rec)) // tag 7, "" = default tenant
	tenantRepl := store.ReplaceMutation(rec)
	tenantRepl.Tenant = "acme"
	seed(tenantRepl)
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 0}) // tenant tag with empty tenant: must reject
	f.Add([]byte{99, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		m, err := DecodeMutation(d)
		if err != nil || d.Done() != nil {
			return
		}
		re := NewEncoder(len(data))
		if err := EncodeMutation(re, m); err != nil {
			t.Fatalf("accepted mutation failed to re-encode: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("mutation round trip not canonical: %x -> %x", data, re.Bytes())
		}
	})
}

// frame prefixes payload with its big-endian length, the framing Send
// writes.
func frame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// FuzzReadFrame feeds arbitrary streams to the frame reader.
func FuzzReadFrame(f *testing.F) {
	f.Add(frame([]byte("payload")))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// An accepted frame must re-serialise to a readable frame.
		back, err := ReadFrame(bytes.NewReader(frame(payload)))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatal("payload changed across round trip")
		}
	})
}
