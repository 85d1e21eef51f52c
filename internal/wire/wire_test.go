package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sketch"
)

func sampleHelper(t *testing.T) *core.HelperData {
	t.Helper()
	fe, err := core.New(core.Params{Line: numberline.PaperParams()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	x := make(numberline.Vector, 32)
	for i := range x {
		x[i] = fe.Line().Normalize(rng.Int63n(fe.Line().RingSize()) - fe.Line().RingSize()/2)
	}
	_, helper, err := fe.Gen(x)
	if err != nil {
		t.Fatal(err)
	}
	return helper
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal(%T): %v", m, err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal(%T): %v", m, err)
	}
	return got
}

func TestMessageRoundTrips(t *testing.T) {
	helper := sampleHelper(t)
	probe := &sketch.Sketch{Movements: []int64{-200, 0, 137, 200}}
	msgs := []Message{
		&EnrollRequest{ID: "alice", PublicKey: []byte{1, 2, 3}, Helper: helper},
		&EnrollOK{ID: "alice"},
		&VerifyRequest{ID: "bob"},
		&IdentifyRequest{Probe: probe},
		&IdentifyRequest{Normal: true},
		&Challenge{Helper: helper, Challenge: []byte("challenge-123")},
		&ChallengeBatch{Entries: []ChallengeEntry{
			{Helper: helper, Challenge: []byte("c0")},
			{Helper: helper, Challenge: []byte("c1")},
		}},
		&Signature{Signature: []byte("sig"), Nonce: []byte("nonce")},
		&BatchSignature{Index: 7, Signature: []byte("sig"), Nonce: []byte("a")},
		&Accept{ID: "alice"},
		&Reject{Reason: "no matching record"},
		&RevokeRequest{ID: "alice"},
		&TenantAdmin{Action: TenantActionCreate, Tenant: "acme"},
		&TenantAdmin{Action: TenantActionSetLimits, Tenant: "acme",
			Limits: &LimitsSpec{RateMilli: 1500, Burst: 10, MaxConcurrent: 8, Weight: 3}},
		&TenantAdmin{Action: TenantActionGetLimits, Tenant: "acme"},
		&TenantLimits{Tenant: "acme",
			Spec: LimitsSpec{RateMilli: 250, Weight: 1}, Overridden: true},
		&Overloaded{RetryAfterMS: 120, Reason: "rate"},
	}
	for _, m := range msgs {
		t.Run(reflect.TypeOf(m).Elem().Name(), func(t *testing.T) {
			got := roundTrip(t, m)
			if !reflect.DeepEqual(m, got) {
				t.Errorf("round trip mismatch:\n give %#v\n got  %#v", m, got)
			}
		})
	}
}

func TestHelperRoundTripPreservesRecovery(t *testing.T) {
	// The decoded helper must still work for Rep — digest, movements and
	// seed must survive byte-for-byte.
	fe, err := core.New(core.Params{Line: numberline.PaperParams()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	x := make(numberline.Vector, 32)
	for i := range x {
		x[i] = fe.Line().Normalize(rng.Int63n(fe.Line().RingSize()) - fe.Line().RingSize()/2)
	}
	key, helper, err := fe.Gen(x)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, &Challenge{Helper: helper, Challenge: []byte("c")})
	decoded, ok := got.(*Challenge)
	if !ok {
		t.Fatalf("wrong type %T", got)
	}
	key2, err := fe.Rep(x, decoded.Helper)
	if err != nil {
		t.Fatalf("Rep with decoded helper: %v", err)
	}
	if !bytes.Equal(key, key2) {
		t.Fatal("decoded helper produced a different key")
	}
}

func TestNilHelperRoundTrip(t *testing.T) {
	got := roundTrip(t, &Challenge{Helper: nil, Challenge: []byte("c")})
	if got.(*Challenge).Helper != nil {
		t.Error("nil helper did not survive round trip")
	}
}

func TestUnmarshalRejectsUnknownType(t *testing.T) {
	if _, err := Unmarshal([]byte{0xEE}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("unknown tag err = %v", err)
	}
	if _, err := Unmarshal(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty buffer err = %v", err)
	}
}

func TestUnmarshalRejectsTrailingGarbage(t *testing.T) {
	buf, err := Marshal(&Accept{ID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, 0xAA)
	if _, err := Unmarshal(buf); !errors.Is(err, ErrBadFrame) {
		t.Errorf("trailing bytes err = %v", err)
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	helper := sampleHelper(t)
	buf, err := Marshal(&EnrollRequest{ID: "alice", PublicKey: []byte("pk"), Helper: helper})
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly, never panic.
	for cut := 0; cut < len(buf); cut++ {
		if _, err := Unmarshal(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecoderLimits(t *testing.T) {
	// A length prefix beyond the cap must be rejected before allocation.
	e := NewEncoder(16)
	e.Uint32(MaxBytesLen + 1)
	d := NewDecoder(e.Bytes())
	if _, err := d.VarBytes(MaxBytesLen); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized VarBytes err = %v", err)
	}
	e2 := NewEncoder(16)
	e2.Uint32(MaxVectorLen + 1)
	d2 := NewDecoder(e2.Bytes())
	if _, err := d2.Int64Slice(MaxVectorLen); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized Int64Slice err = %v", err)
	}
	// Claimed length larger than remaining bytes.
	e3 := NewEncoder(16)
	e3.Uint32(8)
	e3.Byte(1)
	d3 := NewDecoder(e3.Bytes())
	if _, err := d3.VarBytes(MaxBytesLen); !errors.Is(err, ErrTruncated) {
		t.Errorf("short VarBytes err = %v", err)
	}
}

// TestDecoderStringAllocatesOnce pins String's cost: a non-empty string is
// read straight from the buffer into one allocation, and an empty one
// costs none.
func TestDecoderStringAllocatesOnce(t *testing.T) {
	e := NewEncoder(64)
	e.String("user-000001")
	e.String("")
	buf := e.Bytes()
	allocs := testing.AllocsPerRun(100, func() {
		d := Decoder{buf: buf}
		id, err := d.String(MaxBytesLen)
		if err != nil || id != "user-000001" {
			t.Fatalf("String = %q, %v", id, err)
		}
		if empty, err := d.String(MaxBytesLen); err != nil || empty != "" {
			t.Fatalf("String = %q, %v, want empty", empty, err)
		}
	})
	if allocs != 1 {
		t.Fatalf("decoding a non-empty and an empty string allocates %v, want 1", allocs)
	}
}

func TestDecoderBool(t *testing.T) {
	d := NewDecoder([]byte{2})
	if _, err := d.Bool(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bool byte 2 err = %v", err)
	}
}

func TestPrimitiveRoundTripQuick(t *testing.T) {
	f := func(u64 uint64, i64 int64, b bool, blob []byte, s string, ints []int64) bool {
		if len(blob) > MaxBytesLen || len(s) > MaxBytesLen || len(ints) > MaxVectorLen {
			return true
		}
		e := NewEncoder(64)
		e.Uint64(u64)
		e.Int64(i64)
		e.Bool(b)
		e.VarBytes(blob)
		e.String(s)
		e.Int64Slice(ints)
		d := NewDecoder(e.Bytes())
		gu, err := d.Uint64()
		if err != nil || gu != u64 {
			return false
		}
		gi, err := d.Int64()
		if err != nil || gi != i64 {
			return false
		}
		gb, err := d.Bool()
		if err != nil || gb != b {
			return false
		}
		gblob, err := d.VarBytes(MaxBytesLen)
		if err != nil || !bytes.Equal(gblob, blob) {
			return false
		}
		gs, err := d.String(MaxBytesLen)
		if err != nil || gs != s {
			return false
		}
		gints, err := d.Int64Slice(MaxVectorLen)
		if err != nil || len(gints) != len(ints) {
			return false
		}
		for i := range ints {
			if gints[i] != ints[i] {
				return false
			}
		}
		return d.Done() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("first"), {}, []byte("third message")}
	for _, p := range payloads {
		buf.Write(frame(p))
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame = %q, want %q", got, want)
		}
	}
	if _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("exhausted stream err = %v", err)
	}
}

func TestReadFrameRejectsOversizedHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized frame err = %v", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	whole := frame([]byte("hello"))
	short := whole[:len(whole)-2]
	if _, err := ReadFrame(bytes.NewReader(short)); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated body err = %v", err)
	}
}

func TestSendReceive(t *testing.T) {
	var buf bytes.Buffer
	want := &Accept{ID: "alice"}
	if err := Send(&buf, want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := Receive(&buf)
	if err != nil {
		t.Fatalf("Receive: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("Receive = %#v", got)
	}
}

func TestMarshalNil(t *testing.T) {
	if _, err := Marshal(nil); err == nil {
		t.Error("Marshal(nil) succeeded")
	}
}

func TestChallengeBatchLimit(t *testing.T) {
	e := NewEncoder(16)
	e.Byte(byte(TypeChallengeBatch))
	e.Uint32(MaxBatchLen + 1)
	if _, err := Unmarshal(e.Bytes()); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized batch err = %v", err)
	}
}
