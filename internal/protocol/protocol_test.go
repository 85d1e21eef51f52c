package protocol

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sigscheme"
	"fuzzyid/internal/store"
	"fuzzyid/internal/wire"
)

// env bundles the full protocol environment for tests.
type env struct {
	fe      *core.FuzzyExtractor
	src     *biometric.Source
	tenants *store.Registry
	server  *Server
	device  *Device
}

// memTenants builds a registry of journal-less in-memory tenants.
func memTenants(t testing.TB, line *numberline.Line) *store.Registry {
	t.Helper()
	reg, err := store.NewTenantRegistry(func(name string) (*store.Journaled, func() error, error) {
		return store.NewJournaledTenant(store.NewScan(line), nil, nil, name), nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func newEnv(t testing.TB, dim int, seed int64) *env {
	t.Helper()
	fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: dim})
	if err != nil {
		t.Fatal(err)
	}
	src, err := biometric.NewSource(fe.Line(), biometric.Paper(dim), seed)
	if err != nil {
		t.Fatal(err)
	}
	scheme := sigscheme.Default()
	tenants := memTenants(t, fe.Line())
	return &env{
		fe:      fe,
		src:     src,
		tenants: tenants,
		server:  NewServer(fe, scheme, tenants),
		device:  NewDevice(fe, scheme),
	}
}

// session runs one protocol session: the server end in a goroutine, the
// device logic in fn. It returns fn's error; server-side errors fail the
// test unless the device also errored (protocol-violation cases assert
// separately).
func (e *env) session(t *testing.T, fn func(rw io.ReadWriter) error) error {
	t.Helper()
	devEnd, srvEnd := net.Pipe()
	defer devEnd.Close()
	srvDone := make(chan error, 1)
	go func() {
		defer srvEnd.Close()
		srvDone <- e.server.HandleSession(srvEnd)
	}()
	devErr := fn(devEnd)
	devEnd.Close()
	select {
	case srvErr := <-srvDone:
		if srvErr != nil && devErr == nil {
			t.Fatalf("server session error: %v", srvErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server session did not complete")
	}
	return devErr
}

func (e *env) enroll(t *testing.T, u *biometric.User) {
	t.Helper()
	if err := e.session(t, func(rw io.ReadWriter) error {
		return e.device.Enroll(rw, u.ID, u.Template)
	}); err != nil {
		t.Fatalf("enroll %s: %v", u.ID, err)
	}
}

func TestEnrollAndVerify(t *testing.T) {
	e := newEnv(t, 64, 101)
	u := e.src.NewUser("alice")
	e.enroll(t, u)
	if e.tenants.Default().Len() != 1 {
		t.Fatalf("store len = %d", e.tenants.Default().Len())
	}
	// Genuine verification with a noisy reading.
	reading, err := e.src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.session(t, func(rw io.ReadWriter) error {
		return e.device.Verify(rw, u.ID, reading)
	}); err != nil {
		t.Fatalf("genuine verify: %v", err)
	}
}

func TestVerifyUnknownIdentity(t *testing.T) {
	e := newEnv(t, 64, 102)
	u := e.src.NewUser("alice")
	e.enroll(t, u)
	err := e.session(t, func(rw io.ReadWriter) error {
		return e.device.Verify(rw, "mallory", u.Template)
	})
	if !IsRejected(err) {
		t.Fatalf("unknown identity err = %v, want rejection", err)
	}
}

func TestVerifyWrongBiometric(t *testing.T) {
	e := newEnv(t, 64, 103)
	u := e.src.NewUser("alice")
	e.enroll(t, u)
	imp := e.src.ImpostorReading()
	err := e.session(t, func(rw io.ReadWriter) error {
		return e.device.Verify(rw, u.ID, imp)
	})
	if err == nil {
		t.Fatal("impostor biometric verified")
	}
}

func TestEnrollDuplicate(t *testing.T) {
	e := newEnv(t, 64, 104)
	u := e.src.NewUser("alice")
	e.enroll(t, u)
	err := e.session(t, func(rw io.ReadWriter) error {
		return e.device.Enroll(rw, u.ID, u.Template)
	})
	if !IsRejected(err) {
		t.Fatalf("duplicate enroll err = %v, want rejection", err)
	}
}

func TestIdentifyProposed(t *testing.T) {
	e := newEnv(t, 64, 105)
	users := e.src.Population(25)
	for _, u := range users {
		e.enroll(t, u)
	}
	for _, u := range []*biometric.User{users[0], users[12], users[24]} {
		reading, err := e.src.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		var gotID string
		if err := e.session(t, func(rw io.ReadWriter) error {
			id, err := e.device.Identify(rw, reading)
			gotID = id
			return err
		}); err != nil {
			t.Fatalf("identify %s: %v", u.ID, err)
		}
		if gotID != u.ID {
			t.Fatalf("identified as %q, want %q", gotID, u.ID)
		}
	}
}

func TestIdentifyImpostorRejected(t *testing.T) {
	e := newEnv(t, 64, 106)
	for _, u := range e.src.Population(10) {
		e.enroll(t, u)
	}
	err := e.session(t, func(rw io.ReadWriter) error {
		_, err := e.device.Identify(rw, e.src.ImpostorReading())
		return err
	})
	if !IsRejected(err) {
		t.Fatalf("impostor identify err = %v, want rejection", err)
	}
}

func TestIdentifyNormalApproach(t *testing.T) {
	e := newEnv(t, 64, 107)
	users := e.src.Population(15)
	for _, u := range users {
		e.enroll(t, u)
	}
	u := users[9]
	reading, err := e.src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	var gotID string
	if err := e.session(t, func(rw io.ReadWriter) error {
		id, err := e.device.IdentifyNormal(rw, reading)
		gotID = id
		return err
	}); err != nil {
		t.Fatalf("identify normal: %v", err)
	}
	if gotID != u.ID {
		t.Fatalf("identified as %q, want %q", gotID, u.ID)
	}
}

func TestIdentifyNormalImpostor(t *testing.T) {
	e := newEnv(t, 64, 108)
	for _, u := range e.src.Population(8) {
		e.enroll(t, u)
	}
	err := e.session(t, func(rw io.ReadWriter) error {
		_, err := e.device.IdentifyNormal(rw, e.src.ImpostorReading())
		return err
	})
	if err == nil {
		t.Fatal("impostor passed normal identification")
	}
	if !errors.Is(err, ErrNoMatch) && !IsRejected(err) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestIdentifyEmptyDatabase(t *testing.T) {
	e := newEnv(t, 64, 109)
	u := e.src.NewUser("ghost")
	err := e.session(t, func(rw io.ReadWriter) error {
		_, err := e.device.Identify(rw, u.Template)
		return err
	})
	if !IsRejected(err) {
		t.Fatalf("empty DB identify err = %v, want rejection", err)
	}
}

func TestTamperedHelperDataDetected(t *testing.T) {
	// An insider flips a bit of the stored helper data. The device's robust
	// Rep must detect it and the session must end in rejection, never in a
	// wrong acceptance (the Boyen et al. active-adversary property).
	e := newEnv(t, 64, 110)
	u := e.src.NewUser("alice")
	e.enroll(t, u)
	rec, ok := e.tenants.Default().Get(u.ID)
	if !ok {
		t.Fatal("record missing")
	}
	rec.Helper.Sketch.Digest[3] ^= 0x40
	if err := e.tenants.Default().Replace(rec); err != nil { // the store hands out copies
		t.Fatal(err)
	}
	reading, err := e.src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	err = e.session(t, func(rw io.ReadWriter) error {
		return e.device.Verify(rw, u.ID, reading)
	})
	if err == nil {
		t.Fatal("verification succeeded with tampered helper data")
	}
}

func TestServerRejectsBadOpener(t *testing.T) {
	e := newEnv(t, 64, 111)
	devEnd, srvEnd := net.Pipe()
	defer devEnd.Close()
	srvDone := make(chan error, 1)
	go func() {
		defer srvEnd.Close()
		srvDone <- e.server.HandleSession(srvEnd)
	}()
	// A Signature message cannot open a session.
	if err := wire.Send(devEnd, &wire.Signature{Signature: []byte("x"), Nonce: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Receive(devEnd)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*wire.Reject); !ok {
		t.Fatalf("got %T, want Reject", msg)
	}
	if srvErr := <-srvDone; !errors.Is(srvErr, ErrProtocol) {
		t.Fatalf("server err = %v, want ErrProtocol", srvErr)
	}
}

// TestSessionRejectsRetiredTags sends whole frames whose tags name no
// message — the retired batched-identify tags 12–15, the retired stats
// tags 16–17 and an unassigned 255 — and expects each answered with
// Reject, like any opener that cannot open a session, rather than a
// silently dropped connection.
func TestSessionRejectsRetiredTags(t *testing.T) {
	e := newEnv(t, 64, 118)
	for _, tag := range []byte{12, 13, 14, 15, 16, 17, 255} {
		devEnd, srvEnd := net.Pipe()
		srvDone := make(chan error, 1)
		go func() {
			defer srvEnd.Close()
			srvDone <- e.server.HandleSession(srvEnd)
		}()
		if _, err := devEnd.Write([]byte{0, 0, 0, 5, tag, 0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		msg, err := wire.Receive(devEnd)
		if err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
		if _, ok := msg.(*wire.Reject); !ok {
			t.Fatalf("tag %d: got %T, want Reject", tag, msg)
		}
		if srvErr := <-srvDone; !errors.Is(srvErr, ErrProtocol) && !errors.Is(srvErr, wire.ErrBadFrame) {
			t.Fatalf("tag %d: server err = %v, want ErrProtocol or ErrBadFrame", tag, srvErr)
		}
		devEnd.Close()
	}
}

// TestSessionRejectsMalformedBodies sends whole frames under known tags
// whose bodies do not decode, and expects each answered with Reject: the
// frame was read whole, so the stream is in sync. A frame that could not be
// read whole — cut short by EOF, or declared over wire.MaxFrameLen — still
// closes with no reply, because the stream is not.
func TestSessionRejectsMalformedBodies(t *testing.T) {
	e := newEnv(t, 64, 119)
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"empty frame", nil},
		{"enroll with a truncated ID", []byte{byte(wire.TypeEnrollRequest), 0, 0, 0, 9, 'a'}},
		{"identify with bool byte 7", []byte{byte(wire.TypeIdentifyRequest), 7, 0, 0, 0, 0}},
		{"cluster map request with a trailing byte", []byte{byte(wire.TypeClusterMapRequest), 0}},
	} {
		devEnd, srvEnd := net.Pipe()
		srvDone := make(chan error, 1)
		go func() {
			defer srvEnd.Close()
			srvDone <- e.server.HandleSession(srvEnd)
		}()
		frame := append([]byte{0, 0, 0, byte(len(tc.body))}, tc.body...)
		if _, err := devEnd.Write(frame); err != nil {
			t.Fatal(err)
		}
		msg, err := wire.Receive(devEnd)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, ok := msg.(*wire.Reject); !ok {
			t.Fatalf("%s: got %T, want Reject", tc.name, msg)
		}
		if srvErr := <-srvDone; !errors.Is(srvErr, wire.ErrBadFrame) {
			t.Fatalf("%s: server err = %v, want ErrBadFrame", tc.name, srvErr)
		}
		devEnd.Close()
	}
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"body cut short", []byte{0, 0, 0, 9, byte(wire.TypeEnrollRequest), 0, 0}},
		{"header over MaxFrameLen", []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(wire.TypeEnrollRequest)}},
	} {
		var out bytes.Buffer
		err := e.server.HandleSession(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(tc.frame), &out})
		if err == nil || errors.Is(err, wire.ErrBadFrame) {
			t.Fatalf("%s: server err = %v, want a read error", tc.name, err)
		}
		if out.Len() != 0 {
			t.Fatalf("%s: server replied %d bytes to a frame it could not read whole", tc.name, out.Len())
		}
	}
}

func TestServerRejectsForgedSignature(t *testing.T) {
	// A man-in-the-middle replaces the signature with garbage.
	e := newEnv(t, 64, 112)
	u := e.src.NewUser("alice")
	e.enroll(t, u)
	devEnd, srvEnd := net.Pipe()
	defer devEnd.Close()
	srvDone := make(chan error, 1)
	go func() {
		defer srvEnd.Close()
		srvDone <- e.server.HandleSession(srvEnd)
	}()
	if err := wire.Send(devEnd, &wire.VerifyRequest{ID: u.ID}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Receive(devEnd); err != nil { // challenge
		t.Fatal(err)
	}
	forged := &wire.Signature{Signature: []byte("forged"), Nonce: []byte("a")}
	if err := wire.Send(devEnd, forged); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Receive(devEnd)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*wire.Reject); !ok {
		t.Fatalf("got %T, want Reject", msg)
	}
	if srvErr := <-srvDone; srvErr != nil {
		t.Fatalf("server err = %v (reject is a normal outcome)", srvErr)
	}
}

func TestReplayedSignatureRejected(t *testing.T) {
	// Capture a valid (sigma, a) from one session and replay it in a new
	// session: the fresh challenge makes it invalid.
	e := newEnv(t, 64, 113)
	u := e.src.NewUser("alice")
	e.enroll(t, u)
	reading, err := e.src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	// First session: device-side manual run capturing the signature.
	var captured *wire.Signature
	devEnd, srvEnd := net.Pipe()
	srvDone := make(chan error, 1)
	go func() {
		defer srvEnd.Close()
		srvDone <- e.server.HandleSession(srvEnd)
	}()
	if err := wire.Send(devEnd, &wire.VerifyRequest{ID: u.ID}); err != nil {
		t.Fatal(err)
	}
	chMsg, err := wire.Receive(devEnd)
	if err != nil {
		t.Fatal(err)
	}
	ch := chMsg.(*wire.Challenge)
	key, err := e.fe.Rep(reading, ch.Helper)
	if err != nil {
		t.Fatal(err)
	}
	priv, _, err := sigscheme.Default().DeriveKeyPair(key)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("nonce-nonce-nonce-nonce-nonce-32")
	sig, err := sigscheme.Default().Sign(priv, sigscheme.ChallengeMessage(ch.Challenge, nonce))
	if err != nil {
		t.Fatal(err)
	}
	captured = &wire.Signature{Signature: sig, Nonce: nonce}
	if err := wire.Send(devEnd, captured); err != nil {
		t.Fatal(err)
	}
	if msg, err := wire.Receive(devEnd); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(*wire.Accept); !ok {
		t.Fatalf("legitimate session got %T", msg)
	}
	devEnd.Close()
	if err := <-srvDone; err != nil {
		t.Fatal(err)
	}
	// Replay session: same signature, but the server draws a fresh c.
	devEnd2, srvEnd2 := net.Pipe()
	defer devEnd2.Close()
	srvDone2 := make(chan error, 1)
	go func() {
		defer srvEnd2.Close()
		srvDone2 <- e.server.HandleSession(srvEnd2)
	}()
	if err := wire.Send(devEnd2, &wire.VerifyRequest{ID: u.ID}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Receive(devEnd2); err != nil {
		t.Fatal(err)
	}
	if err := wire.Send(devEnd2, captured); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Receive(devEnd2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*wire.Reject); !ok {
		t.Fatalf("replayed signature got %T, want Reject", msg)
	}
	if err := <-srvDone2; err != nil {
		t.Fatal(err)
	}
}

func TestIdentifyMissingProbe(t *testing.T) {
	e := newEnv(t, 64, 114)
	devEnd, srvEnd := net.Pipe()
	defer devEnd.Close()
	srvDone := make(chan error, 1)
	go func() {
		defer srvEnd.Close()
		srvDone <- e.server.HandleSession(srvEnd)
	}()
	if err := wire.Send(devEnd, &wire.IdentifyRequest{}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Receive(devEnd)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*wire.Reject); !ok {
		t.Fatalf("got %T, want Reject", msg)
	}
	if err := <-srvDone; err != nil {
		t.Fatal(err)
	}
}

func TestHandleSessionEOF(t *testing.T) {
	e := newEnv(t, 64, 115)
	devEnd, srvEnd := net.Pipe()
	srvDone := make(chan error, 1)
	go func() {
		defer srvEnd.Close()
		srvDone <- e.server.HandleSession(srvEnd)
	}()
	devEnd.Close()
	if err := <-srvDone; !errors.Is(err, io.EOF) && err == nil {
		t.Fatalf("EOF session err = %v", err)
	}
}

func TestBothSignatureSchemes(t *testing.T) {
	for _, scheme := range sigscheme.All() {
		scheme := scheme
		t.Run(scheme.Name(), func(t *testing.T) {
			fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: 32})
			if err != nil {
				t.Fatal(err)
			}
			src, err := biometric.NewSource(fe.Line(), biometric.Paper(32), 116)
			if err != nil {
				t.Fatal(err)
			}
			tenants := memTenants(t, fe.Line())
			e := &env{
				fe:      fe,
				src:     src,
				tenants: tenants,
				server:  NewServer(fe, scheme, tenants),
				device:  NewDevice(fe, scheme),
			}
			u := src.NewUser("alice")
			e.enroll(t, u)
			reading, err := src.GenuineReading(u)
			if err != nil {
				t.Fatal(err)
			}
			var gotID string
			if err := e.session(t, func(rw io.ReadWriter) error {
				id, err := e.device.Identify(rw, reading)
				gotID = id
				return err
			}); err != nil {
				t.Fatalf("identify: %v", err)
			}
			if gotID != u.ID {
				t.Fatalf("identified as %q", gotID)
			}
		})
	}
}

func TestNormalApproachIndexConfusionAttack(t *testing.T) {
	// A malicious device enrolled as "mallory" answers the normal-approach
	// batch claiming victim's index, signing with its own key. The server
	// verifies against the record at the claimed index, so the signature
	// must not check out.
	e := newEnv(t, 64, 118)
	victim := e.src.NewUser("victim")
	mallory := e.src.NewUser("mallory")
	e.enroll(t, victim)
	e.enroll(t, mallory)

	devEnd, srvEnd := net.Pipe()
	defer devEnd.Close()
	srvDone := make(chan error, 1)
	go func() {
		defer srvEnd.Close()
		srvDone <- e.server.HandleSession(srvEnd)
	}()
	if err := wire.Send(devEnd, &wire.IdentifyRequest{Normal: true}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Receive(devEnd)
	if err != nil {
		t.Fatal(err)
	}
	batch := msg.(*wire.ChallengeBatch)
	// Find which entries belong to whom by attempting Rep with mallory's
	// biometric.
	victimIdx := -1
	var malloryKey []byte
	var victimChallenge []byte
	for i := range batch.Entries {
		if key, err := e.fe.Rep(mallory.Template, batch.Entries[i].Helper); err == nil {
			malloryKey = key
		} else {
			victimIdx = i
			victimChallenge = batch.Entries[i].Challenge
		}
	}
	if victimIdx < 0 || malloryKey == nil {
		t.Fatal("test setup failed to separate records")
	}
	priv, _, err := sigscheme.Default().DeriveKeyPair(malloryKey)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("nonce")
	sig, err := sigscheme.Default().Sign(priv, sigscheme.ChallengeMessage(victimChallenge, nonce))
	if err != nil {
		t.Fatal(err)
	}
	forged := &wire.BatchSignature{Index: uint32(victimIdx), Signature: sig, Nonce: nonce}
	if err := wire.Send(devEnd, forged); err != nil {
		t.Fatal(err)
	}
	verdict, err := wire.Receive(devEnd)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := verdict.(*wire.Reject); !ok {
		t.Fatalf("index-confusion attack got %T, want Reject", verdict)
	}
	if err := <-srvDone; err != nil {
		t.Fatal(err)
	}
}

func TestNormalApproachOutOfRangeIndex(t *testing.T) {
	e := newEnv(t, 64, 119)
	u := e.src.NewUser("alice")
	e.enroll(t, u)
	devEnd, srvEnd := net.Pipe()
	defer devEnd.Close()
	srvDone := make(chan error, 1)
	go func() {
		defer srvEnd.Close()
		srvDone <- e.server.HandleSession(srvEnd)
	}()
	if err := wire.Send(devEnd, &wire.IdentifyRequest{Normal: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Receive(devEnd); err != nil {
		t.Fatal(err)
	}
	if err := wire.Send(devEnd, &wire.BatchSignature{Index: 999, Signature: []byte("x"), Nonce: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	verdict, err := wire.Receive(devEnd)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := verdict.(*wire.Reject); !ok {
		t.Fatalf("out-of-range index got %T, want Reject", verdict)
	}
	if err := <-srvDone; err != nil {
		t.Fatal(err)
	}
}

func TestRevokeLifecycle(t *testing.T) {
	e := newEnv(t, 64, 117)
	u := e.src.NewUser("alice")
	e.enroll(t, u)
	reading, err := e.src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	// An impostor cannot revoke alice's enrollment.
	err = e.session(t, func(rw io.ReadWriter) error {
		return e.device.Revoke(rw, u.ID, e.src.ImpostorReading())
	})
	if err == nil {
		t.Fatal("impostor revoked an enrollment")
	}
	if e.tenants.Default().Len() != 1 {
		t.Fatal("record vanished after failed revocation")
	}
	// The genuine user can.
	if err := e.session(t, func(rw io.ReadWriter) error {
		return e.device.Revoke(rw, u.ID, reading)
	}); err != nil {
		t.Fatalf("genuine revoke: %v", err)
	}
	if e.tenants.Default().Len() != 0 {
		t.Fatal("record not deleted")
	}
	// Verification now fails: the credential is gone.
	err = e.session(t, func(rw io.ReadWriter) error {
		return e.device.Verify(rw, u.ID, reading)
	})
	if !IsRejected(err) {
		t.Fatalf("post-revoke verify err = %v", err)
	}
	// Revoking an unknown identity is rejected.
	err = e.session(t, func(rw io.ReadWriter) error {
		return e.device.Revoke(rw, "ghost", reading)
	})
	if !IsRejected(err) {
		t.Fatalf("unknown revoke err = %v", err)
	}
	// Re-enrollment with fresh helper data restores service (revocability,
	// §I motivation).
	e.enroll(t, u)
	if err := e.session(t, func(rw io.ReadWriter) error {
		return e.device.Verify(rw, u.ID, reading)
	}); err != nil {
		t.Fatalf("verify after re-enroll: %v", err)
	}
}

func TestRejectedErrorHelpers(t *testing.T) {
	err := error(&RejectedError{Reason: "nope"})
	if !IsRejected(err) {
		t.Error("IsRejected(RejectedError) = false")
	}
	if IsRejected(io.EOF) {
		t.Error("IsRejected(EOF) = true")
	}
	if err.Error() == "" {
		t.Error("empty error string")
	}
}

// TestIdentifyNormalNoMatchSentinel is the regression test for the no-match
// path of the normal approach: the server's terminal Reject that closes a
// fruitless run must surface as the documented ErrNoMatch sentinel, not as
// a RejectedError.
func TestIdentifyNormalNoMatchSentinel(t *testing.T) {
	e := newEnv(t, 64, 151)
	// Empty database: the challenge batch is empty, nothing can match.
	err := e.session(t, func(rw io.ReadWriter) error {
		_, err := e.device.IdentifyNormal(rw, e.src.NewUser("ghost").Template)
		return err
	})
	if !errors.Is(err, ErrNoMatch) {
		t.Fatalf("empty-db normal identify err = %v, want ErrNoMatch", err)
	}
	if IsRejected(err) {
		t.Fatalf("terminal reject leaked through as a rejection: %v", err)
	}
	// Non-empty database, impostor reading: Rep fails on every entry.
	for _, u := range e.src.Population(5) {
		e.enroll(t, u)
	}
	err = e.session(t, func(rw io.ReadWriter) error {
		_, err := e.device.IdentifyNormal(rw, e.src.ImpostorReading())
		return err
	})
	if !errors.Is(err, ErrNoMatch) {
		t.Fatalf("impostor normal identify err = %v, want ErrNoMatch", err)
	}
}
