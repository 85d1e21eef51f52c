package protocol

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sigscheme"
	"fuzzyid/internal/sketch"
	"fuzzyid/internal/store"
	"fuzzyid/internal/wire"
)

// env bundles the full protocol environment for tests.
type env struct {
	fe     *core.FuzzyExtractor
	src    *biometric.Source
	server *Server
	device *Device
}

func newEnv(t *testing.T, dim int, seed int64) *env {
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
	return &env{
		fe:     fe,
		src:    src,
		server: NewServer(fe, scheme, store.NewScan(fe.Line())),
		device: NewDevice(fe, scheme),
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
	if e.server.Store().Len() != 1 {
		t.Fatalf("store len = %d", e.server.Store().Len())
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

func TestIdentifyBatchProtocol(t *testing.T) {
	e := newEnv(t, 64, 115)
	users := e.src.Population(25)
	for _, u := range users {
		e.enroll(t, u)
	}
	// A mixed batch: genuine readings interleaved with impostors.
	bios := make([]numberline.Vector, 0, 5)
	want := make([]string, 0, 5)
	for _, u := range []*biometric.User{users[3], users[17]} {
		reading, err := e.src.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		bios = append(bios, reading)
		want = append(want, u.ID)
		bios = append(bios, e.src.ImpostorReading())
		want = append(want, "")
	}
	reading, err := e.src.GenuineReading(users[24])
	if err != nil {
		t.Fatal(err)
	}
	bios = append(bios, reading)
	want = append(want, users[24].ID)
	var got []string
	if err := e.session(t, func(rw io.ReadWriter) error {
		ids, err := e.device.IdentifyBatch(rw, bios)
		got = ids
		return err
	}); err != nil {
		t.Fatalf("identify batch: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d verdicts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("verdict %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestIdentifyBatchEmptyRejected(t *testing.T) {
	e := newEnv(t, 64, 116)
	for _, u := range e.src.Population(3) {
		e.enroll(t, u)
	}
	err := e.session(t, func(rw io.ReadWriter) error {
		_, err := e.device.IdentifyBatch(rw, nil)
		return err
	})
	if !IsRejected(err) {
		t.Fatalf("empty batch err = %v, want rejection", err)
	}
}

func TestIdentifyBatchForgedResponseIgnored(t *testing.T) {
	// A device answering with out-of-range probe indices or bad signatures
	// must not be accepted for them.
	e := newEnv(t, 64, 117)
	users := e.src.Population(5)
	for _, u := range users {
		e.enroll(t, u)
	}
	reading, err := e.src.GenuineReading(users[0])
	if err != nil {
		t.Fatal(err)
	}
	probe, err := e.fe.SketchOnly(reading)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.session(t, func(rw io.ReadWriter) error {
		if err := wire.Send(rw, &wire.IdentifyBatchRequest{Probes: []*sketch.Sketch{probe}}); err != nil {
			return err
		}
		msg, err := wire.Receive(rw)
		if err != nil {
			return err
		}
		ch, ok := msg.(*wire.IdentifyBatchChallenge)
		if !ok {
			t.Fatalf("expected batch challenge, got %T", msg)
		}
		if len(ch.Entries) != 1 {
			t.Fatalf("%d challenge entries, want 1", len(ch.Entries))
		}
		forged := &wire.IdentifyBatchSignature{Entries: []wire.IndexedSignature{
			{Probe: 99, Signature: []byte("sig"), Nonce: []byte("n")},    // out of range
			{Probe: 0, Signature: []byte("garbage"), Nonce: []byte("n")}, // bad signature
		}}
		if err := wire.Send(rw, forged); err != nil {
			return err
		}
		msg, err = wire.Receive(rw)
		if err != nil {
			return err
		}
		res, ok := msg.(*wire.IdentifyBatchResult)
		if !ok {
			t.Fatalf("expected batch result, got %T", msg)
		}
		if len(res.IDs) != 1 || res.IDs[0] != "" {
			t.Fatalf("forged response accepted: %v", res.IDs)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
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
	rec, ok := e.server.Store().Get(u.ID)
	if !ok {
		t.Fatal("record missing")
	}
	rec.Helper.Sketch.Digest[3] ^= 0x40
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
			e := &env{
				fe:     fe,
				src:    src,
				server: NewServer(fe, scheme, store.NewScan(fe.Line())),
				device: NewDevice(fe, scheme),
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
	if e.server.Store().Len() != 1 {
		t.Fatal("record vanished after failed revocation")
	}
	// The genuine user can.
	if err := e.session(t, func(rw io.ReadWriter) error {
		return e.device.Revoke(rw, u.ID, reading)
	}); err != nil {
		t.Fatalf("genuine revoke: %v", err)
	}
	if e.server.Store().Len() != 0 {
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
