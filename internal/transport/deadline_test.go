package transport

import (
	"bytes"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"fuzzyid/internal/telemetry"
	"fuzzyid/internal/wire"
)

// withBodyDeadline shortens the frame body deadline, so a test can watch it
// cut a connection in well under a second.
func withBodyDeadline(d time.Duration) ServerOption {
	return serverOptionFunc(func(s *Server) { s.bodyDeadline = d })
}

// TestFrameBodyDeadline drives one server connection through the body
// deadline's three cases: a body that arrives in two parts inside the
// deadline is served; idle time between frames, longer than the deadline,
// is not cut; and a body trickled at 1 B/s is cut once the deadline has
// passed (by at most one watchdog tick, a quarter of it) and counted
// under transport.conns.body_cut.
func TestFrameBodyDeadline(t *testing.T) {
	const body = 400 * time.Millisecond
	w := newWorld(t, 64, 211)
	reg := telemetry.NewRegistry()
	srv, err := Listen("127.0.0.1:0", w.proto, WithTelemetry(reg), withBodyDeadline(body))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cut := reg.Counter("transport.conns.body_cut")

	u := w.src.NewUser("split")
	_, helper, err := w.fe.Gen(u.Template)
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := wire.Send(&frame, &wire.EnrollRequest{ID: u.ID, PublicKey: []byte("pk"), Helper: helper}); err != nil {
		t.Fatal(err)
	}
	enroll := frame.Bytes()

	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply := func(step string) wire.Message {
		t.Helper()
		if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		m, err := wire.Receive(c)
		if err != nil {
			t.Fatalf("%s: no reply: %v", step, err)
		}
		return m
	}
	// A body split across two writes, the second body/4 after the first.
	if _, err := c.Write(enroll[:10]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(body / 4)
	if _, err := c.Write(enroll[10:]); err != nil {
		t.Fatal(err)
	}
	if m, ok := reply("split body").(*wire.EnrollOK); !ok {
		t.Fatalf("split body: reply %T, want *wire.EnrollOK", m)
	}
	// Idle past the deadline between frames, then a whole frame.
	time.Sleep(body + body/2)
	if err := wire.Send(c, &wire.VerifyRequest{ID: "nobody"}); err != nil {
		t.Fatal(err)
	}
	if m, ok := reply("after idle").(*wire.Reject); !ok {
		t.Fatalf("after idle: reply %T, want *wire.Reject", m)
	}
	if got := cut.Load(); got != 0 {
		t.Fatalf("%d connections cut before the trickle, want 0", got)
	}
	// A header, then the body at 1 B/s.
	if _, err := c.Write(enroll[:4]); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	sent := 0
	for {
		if _, err := c.Write(enroll[4+sent : 5+sent]); err != nil {
			break // the server closed the connection
		}
		sent++
		if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatal("the server answered a frame whose body never arrived")
		} else if !errors.Is(err, os.ErrDeadlineExceeded) {
			break // the server closed the connection
		}
		if sent > 5 {
			t.Fatalf("a body trickled at 1 B/s was not cut in %v (%d B sent)", time.Since(start), sent)
		}
	}
	t.Logf("trickled body cut after %v, %d body bytes", time.Since(start).Round(time.Millisecond), sent)
	if got := cut.Load(); got != 1 {
		t.Fatalf("transport.conns.body_cut = %d, want 1", got)
	}
}
