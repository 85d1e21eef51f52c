package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sigscheme"
	"fuzzyid/internal/store"
	"fuzzyid/internal/telemetry"
	"fuzzyid/internal/wire"
)

// conn is one long-lived device connection: the server end runs
// HandleSession in a loop, as the transport does for a TCP connection.
type conn struct {
	rw   net.Conn
	done chan struct{}
}

func (e *env) dial() *conn {
	devEnd, srvEnd := net.Pipe()
	c := &conn{rw: devEnd, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		defer srvEnd.Close()
		for e.server.HandleSession(srvEnd) == nil {
		}
	}()
	return c
}

func (c *conn) close() {
	c.rw.Close()
	<-c.done
}

// readings draws count genuine readings for users, round robin.
func (e *env) readings(t *testing.T, users []*biometric.User, count int) []numberline.Vector {
	t.Helper()
	out := make([]numberline.Vector, count)
	for i := range out {
		r, err := e.src.GenuineReading(users[i%len(users)])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// warmup is how many runs bytesPerOp makes before it measures.
const warmup = 20

// bytesPerOp runs op warmup+n times, with i counting from 0, and returns
// the bytes allocated per measured run by every goroutine of the process,
// so a session's device and server ends are counted together.
func bytesPerOp(n int, op func(i int)) float64 {
	for i := 0; i < warmup; i++ {
		op(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warmup; i < warmup+n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestSessionAllocations gates what one steady-state session allocates on
// both ends together. At n = 5000 every per-coordinate vector of an
// identify (probe, send buffer, decoded challenge movements, recovered
// vector, extractor input) is 40 KB, so each one left unpooled breaks the
// identify gate on its own.
func TestSessionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	const sessions = 200
	gates := []struct {
		dim                  int
		identifyKB, enrollKB float64
	}{
		{dim: 5000, identifyKB: 8, enrollKB: 64},
		{dim: 64, identifyKB: 6},
	}
	for _, g := range gates {
		t.Run(fmt.Sprintf("n=%d", g.dim), func(t *testing.T) {
			e := newEnv(t, g.dim, 401)
			users := e.src.Population(8)
			for _, u := range users {
				e.enroll(t, u)
			}
			readings := e.readings(t, users, 4*len(users))
			c := e.dial()
			defer c.close()

			identify := bytesPerOp(sessions, func(i int) {
				id, err := e.device.Identify(c.rw, readings[i%len(readings)])
				if err != nil || id != users[i%len(users)].ID {
					t.Fatalf("identify %d: %q, %v", i, id, err)
				}
			}) / 1024
			t.Logf("identify: %.1f KB per session (gate %.0f KB)", identify, g.identifyKB)
			if identify > g.identifyKB {
				t.Errorf("identify allocates %.1f KB per session, gate %.0f KB", identify, g.identifyKB)
			}
			if g.enrollKB == 0 {
				return
			}
			fresh := e.src.Population(warmup + sessions)
			enroll := bytesPerOp(sessions, func(i int) {
				u := fresh[i]
				if err := e.device.Enroll(c.rw, "fresh-"+u.ID, u.Template); err != nil {
					t.Fatalf("enroll %d: %v", i, err)
				}
			}) / 1024
			t.Logf("enroll: %.1f KB per session (gate %.0f KB)", enroll, g.enrollKB)
			if enroll > g.enrollKB {
				t.Errorf("enroll allocates %.1f KB per session, gate %.0f KB", enroll, g.enrollKB)
			}

			_, helper, err := e.fe.Gen(users[0].Template)
			if err != nil {
				t.Fatal(err)
			}
			rep := bytesPerOp(sessions, func(i int) {
				if _, err := e.fe.Rep(readings[0], helper); err != nil {
					t.Fatal(err)
				}
			}) / 1024
			t.Logf("fe.Rep: %.1f KB per call (gate 4 KB)", rep)
			if rep > 4 {
				t.Errorf("fe.Rep allocates %.1f KB per call, gate 4 KB", rep)
			}
		})
	}
}

// TestSharedDeviceSessions drives one Device over several connections at
// once, as the facade shares one engine across its clients. Session
// scratch must be per call: a buffer held by the Device would be written
// by two sessions at once, which -race reports and which turns verdicts
// wrong.
func TestSharedDeviceSessions(t *testing.T) {
	const (
		conns    = 4
		perConn  = 200
		distinct = 16
	)
	e := newEnv(t, 512, 402)
	users := e.src.Population(distinct)
	for _, u := range users {
		e.enroll(t, u)
	}
	readings := e.readings(t, users, distinct)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for g := 0; g < conns; g++ {
		c := e.dial()
		defer c.close()
		wg.Add(1)
		go func(g int, rw io.ReadWriter) {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				k := (g*7 + i) % distinct
				id, err := e.device.Identify(rw, readings[k])
				if err != nil || id != users[k].ID {
					errs <- fmt.Errorf("conn %d session %d: identified %q (%v), want %q", g, i, id, err, users[k].ID)
					return
				}
			}
		}(g, c.rw)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEnrollSessionAllocatesLiveBytes gates the server's enroll path at
// dim 64, where a user's live bytes are a few hundred and every per-session
// allocation shows: serving enroll sessions allocates at most 1.3× the
// live heap they add. The sessions are pre-encoded frames fed to
// HandleSession, so the device's Gen, signing and encoding are not
// counted; what is counted is the server's decode, the store's growth and
// the reply. A decode that allocates its message, helper structs and byte
// strings per session, or a store whose row metadata regrows by copying,
// breaks the gate. The store has four shards, as in
// TestStoreGrowthAllocatesLiveBytes.
func TestEnrollSessionAllocatesLiveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	const dim, n, helpers = 64, 40000, 8
	e := newEnv(t, dim, 403)
	tenants, err := store.NewTenantRegistry(func(name string) (*store.Journaled, func() error, error) {
		return store.NewJournaledTenant(store.NewScanShards(e.fe.Line(), 4), nil, nil, name), nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e.fe, sigscheme.Default(), tenants)
	srv.Instrument(telemetry.NewRegistry())
	var frames []byte
	for i, u := range e.src.Population(helpers) {
		_, helper, err := e.fe.Gen(u.Template)
		if err != nil {
			t.Fatal(err)
		}
		pk := bytes.Repeat([]byte{byte(i + 1)}, 32)
		for j := i; j < warmup+n; j += helpers {
			body, err := wire.Marshal(&wire.EnrollRequest{ID: fmt.Sprintf("user-%06d", j), PublicKey: pk, Helper: helper})
			if err != nil {
				t.Fatal(err)
			}
			frames = binary.BigEndian.AppendUint32(frames, uint32(len(body)))
			frames = append(frames, body...)
		}
	}
	// The frames were laid out helper by helper; serve them as they lie.
	var rw io.ReadWriter = struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(frames), io.Discard}
	serve := func(sessions int) {
		for i := 0; i < sessions; i++ {
			if err := srv.HandleSession(rw); err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
		}
	}
	serve(warmup)
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	serve(n)
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	if got := tenants.Enrolled(); got != warmup+n {
		t.Fatalf("%d users enrolled, want %d", got, warmup+n)
	}
	allocated := float64(m1.TotalAlloc - m0.TotalAlloc)
	live := float64(m2.HeapAlloc) - float64(m0.HeapAlloc)
	t.Logf("%d enroll sessions at dim %d: %.0f B/session allocated, %.0f B/user live (%.2fx)", n, dim, allocated/n, live/n, allocated/live)
	if allocated > 1.3*live {
		t.Errorf("%d enroll sessions allocated %.0f B for %.0f B live (%.2fx), want <= 1.3x", n, allocated, live, allocated/live)
	}
	runtime.KeepAlive(frames)
}
