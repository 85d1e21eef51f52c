package protocol

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/numberline"
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
