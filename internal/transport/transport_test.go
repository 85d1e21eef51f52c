package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/protocol"
	"fuzzyid/internal/qos"
	"fuzzyid/internal/sigscheme"
	"fuzzyid/internal/store"
)

type world struct {
	fe     *core.FuzzyExtractor
	src    *biometric.Source
	proto  *protocol.Server
	device *protocol.Device
}

func newWorld(t *testing.T, dim int, seed int64) *world {
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
	return &world{
		fe:     fe,
		src:    src,
		proto:  protocol.NewServer(fe, scheme, store.NewScan(fe.Line())),
		device: protocol.NewDevice(fe, scheme),
	}
}

func TestTCPEndToEnd(t *testing.T) {
	w := newWorld(t, 64, 201)
	srv, err := Listen("127.0.0.1:0", w.proto, WithIdleTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := Dial(srv.Addr().String(), w.device, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	users := w.src.Population(10)
	for _, u := range users {
		if err := client.Enroll(u.ID, u.Template); err != nil {
			t.Fatalf("enroll %s: %v", u.ID, err)
		}
	}
	// Verification.
	reading, err := w.src.GenuineReading(users[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Verify(users[3].ID, reading); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Proposed identification.
	reading, err = w.src.GenuineReading(users[7])
	if err != nil {
		t.Fatal(err)
	}
	id, err := client.Identify(reading)
	if err != nil {
		t.Fatalf("identify: %v", err)
	}
	if id != users[7].ID {
		t.Fatalf("identified %q, want %q", id, users[7].ID)
	}
	// Normal approach over the same connection.
	reading, err = w.src.GenuineReading(users[2])
	if err != nil {
		t.Fatal(err)
	}
	id, err = client.IdentifyNormal(reading)
	if err != nil {
		t.Fatalf("identify normal: %v", err)
	}
	if id != users[2].ID {
		t.Fatalf("normal identified %q, want %q", id, users[2].ID)
	}
	// Impostor rejection propagates as RejectedError.
	if _, err := client.Identify(w.src.ImpostorReading()); !protocol.IsRejected(err) {
		t.Fatalf("impostor err = %v, want rejection", err)
	}
}

func TestIdentifyBatchOverTCP(t *testing.T) {
	w := newWorld(t, 64, 206)
	srv, err := Listen("127.0.0.1:0", w.proto, WithIdleTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr().String(), w.device, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	users := w.src.Population(12)
	for _, u := range users {
		if err := client.Enroll(u.ID, u.Template); err != nil {
			t.Fatalf("enroll %s: %v", u.ID, err)
		}
	}
	readings := make([]numberline.Vector, 0, 4)
	want := make([]string, 0, 4)
	for _, i := range []int{2, 9} {
		r, err := w.src.GenuineReading(users[i])
		if err != nil {
			t.Fatal(err)
		}
		readings = append(readings, r)
		want = append(want, users[i].ID)
	}
	readings = append(readings, w.src.ImpostorReading())
	want = append(want, "")
	ids, err := client.IdentifyBatch(readings)
	if err != nil {
		t.Fatalf("identify batch: %v", err)
	}
	if len(ids) != len(want) {
		t.Fatalf("got %d ids, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("slot %d = %q, want %q", i, ids[i], want[i])
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	w := newWorld(t, 32, 202)
	srv, err := Listen("127.0.0.1:0", w.proto)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	users := w.src.Population(16)
	// Enroll everyone through one connection first.
	setup, err := Dial(srv.Addr().String(), w.device)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		if err := setup.Enroll(u.ID, u.Template); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()

	readings := make([]numberline.Vector, len(users))
	for i, u := range users {
		r, err := w.src.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		readings[i] = r
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(users))
	for i := range users {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr().String(), w.device, WithTimeout(10*time.Second))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			id, err := c.Identify(readings[i])
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			if id != users[i].ID {
				errs <- fmt.Errorf("client %d: identified %q", i, id)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	w := newWorld(t, 16, 203)
	srv, err := Listen("127.0.0.1:0", w.proto)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr().String(), w.device, WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close err = %v", err)
	}
	u := w.src.NewUser("late")
	if err := client.Enroll(u.ID, u.Template); err == nil {
		t.Error("enroll after server close succeeded")
	}
}

func TestClientClosedErrors(t *testing.T) {
	w := newWorld(t, 16, 204)
	srv, err := Listen("127.0.0.1:0", w.proto)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr().String(), w.device)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close err = %v", err)
	}
	u := w.src.NewUser("x")
	if err := client.Enroll(u.ID, u.Template); !errors.Is(err, ErrClosed) {
		t.Errorf("enroll on closed client err = %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	w := newWorld(t, 16, 205)
	if _, err := Dial("127.0.0.1:1", w.device, WithTimeout(time.Second)); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestLocalPair(t *testing.T) {
	w := newWorld(t, 64, 206)
	client, stop := LocalPair(w.proto, w.device)
	defer stop()

	users := w.src.Population(5)
	for _, u := range users {
		if err := client.Enroll(u.ID, u.Template); err != nil {
			t.Fatalf("enroll: %v", err)
		}
	}
	reading, err := w.src.GenuineReading(users[4])
	if err != nil {
		t.Fatal(err)
	}
	id, err := client.Identify(reading)
	if err != nil {
		t.Fatalf("identify: %v", err)
	}
	if id != users[4].ID {
		t.Fatalf("identified %q", id)
	}
	reading, err = w.src.GenuineReading(users[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Verify(users[0].ID, reading); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestLocalPairStopIsIdempotentSafe(t *testing.T) {
	w := newWorld(t, 16, 207)
	client, stop := LocalPair(w.proto, w.device)
	u := w.src.NewUser("u")
	if err := client.Enroll(u.ID, u.Template); err != nil {
		t.Fatal(err)
	}
	stop()
	if err := client.Enroll("again", u.Template); !errors.Is(err, ErrClosed) {
		t.Errorf("enroll after stop err = %v", err)
	}
}

func TestIdleTimeoutDropsSilentConnection(t *testing.T) {
	w := newWorld(t, 16, 208)
	srv, err := Listen("127.0.0.1:0", w.proto, WithIdleTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr().String(), w.device, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Do nothing; after the idle timeout the server drops us, and the next
	// session fails.
	time.Sleep(300 * time.Millisecond)
	u := w.src.NewUser("slow")
	if err := client.Enroll(u.ID, u.Template); err == nil {
		t.Error("session on idle-dropped connection succeeded")
	}
}

// TestMaxConnsRefusesPastCap checks that WithMaxConns(1) refuses a second
// concurrent connection at accept time and frees the slot when the first
// client disconnects.
func TestMaxConnsRefusesPastCap(t *testing.T) {
	w := newWorld(t, 32, 210)
	srv, err := Listen("127.0.0.1:0", w.proto, WithMaxConns(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1, err := Dial(srv.Addr().String(), w.device, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	u := w.src.NewUser("alice")
	if err := c1.Enroll(u.ID, u.Template); err != nil {
		t.Fatalf("first connection enroll: %v", err)
	}
	// The first connection holds the only slot for its whole lifetime, so
	// a second client is refused: its session dies on a closed connection
	// instead of being served.
	c2, err := Dial(srv.Addr().String(), w.device, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	u2 := w.src.NewUser("bob")
	if err := c2.Enroll(u2.ID, u2.Template); err == nil {
		t.Fatal("connection past the cap was served")
	}
	c2.Close()

	// Releasing the first connection frees the slot (untrack is async
	// after Close, so retry briefly).
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := Dial(srv.Addr().String(), w.device, WithTimeout(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		err = c3.Enroll(u2.ID, u2.Template)
		c3.Close()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after disconnect: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := w.proto.Store().Len(); got != 2 {
		t.Fatalf("store has %d records, want 2", got)
	}
}

// closeRecorder verifies the WithCloser shutdown ordering.
type closeRecorder struct {
	mu     sync.Mutex
	closed int
}

func (c *closeRecorder) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed++
	return nil
}

func TestWithCloserRunsAfterDrain(t *testing.T) {
	w := newWorld(t, 32, 211)
	rec := &closeRecorder{}
	srv, err := Listen("127.0.0.1:0", w.proto, WithCloser(rec))
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr().String(), w.device, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	u := w.src.NewUser("carol")
	if err := client.Enroll(u.ID, u.Template); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if rec.closed != 0 {
		t.Fatal("closer ran before server shutdown")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.closed != 1 {
		t.Fatalf("closer ran %d times, want once", rec.closed)
	}
	// Double server close reports ErrClosed without re-running the closer.
	if err := srv.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second close err = %v", err)
	}
	if rec.closed != 1 {
		t.Fatalf("closer ran %d times after double close", rec.closed)
	}
}

// TestOverloadShedTypedAndRetried pins the transport half of the overload
// contract: a shed surfaces as protocol.IsOverloaded with a retry hint on a
// plain client, and a client built WithOverloadRetry absorbs the same shed
// by backing off and retrying inside the call.
func TestOverloadShedTypedAndRetried(t *testing.T) {
	w := newWorld(t, 64, 301)
	w.proto.SetQoS(qos.New(qos.Config{
		Defaults: qos.Limits{Rate: 20, Burst: 1},
		Budget:   time.Millisecond,
	}))
	srv, err := Listen("127.0.0.1:0", w.proto)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	plain, err := Dial(srv.Addr().String(), w.device, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	u := w.src.NewUser("alice")
	if err := plain.Enroll(u.ID, u.Template); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	reading, err := w.src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	// The enroll spent the 1-token burst; an identify inside the 50ms
	// refill window must shed with the typed error and a positive hint.
	var hint time.Duration
	sawShed := false
	for i := 0; i < 3 && !sawShed; i++ {
		_, err = plain.Identify(reading)
		hint, sawShed = protocol.IsOverloaded(err)
	}
	if !sawShed {
		t.Fatalf("rate budget never shed; last err = %v", err)
	}
	if hint <= 0 {
		t.Fatalf("retry hint = %v, want > 0", hint)
	}

	retrier, err := Dial(srv.Addr().String(), w.device,
		WithTimeout(5*time.Second), WithOverloadRetry(5))
	if err != nil {
		t.Fatal(err)
	}
	defer retrier.Close()
	// Back-to-back sessions overrun the 20/s budget repeatedly; bounded
	// retry must absorb every shed.
	for i := 0; i < 6; i++ {
		if id, err := retrier.Identify(reading); err != nil || id != u.ID {
			t.Fatalf("identify %d = %q, %v", i, id, err)
		}
	}
}

// TestOverloadLeavesReplicaInRotation pins that an admission-control shed
// from a fanned-out read replica is treated as a protocol outcome — the
// typed error surfaces to the caller and the replica is NOT benched the way
// a transport failure would bench it.
func TestOverloadLeavesReplicaInRotation(t *testing.T) {
	w := newWorld(t, 64, 302)
	// A second server over the same store plays the replica; only it sheds.
	replicaProto := protocol.NewServer(w.fe, sigscheme.Default(), w.proto.Store())
	replicaProto.SetQoS(qos.New(qos.Config{
		Defaults: qos.Limits{Rate: 0.001, Burst: 1},
		Budget:   time.Millisecond,
	}))
	primary, err := Listen("127.0.0.1:0", w.proto)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica, err := Listen("127.0.0.1:0", replicaProto)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	client, err := Dial(primary.Addr().String(), w.device,
		WithTimeout(5*time.Second), WithReplicas(replica.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	u := w.src.NewUser("alice")
	if err := client.Enroll(u.ID, u.Template); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	reading, err := w.src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	// First fanned read spends the replica's burst; the second must come
	// back as the typed overload error, not a failover to the primary.
	sawShed := false
	for i := 0; i < 3 && !sawShed; i++ {
		_, err = client.Identify(reading)
		_, sawShed = protocol.IsOverloaded(err)
	}
	if !sawShed {
		t.Fatalf("replica never shed; last err = %v", err)
	}
	if client.replicas[0].benched(time.Now()) {
		t.Fatal("shed benched the replica; it must stay in rotation")
	}
}
