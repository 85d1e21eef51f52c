package fuzzyid

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/protocol"
	"fuzzyid/internal/sigscheme"
	"fuzzyid/internal/wire"
)

// sentConn records the bytes a device writes, so a test can read back the
// opener a session sent.
type sentConn struct {
	net.Conn
	sent bytes.Buffer
}

func (c *sentConn) Write(p []byte) (int, error) {
	c.sent.Write(p)
	return c.Conn.Write(p)
}

// takeOpener returns the record the session's first frame asked the
// server to store, encoded as the WAL encodes records, and forgets what the
// connection sent.
func (c *sentConn) takeOpener(t *testing.T) []byte {
	t.Helper()
	defer c.sent.Reset()
	body, err := wire.ReadFrame(&c.sent)
	if err != nil {
		t.Error(err)
		return nil
	}
	msg, err := wire.Unmarshal(body)
	if err != nil {
		t.Error(err)
		return nil
	}
	rec := &Record{}
	switch m := msg.(type) {
	case *wire.EnrollRequest:
		rec.ID, rec.PublicKey, rec.Helper = m.ID, m.PublicKey, m.Helper
	case *wire.ReEnrollRequest:
		rec.ID, rec.PublicKey, rec.Helper = m.ID, m.PublicKey, m.Helper
	default:
		t.Errorf("session opened with %T", msg)
		return nil
	}
	return encodedRecord(rec)
}

func encodedRecord(rec *Record) []byte {
	e := wire.NewEncoder(1024)
	wire.EncodeRecord(e, rec)
	return e.Bytes()
}

// TestConcurrentEnrollsStoreWhatClientsSent runs enroll and re-enroll
// sessions on many connections at once against a primary with a WAL and a
// follower attached, and checks that every user's record is what its
// client last sent: in the primary's store, in the follower's copy and in
// the store a restart replays from the data directory. The server decodes
// each enroll or re-enroll opener into pooled session state and hands that
// state's record to the store, so a session that recycled its state before
// the mutation committed would let a concurrent session's decode overwrite
// the record being stored.
func TestConcurrentEnrollsStoreWhatClientsSent(t *testing.T) {
	const clients, users, rounds = 8, 10, 3
	dir := t.TempDir()
	primary, priSrv := startPrimary(t, WithPersistence(dir))
	follower, folSrv := startFollower(t, priSrv.Addr().String())
	t.Cleanup(func() { folSrv.Close(); follower.Close() })

	// Round 0 enrolls each user's first template; each later round
	// replaces it with the next, proving possession with a reading of the
	// one it replaces.
	src, err := biometric.NewSource(primary.Extractor().Line(), biometric.Paper(replTestDim), 31)
	if err != nil {
		t.Fatal(err)
	}
	templates := make([][][]numberline.Vector, clients)
	readings := make([][][]numberline.Vector, clients)
	for c := range templates {
		templates[c] = make([][]numberline.Vector, users)
		readings[c] = make([][]numberline.Vector, users)
		for u := range templates[c] {
			for r := 0; r < rounds; r++ {
				user := src.NewUser("")
				reading, err := src.GenuineReading(user)
				if err != nil {
					t.Fatal(err)
				}
				templates[c][u] = append(templates[c][u], user.Template)
				readings[c][u] = append(readings[c][u], reading)
			}
		}
	}

	device := protocol.NewDevice(primary.Extractor(), sigscheme.Default())
	sent := make([]map[string][]byte, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		sent[c] = make(map[string][]byte)
		conn, err := net.Dial("tcp", priSrv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func(c int, sc *sentConn) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for u := 0; u < users; u++ {
					id := fmt.Sprintf("user-%d-%02d", c, u)
					var err error
					if r == 0 {
						err = device.Enroll(sc, id, templates[c][u][0])
					} else {
						err = device.ReEnroll(sc, id, readings[c][u][r-1], templates[c][u][r])
					}
					if err != nil {
						t.Errorf("round %d, %s: %v", r, id, err)
						return
					}
					sent[c][id] = sc.takeOpener(t)
				}
			}
		}(c, &sentConn{Conn: conn})
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	check := func(where string, get func(id string) (*Record, bool)) {
		t.Helper()
		for c := range sent {
			for id, want := range sent[c] {
				rec, ok := get(id)
				if !ok {
					t.Fatalf("%s: %s missing", where, id)
				}
				if !bytes.Equal(encodedRecord(rec), want) {
					t.Fatalf("%s: %s is not the record its client last sent", where, id)
				}
			}
		}
	}
	check("primary", primary.StoreRecord)
	waitCaughtUp(t, primary, follower)
	check("follower", follower.StoreRecord)

	if err := priSrv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := NewSystem(Params{Line: PaperLine(), Dimension: replTestDim}, WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	if got, want := replayed.Enrolled(), clients*users; got != want {
		t.Fatalf("replay holds %d users, want %d", got, want)
	}
	check("WAL replay", replayed.StoreRecord)
}
