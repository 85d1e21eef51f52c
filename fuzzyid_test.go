package fuzzyid

import (
	"bytes"
	"testing"

	"fuzzyid/internal/biometric"
)

func testSystem(t *testing.T, dim int, opts ...Option) (*System, *biometric.Source) {
	t.Helper()
	sys, err := NewSystem(Params{Line: PaperLine(), Dimension: dim}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	src, err := biometric.NewSource(sys.Extractor().Line(), biometric.Paper(dim), 301)
	if err != nil {
		t.Fatal(err)
	}
	return sys, src
}

func TestPaperParamsFacade(t *testing.T) {
	p := PaperParams()
	if p.Dimension != 5000 {
		t.Errorf("Dimension = %d", p.Dimension)
	}
	if PaperLine().V != 500 {
		t.Errorf("V = %d", PaperLine().V)
	}
}

func TestNewExtractorRoundTrip(t *testing.T) {
	fe, err := NewExtractor(Params{Line: PaperLine(), Dimension: 32})
	if err != nil {
		t.Fatal(err)
	}
	src, err := biometric.NewSource(fe.Line(), biometric.Paper(32), 302)
	if err != nil {
		t.Fatal(err)
	}
	u := src.NewUser("u")
	key, helper, err := fe.Gen(u.Template)
	if err != nil {
		t.Fatal(err)
	}
	reading, err := src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fe.Rep(reading, helper)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(key, got) {
		t.Fatal("key mismatch")
	}
}

func TestSystemEndToEnd(t *testing.T) {
	sys, src := testSystem(t, 64)
	client, stop := sys.LocalClient()
	defer stop()
	users := src.Population(8)
	for _, u := range users {
		if err := client.Enroll(u.ID, u.Template); err != nil {
			t.Fatalf("enroll: %v", err)
		}
	}
	if sys.Enrolled() != 8 {
		t.Errorf("Enrolled = %d", sys.Enrolled())
	}
	reading, err := src.GenuineReading(users[5])
	if err != nil {
		t.Fatal(err)
	}
	id, err := client.Identify(reading)
	if err != nil {
		t.Fatalf("identify: %v", err)
	}
	if id != users[5].ID {
		t.Fatalf("identified %q", id)
	}
	if err := client.Verify(users[5].ID, reading); err != nil {
		t.Fatalf("verify: %v", err)
	}
	_, err = client.Identify(src.ImpostorReading())
	if !IsRejected(err) {
		t.Fatalf("impostor err = %v", err)
	}

	// Rejection boundary through the full protocol: the store's matchPacked
	// `t - d` sign test and sketch.Chebyshev.Recover's `offset > t ||
	// offset < -t` refusal both admit distance exactly t and refuse t+1.
	line := sys.Extractor().Line()
	atT := reading.Clone()
	atT[3] = line.Add(users[5].Template[3], line.Threshold())
	if d, err := line.ChebyshevDist(users[5].Template, atT); err != nil || d != line.Threshold() {
		t.Fatalf("boundary reading at distance %d (%v), want t = %d", d, err, line.Threshold())
	}
	if id, err := client.Identify(atT); err != nil || id != users[5].ID {
		t.Fatalf("identify at distance t = %q, %v", id, err)
	}
	if err := client.Verify(users[5].ID, atT); err != nil {
		t.Fatalf("verify at distance t: %v", err)
	}
	nearMiss, err := src.NearMissReading(users[5], 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Identify(nearMiss); !IsRejected(err) {
		t.Fatalf("identify at distance t+1 err = %v, want rejection", err)
	}
	if err := client.Verify(users[5].ID, nearMiss); !IsRejected(err) {
		t.Fatalf("verify at distance t+1 err = %v, want rejection", err)
	}
}

// TestSystemIdentifyGroundTruth checks identifications against their ground
// truth — each genuine reading names the user it was drawn from, the
// impostor no one — at one shard and at several.
func TestSystemIdentifyGroundTruth(t *testing.T) {
	for _, shards := range []int{1, 4} {
		sys, src := testSystem(t, 64, WithShards(shards))
		client, stop := sys.LocalClient()
		users := src.Population(10)
		for _, u := range users {
			if err := client.Enroll(u.ID, u.Template); err != nil {
				stop()
				t.Fatalf("shards=%d enroll: %v", shards, err)
			}
		}
		readings := make([]Vector, 0, 3)
		want := make([]string, 0, 3)
		for _, i := range []int{1, 8} {
			r, err := src.GenuineReading(users[i])
			if err != nil {
				stop()
				t.Fatal(err)
			}
			readings = append(readings, r)
			want = append(want, users[i].ID)
		}
		readings = append(readings, src.ImpostorReading())
		want = append(want, "")
		for i, r := range readings {
			id, err := client.Identify(r)
			if want[i] == "" && !IsRejected(err) || want[i] != "" && err != nil {
				t.Errorf("shards=%d reading %d: err = %v", shards, i, err)
			}
			if id != want[i] {
				t.Errorf("shards=%d reading %d = %q, want %q", shards, i, id, want[i])
			}
		}
		stop()
	}
}

func TestSystemOverTCP(t *testing.T) {
	sys, src := testSystem(t, 32)
	srv, err := sys.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := sys.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	u := src.NewUser("tcp-user")
	if err := client.Enroll(u.ID, u.Template); err != nil {
		t.Fatal(err)
	}
	reading, err := src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	id, err := client.Identify(reading)
	if err != nil || id != u.ID {
		t.Fatalf("Identify = (%q, %v)", id, err)
	}
}

func TestSystemOptions(t *testing.T) {
	valid := [][]Option{
		{WithSignatureScheme("ecdsa-p256")},
		{WithExtractor("sha256")},
		{WithExtractor("toeplitz"), WithShards(1)},
		{WithShards(8)},
		{WithShards(3), WithSignatureScheme("ecdsa-p256")},
	}
	for _, opts := range valid {
		sys, src := testSystem(t, 16, opts...)
		client, stop := sys.LocalClient()
		u := src.NewUser("u")
		if err := client.Enroll(u.ID, u.Template); err != nil {
			t.Fatalf("enroll with opts: %v", err)
		}
		reading, err := src.GenuineReading(u)
		if err != nil {
			t.Fatal(err)
		}
		if id, err := client.Identify(reading); err != nil || id != u.ID {
			t.Fatalf("identify with opts = (%q, %v)", id, err)
		}
		stop()
	}
}

func TestSystemBadOptions(t *testing.T) {
	bad := [][]Option{
		{WithSignatureScheme("rsa")},
		{WithExtractor("md5")},
		{WithShards(-1)},
	}
	for i, opts := range bad {
		if _, err := NewSystem(Params{Line: PaperLine()}, opts...); err == nil {
			t.Errorf("bad option set %d accepted", i)
		}
	}
}

func TestSystemRevocation(t *testing.T) {
	sys, src := testSystem(t, 48)
	client, stop := sys.LocalClient()
	defer stop()
	u := src.NewUser("revocable")
	if err := client.Enroll(u.ID, u.Template); err != nil {
		t.Fatal(err)
	}
	reading, err := src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Revoke(u.ID, reading); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	if sys.Enrolled() != 0 {
		t.Errorf("Enrolled after revoke = %d", sys.Enrolled())
	}
	if _, ok := sys.StoreRecord(u.ID); ok {
		t.Error("record still present after revocation")
	}
	// Fresh enrollment issues new helper data; old readings still work
	// because the template is unchanged.
	if err := client.Enroll(u.ID, u.Template); err != nil {
		t.Fatalf("re-enroll: %v", err)
	}
	if err := client.Verify(u.ID, reading); err != nil {
		t.Fatalf("verify after re-enroll: %v", err)
	}
}

func TestSystemReport(t *testing.T) {
	sys, _ := testSystem(t, 5000)
	rep := sys.Report(0)
	if rep.N != 5000 {
		t.Errorf("Report N = %d", rep.N)
	}
	if rep.ResidualEntropyBits < 44820 || rep.ResidualEntropyBits > 44840 {
		t.Errorf("m~ = %v", rep.ResidualEntropyBits)
	}
}

// TestPersistenceAcrossRestart exercises the WithPersistence lifecycle:
// enrollments and revocations survive a close-and-reopen of the system,
// including a snapshot compaction in the middle.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const dim = 32
	sys, src := testSystem(t, dim, WithPersistence(dir))
	if !sys.Persistent() {
		t.Fatal("Persistent() = false with WithPersistence")
	}
	users := src.Population(5)
	client, stop := sys.LocalClient()
	for _, u := range users {
		if err := client.Enroll(u.ID, u.Template); err != nil {
			t.Fatalf("enroll %s: %v", u.ID, err)
		}
	}
	reading, err := src.GenuineReading(users[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Revoke(users[2].ID, reading); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	stop()
	if err := sys.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Restart: the database comes back from snapshot + WAL.
	sys2, err := NewSystem(Params{Line: PaperLine(), Dimension: dim},
		WithPersistence(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := sys2.Enrolled(); got != 4 {
		t.Fatalf("recovered %d enrollments, want 4", got)
	}
	if _, ok := sys2.StoreRecord(users[2].ID); ok {
		t.Fatal("revoked user resurrected by recovery")
	}
	client2, stop2 := sys2.LocalClient()
	reading0, err := src.GenuineReading(users[0])
	if err != nil {
		t.Fatal(err)
	}
	if id, err := client2.Identify(reading0); err != nil || id != users[0].ID {
		t.Fatalf("post-recovery identify = (%q, %v)", id, err)
	}
	// Re-enroll the revoked user, compact, and mutate after the snapshot.
	if err := client2.Enroll(users[2].ID, users[2].Template); err != nil {
		t.Fatalf("re-enroll: %v", err)
	}
	if err := sys2.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := sys2.Snapshot(); err != nil { // idle snapshot is a cheap no-op
		t.Fatalf("idle snapshot: %v", err)
	}
	late := src.NewUser("late-user")
	if err := client2.Enroll(late.ID, late.Template); err != nil {
		t.Fatalf("post-snapshot enroll: %v", err)
	}
	stop2()
	if err := sys2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}

	// Second restart: snapshot plus post-snapshot WAL tail.
	sys3, err := NewSystem(Params{Line: PaperLine(), Dimension: dim},
		WithPersistence(dir))
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer sys3.Close()
	if got := sys3.Enrolled(); got != 6 {
		t.Fatalf("second recovery has %d enrollments, want 6", got)
	}
	if _, ok := sys3.StoreRecord("late-user"); !ok {
		t.Fatal("post-snapshot enrollment lost")
	}
	reading2, err := src.GenuineReading(users[2])
	if err != nil {
		t.Fatal(err)
	}
	client3, stop3 := sys3.LocalClient()
	defer stop3()
	if id, err := client3.Identify(reading2); err != nil || id != users[2].ID {
		t.Fatalf("identify re-enrolled user = (%q, %v)", id, err)
	}
}

// TestPersistentListenFlushesOnServerClose checks the graceful-shutdown
// path: closing the TCP server drains sessions and flushes the persistence
// layer without an explicit System.Close.
func TestPersistentListenFlushesOnServerClose(t *testing.T) {
	dir := t.TempDir()
	const dim = 32
	sys, src := testSystem(t, dim, WithPersistence(dir))
	srv, err := sys.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	u := src.NewUser("durable")
	if err := client.Enroll(u.ID, u.Template); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	client.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	// The journal is now closed: further mutations must fail loudly
	// rather than silently losing durability.
	c2, stop := sys.LocalClient()
	if err := c2.Enroll("after-shutdown", src.NewUser("x").Template); err == nil {
		t.Fatal("mutation accepted after the journal was closed")
	}
	stop()

	sys2, err := NewSystem(Params{Line: PaperLine(), Dimension: dim}, WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if got := sys2.Enrolled(); got != 1 {
		t.Fatalf("recovered %d enrollments, want 1", got)
	}
	if _, ok := sys2.StoreRecord(u.ID); !ok {
		t.Fatal("enrollment lost across server shutdown")
	}
}

func TestWithPersistenceValidation(t *testing.T) {
	if _, err := NewSystem(Params{Line: PaperLine(), Dimension: 32}, WithPersistence("")); err == nil {
		t.Fatal("empty persistence dir accepted")
	}
}
