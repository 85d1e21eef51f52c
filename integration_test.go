package fuzzyid

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/protocol"
)

// TestSystemSoakPaperDimension runs the full stack at the paper's working
// dimension (Table II: n = 5000) over real TCP: enroll a population, then
// hammer the server concurrently with genuine identifications, genuine
// verifications, impostors and revocations, checking every outcome.
func TestSystemSoakPaperDimension(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		dim     = 5000
		users   = 30
		workers = 4
	)
	sys, err := NewSystem(Params{Line: PaperLine(), Dimension: dim})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	src, err := biometric.NewSource(sys.Extractor().Line(), biometric.Paper(dim), 555)
	if err != nil {
		t.Fatal(err)
	}
	population := src.Population(users)

	setup, err := sys.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range population {
		if err := setup.Enroll(u.ID, u.Template); err != nil {
			t.Fatalf("enroll %s: %v", u.ID, err)
		}
	}
	setup.Close()
	if sys.Enrolled() != users {
		t.Fatalf("Enrolled = %d", sys.Enrolled())
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers*8)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := sys.Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for round := 0; round < 5; round++ {
				u := population[(w*7+round*3)%users]
				reading, err := src.GenuineReading(u)
				if err != nil {
					errs <- err
					return
				}
				id, err := client.Identify(reading)
				if err != nil {
					errs <- fmt.Errorf("worker %d identify: %w", w, err)
					return
				}
				if id != u.ID {
					errs <- fmt.Errorf("worker %d: identified %q want %q", w, id, u.ID)
					return
				}
				if err := client.Verify(u.ID, reading); err != nil {
					errs <- fmt.Errorf("worker %d verify: %w", w, err)
					return
				}
				if _, err := client.Identify(src.ImpostorReading()); !IsRejected(err) {
					errs <- fmt.Errorf("worker %d impostor err = %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Revoke one user and confirm the rest still work.
	client, err := sys.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	victim := population[0]
	reading, err := src.GenuineReading(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Revoke(victim.ID, reading); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	if _, err := client.Identify(reading); !IsRejected(err) {
		t.Fatalf("identify after revoke err = %v", err)
	}
	survivor := population[1]
	reading, err = src.GenuineReading(survivor)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := client.Identify(reading); err != nil || id != survivor.ID {
		t.Fatalf("survivor identify = (%q, %v)", id, err)
	}
}

// TestLifecycleOverTCP covers the full account lifecycle over a real TCP
// connection: enroll → identify → revoke → re-enroll with fresh helper data
// → identify again. Revocation was previously exercised only via net.Pipe.
func TestLifecycleOverTCP(t *testing.T) {
	const dim = 64
	sys, err := NewSystem(Params{Line: PaperLine(), Dimension: dim})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	src, err := biometric.NewSource(sys.Extractor().Line(), biometric.Paper(dim), 777)
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	u := src.NewUser("alice")
	if err := client.Enroll(u.ID, u.Template); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	first, ok := sys.StoreRecord(u.ID)
	if !ok {
		t.Fatal("record missing after enroll")
	}
	reading, err := src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := client.Identify(reading); err != nil || id != u.ID {
		t.Fatalf("identify = (%q, %v)", id, err)
	}

	reading2, err := src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Revoke(u.ID, reading2); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	if sys.Enrolled() != 0 {
		t.Fatalf("enrolled = %d after revoke", sys.Enrolled())
	}
	if _, err := client.Identify(reading); !IsRejected(err) {
		t.Fatalf("identify after revoke err = %v, want rejection", err)
	}

	// Re-enrollment issues fresh helper data for the same biometric — the
	// revocability the paper claims over raw-template storage (§I).
	if err := client.Enroll(u.ID, u.Template); err != nil {
		t.Fatalf("re-enroll: %v", err)
	}
	second, ok := sys.StoreRecord(u.ID)
	if !ok {
		t.Fatal("record missing after re-enroll")
	}
	if string(first.Helper.Seed) == string(second.Helper.Seed) {
		t.Fatal("re-enrollment reused the old extractor seed")
	}
	reading3, err := src.GenuineReading(u)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := client.Identify(reading3); err != nil || id != u.ID {
		t.Fatalf("identify after re-enroll = (%q, %v)", id, err)
	}

	// Imposters: every ordered pair of an enrolled population — one user's
	// genuine reading claiming another's ID — is refused; verify never
	// accepts.
	pop := src.Population(24)
	readings := make([]Vector, len(pop))
	for i, p := range pop {
		if err := client.Enroll(p.ID, p.Template); err != nil {
			t.Fatalf("enroll %s: %v", p.ID, err)
		}
		if readings[i], err = src.GenuineReading(p); err != nil {
			t.Fatal(err)
		}
	}
	for i, claimed := range pop {
		for j := range pop {
			if i == j {
				continue
			}
			err := client.Verify(claimed.ID, readings[j])
			if err == nil {
				t.Fatalf("imposter accepted: %s's reading verified as %s", pop[j].ID, claimed.ID)
			}
			if !IsRejected(err) && !errors.Is(err, protocol.ErrNoMatch) {
				t.Fatalf("imposter verify %s as %s: %v", pop[j].ID, claimed.ID, err)
			}
		}
	}
}
