package experiment

import (
	"fmt"
	"os"
	"sync"
	"time"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/persist"
	"fuzzyid/internal/protocol"
	"fuzzyid/internal/sigscheme"
	"fuzzyid/internal/store"
	"fuzzyid/internal/transport"
)

// DurableEnroll measures the durable write path — enroll through the full
// protocol into a WAL-journaled store under SyncAlways — across concurrent
// writer counts, with group commit on vs off. This is the systems extension
// the paper's evaluation stops short of: §VII benchmarks the cryptography,
// but a deployed authentication server also pays one fsync per enrollment
// unless concurrent writers share them. The on/off ratio at high writer
// counts is the group-commit amortization (DESIGN.md §11); at one writer
// the two must be close (a lone writer never waits out the group window).
func DurableEnroll(cfg Config) (*Table, error) {
	writerCounts := []int{1, 8, 64}
	// Per-writer enrollment count scales inversely with the writer count so
	// every cell averages a comparable number of fsyncs: low writer counts
	// are fsync-per-op and need many samples before one scheduler stall
	// stops moving the mean.
	perWriterAt := func(nw int) int {
		floor, budget := 24, 384
		if cfg.Quick {
			floor, budget = 8, 128
		}
		if per := budget / nw; per > floor {
			return per
		}
		return floor
	}
	dim := 128
	if cfg.Quick {
		dim = 64
	}
	tbl := &Table{
		ID:     "durable",
		Title:  "Durable enroll latency vs concurrent writers (group-commit WAL)",
		Header: []string{"writers", "group commit", "per-enroll ms"},
	}
	var at64 [2]float64 // [group on, group off] per-enroll ms at 64 writers
	for _, nw := range writerCounts {
		for gi, group := range []bool{true, false} {
			// Best of two repeats: fsync latency on shared machines has a
			// heavy positive tail, and the gate cares about the achievable
			// floor, not one unlucky scheduler stall.
			perWriter := perWriterAt(nw)
			ms, err := measureDurableEnroll(cfg, dim, nw, perWriter, group)
			if err != nil {
				return nil, fmt.Errorf("writers=%d group=%v: %w", nw, group, err)
			}
			if again, err := measureDurableEnroll(cfg, dim, nw, perWriter, group); err != nil {
				return nil, fmt.Errorf("writers=%d group=%v: %w", nw, group, err)
			} else if again < ms {
				ms = again
			}
			mode := "on"
			if !group {
				mode = "off"
			}
			tbl.AddRow(nw, mode, ms)
			if nw == 64 {
				at64[gi] = ms
			}
		}
	}
	if at64[0] > 0 {
		tbl.AddNote("group-commit speedup at 64 writers: %.1fx (one fsync covers a whole commit group)",
			at64[1]/at64[0])
	}
	tbl.AddNote("SyncAlways throughout: every acknowledged enrollment is fsynced before the ack")
	return tbl, nil
}

// measureDurableEnroll runs writers*perWriter enrollments from nw concurrent
// clients against one durable deployment and returns the aggregate wall time
// per enrollment in milliseconds.
func measureDurableEnroll(cfg Config, dim, nw, perWriter int, group bool) (float64, error) {
	dir, err := os.MkdirTemp("", "fuzzyid-durable-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)

	fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: dim})
	if err != nil {
		return 0, err
	}
	log, err := persist.Open(dir, persist.WithGroupCommit(group))
	if err != nil {
		return 0, err
	}
	// The registry hosts only the default tenant, journaled into log.
	reg, err := store.NewTenantRegistry(func(string) (*store.Journaled, func() error, error) {
		db, err := store.Open(fe.Line(), 0, log.Replay)
		if err != nil {
			return nil, nil, err
		}
		return store.NewJournaled(db, log), nil, nil
	})
	if err != nil {
		return 0, err
	}
	scheme := sigscheme.Default()
	proto := protocol.NewServer(fe, scheme, reg)
	device := protocol.NewDevice(fe, scheme)

	// Every writer gets its own client pipe and its own pre-generated user
	// set, so the timed region is pure enroll traffic.
	type lane struct {
		client *transport.Client
		stop   func()
		users  []*biometric.User
	}
	lanes := make([]lane, nw)
	for w := range lanes {
		client, stop := transport.LocalPair(proto, device)
		defer stop()
		src, err := biometric.NewSource(fe.Line(), biometric.Paper(dim), cfg.Seed+int64(w)<<20)
		if err != nil {
			return 0, err
		}
		users := make([]*biometric.User, perWriter)
		for i := range users {
			users[i] = src.NewUser(fmt.Sprintf("durable-w%d-%04d", w, i))
		}
		lanes[w] = lane{client: client, stop: stop, users: users}
	}

	// Warm the path before timing: the first durable writes pay one-off
	// costs (directory creation fsyncs, page-cache faults, lazy scheme
	// setup) that would otherwise dominate the small writer counts.
	warm, err := biometric.NewSource(fe.Line(), biometric.Paper(dim), cfg.Seed-1)
	if err != nil {
		return 0, err
	}
	for i := 0; i < 4; i++ {
		u := warm.NewUser(fmt.Sprintf("durable-warm-%d", i))
		if err := lanes[0].client.Enroll(u.ID, u.Template); err != nil {
			return 0, err
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, nw)
	start := time.Now()
	for w := range lanes {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, u := range lanes[w].users {
				if err := lanes[w].client.Enroll(u.ID, u.Template); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if err := log.Close(); err != nil {
		return 0, err
	}
	total := nw * perWriter
	return float64(elapsed) / float64(total) / float64(time.Millisecond), nil
}
