package experiment

import (
	"fmt"
	"time"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/protocol"
	"fuzzyid/internal/sigscheme"
	"fuzzyid/internal/stats"
	"fuzzyid/internal/store"
	"fuzzyid/internal/transport"
)

// env is a complete in-memory deployment: fuzzy extractor, biometric
// source, protocol server over a registry of in-memory tenants, and a device client wired
// through an in-memory pipe.
type env struct {
	src    *biometric.Source
	client *transport.Client
	stop   func()
}

// newEnv builds a deployment for dimension dim over the paper's line.
func newEnv(dim int, seed int64) (*env, error) {
	fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: dim})
	if err != nil {
		return nil, err
	}
	src, err := biometric.NewSource(fe.Line(), biometric.Paper(dim), seed)
	if err != nil {
		return nil, err
	}
	reg, err := store.NewTenantRegistry(func(name string) (*store.Journaled, func() error, error) {
		return store.NewJournaledTenant(store.NewScan(fe.Line()), nil, nil, name), nil, nil
	})
	if err != nil {
		return nil, err
	}
	scheme := sigscheme.Default()
	proto := protocol.NewServer(fe, scheme, reg)
	device := protocol.NewDevice(fe, scheme)
	client, stop := transport.LocalPair(proto, device)
	return &env{src: src, client: client, stop: stop}, nil
}

// enrollPopulation enrolls count users and returns them.
func (e *env) enrollPopulation(count int) ([]*biometric.User, error) {
	users := e.src.Population(count)
	for _, u := range users {
		if err := e.client.Enroll(u.ID, u.Template); err != nil {
			return nil, fmt.Errorf("enroll %s: %w", u.ID, err)
		}
	}
	return users, nil
}

// timeIt runs fn `runs` times and returns the mean duration in
// milliseconds.
func timeIt(runs int, fn func() error) (float64, error) {
	if runs < 1 {
		runs = 1
	}
	start := time.Now()
	for i := 0; i < runs; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	total := time.Since(start)
	return float64(total) / float64(runs) / float64(time.Millisecond), nil
}

// medianMs runs fn `runs` times and returns the median single duration in
// milliseconds, so one scheduler stall cannot set the result.
func medianMs(runs int, fn func() error) (float64, error) {
	var tm stats.Timing
	for i := 0; i < max(runs, 1); i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		tm.Add(time.Since(start))
	}
	return tm.Percentile(50)
}
