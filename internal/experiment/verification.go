package experiment

import "fmt"

// Verification reproduces the §VII verification-mode measurement: one full
// verification protocol run (claimed ID, challenge, Rep, sign, verify) as a
// function of the feature dimension n. The paper reports 99 ms at n = 5,000
// (Python) and that "dimensions have negligible impact to the protocol
// performance"; the shape to reproduce is a latency that grows only mildly
// (linearly in n with a small constant, dominated by fixed crypto cost).
func Verification(cfg Config) (*Table, error) {
	dims := []int{1000, 5000, 11000, 16000, 21000, 26000, 31000}
	runs := 20
	if cfg.Quick {
		dims = []int{1000, 5000}
		runs = 3
	}
	tbl := &Table{
		ID:     "verify",
		Title:  "Verification-mode latency vs dimension n (paper: 99 ms at n=5000, Python)",
		Header: []string{"n", "mean ms/verification", "runs"},
	}
	var first, last float64
	for _, n := range dims {
		e, err := newEnv(n, cfg.Seed)
		if err != nil {
			return nil, err
		}
		users, err := e.enrollPopulation(1)
		if err != nil {
			e.stop()
			return nil, err
		}
		u := users[0]
		ms, err := timeIt(runs, func() error {
			reading, err := e.src.GenuineReading(u)
			if err != nil {
				return err
			}
			return e.client.Verify(u.ID, reading)
		})
		e.stop()
		if err != nil {
			return nil, fmt.Errorf("verify n=%d: %w", n, err)
		}
		tbl.AddRow(n, ms, runs)
		if first == 0 {
			first = ms
		}
		last = ms
	}
	if first > 0 {
		tbl.AddNote("latency grows %.1fx across a %.0fx dimension range — the paper's 'negligible impact' shape (crypto-dominated).",
			last/first, float64(dims[len(dims)-1])/float64(dims[0]))
	}
	tbl.AddNote("absolute numbers are Go on this machine; the paper measured Python on an i5-5300U VM.")
	return tbl, nil
}
