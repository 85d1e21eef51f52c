// Package experiment regenerates every table and figure of the paper's
// evaluation (§VII) plus the analytical results of §V and §VI, per the
// experiment index in DESIGN.md §3:
//
//	table2     — Table II: implementation parameters and entropy accounting
//	verify     — §VII text: verification latency vs dimension n
//	fig4       — Figure 4: identification latency vs database size N
//	falseclose — §V: empirical false-close probability vs the analytic bound
//	entropy    — Theorem 3: measured H̃∞(X|S) vs closed form
//	robust     — §IV-C: helper-data tamper detection
//	ablate     — design-choice ablations (k, index depth, extractor, scheme)
//	reuse      — extension: exact multi-enrollment leakage H̃∞(X|S₁,S₂)
//	accuracy   — extension: FRR/FAR across the noise threshold (§III/§VI-B)
//	comm       — extension: wire sizes per protocol message (§I motivation)
//	durable    — extension: durable enroll latency vs concurrent writers,
//	             group-commit WAL on vs off (DESIGN.md §11)
//	openset    — extension: open-set identification; ghost false-accept
//	             rate vs the population bound 1-(1-p)^N from §V
//	aging      — extension: template aging under a drift random walk and
//	             recovery via atomic re-enroll (DESIGN.md §13)
//
// Each experiment returns a Table that renders as aligned text or CSV; the
// cmd/fuzzyid-bench binary is a thin wrapper around this package.
package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Config controls experiment workloads.
type Config struct {
	// Quick shrinks workloads for CI and tests; the full settings
	// reproduce the paper's ranges (n up to 31,000, N up to 1,600).
	Quick bool
	// Seed makes workloads reproducible.
	Seed int64
}

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier ("table2", "fig4", ...).
	ID string
	// Title is the human-readable heading.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the data, one string per column.
	Rows [][]string
	// Notes carries interpretation lines printed under the table
	// (paper-vs-measured commentary).
	Notes []string
}

// AddRow appends a row, formatting every cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends an interpretation line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// WriteText renders the table as aligned plain text.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, wd := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", wd))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (header + rows; notes as comments are
// omitted because CSV has no comment syntax).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// tableJSON is the machine-readable form of a Table. Field names are part
// of the output contract of fuzzyid-bench -format json; append only, so the
// perf trajectory stays comparable across versions.
type tableJSON struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// WriteJSON renders the table as one JSON object, for machine consumption
// (perf tracking across runs and versions).
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(tableJSON{ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes})
}

// WriteJSONTables renders several tables as one JSON array.
func WriteJSONTables(w io.Writer, tables []*Table) error {
	out := make([]tableJSON, len(tables))
	for i, t := range tables {
		out[i] = tableJSON{ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Runner is an experiment entry point.
type Runner func(Config) (*Table, error)

// Registry maps experiment IDs to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table2":     Table2,
		"verify":     Verification,
		"fig4":       Fig4,
		"falseclose": FalseClose,
		"entropy":    Entropy,
		"robust":     Robust,
		"ablate":     Ablate,
		"reuse":      Reuse,
		"accuracy":   Accuracy,
		"comm":       Comm,
		"durable":    DurableEnroll,
		"openset":    OpenSet,
		"aging":      Aging,
	}
}

// IDs returns the registered experiment IDs in stable order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunAll executes every experiment in stable order.
func RunAll(cfg Config) ([]*Table, error) {
	reg := Registry()
	var tables []*Table
	for _, id := range IDs() {
		tbl, err := reg[id](cfg)
		if err != nil {
			return tables, fmt.Errorf("experiment %s: %w", id, err)
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 1 || v <= -1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.6f", v)
	}
}
