package main

import (
	"net"
	"time"

	"fuzzyid/internal/extract"
	"fuzzyid/internal/sigscheme"
)

// Span names. Every traced op yields one root span "session" whose children
// are the calls the device makes through the four wrapped seams.
const (
	spanSession  = "session"
	spanWrite    = "conn.write"
	spanReadWait = "conn.read_wait"
	spanDerive   = "sigscheme.derive"
	spanSign     = "sigscheme.sign"
	spanExtract  = "extract"
)

// span is one timed interval. Spans of one op share (Worker, Op); Parent is
// "" for the root and "session" for its children. Times are nanoseconds
// since the measured run started.
type span struct {
	Worker  int    `json:"worker"`
	Op      int    `json:"op"`
	Class   string `json:"class"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Bytes   int    `json:"bytes,omitempty"`
}

// tracer collects the spans of one worker. It is used by that worker's
// goroutine only, so it needs no lock; spans stay in memory until the run
// ends.
type tracer struct {
	worker int
	epoch  time.Time
	spans  []span

	op    int // the op in progress: the traced client is used inside ops only
	class string
}

func (t *tracer) begin(op int, class string) { t.op, t.class = op, class }

// child records one call made on behalf of the current op.
func (t *tracer) child(name string, start time.Time, bytes int) {
	t.spans = append(t.spans, span{
		Worker: t.worker, Op: t.op, Class: t.class, Name: name, Parent: spanSession,
		StartNS: int64(start.Sub(t.epoch)), DurNS: int64(time.Since(start)), Bytes: bytes,
	})
}

// end closes the current op with its root span.
func (t *tracer) end(start time.Time, dur time.Duration) {
	t.spans = append(t.spans, span{
		Worker: t.worker, Op: t.op, Class: t.class, Name: spanSession,
		StartNS: int64(start.Sub(t.epoch)), DurNS: int64(dur),
	})
}

// tracedConn times the device's side of the connection: Write is the time to
// hand bytes to the kernel, Read is the time blocked waiting for the server
// (its whole share of the op, as the device sees it).
type tracedConn struct {
	net.Conn
	t *tracer
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.t.child(spanReadWait, start, n)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.t.child(spanWrite, start, n)
	return n, err
}

// tracedScheme times the device's key derivation and signing.
type tracedScheme struct {
	sigscheme.Scheme
	t *tracer
}

func (s tracedScheme) DeriveKeyPair(seed []byte) (priv, pub []byte, err error) {
	start := time.Now()
	priv, pub, err = s.Scheme.DeriveKeyPair(seed)
	s.t.child(spanDerive, start, 0)
	return priv, pub, err
}

func (s tracedScheme) Sign(priv, msg []byte) ([]byte, error) {
	start := time.Now()
	sig, err := s.Scheme.Sign(priv, msg)
	s.t.child(spanSign, start, 0)
	return sig, err
}

// tracedExtractor times the strong extractor inside Gen and Rep.
type tracedExtractor struct {
	extract.Extractor
	t *tracer
}

func (e tracedExtractor) Extract(seed, x []byte, outLen int) ([]byte, error) {
	start := time.Now()
	key, err := e.Extractor.Extract(seed, x, outLen)
	e.t.child(spanExtract, start, 0)
	return key, err
}

// opSummary is one traced op folded from its spans: time per child name,
// self time (session minus children), bytes in each direction and the number
// of write→read direction changes (round trips).
type opSummary struct {
	class      string
	session    time.Duration
	child      map[string]time.Duration
	self       time.Duration
	bytesOut   int
	bytesIn    int
	roundTrips int
}

// summarize folds spans into one summary per (worker, op). Children of an op
// precede its root span, in call order, as the tracer appends them.
func summarize(spans []span) []opSummary {
	var out []opSummary
	cur := opSummary{child: map[string]time.Duration{}}
	lastWasWrite := false
	for _, s := range spans {
		if s.Name != spanSession {
			cur.child[s.Name] += time.Duration(s.DurNS)
			switch s.Name {
			case spanWrite:
				cur.bytesOut += s.Bytes
				lastWasWrite = true
			case spanReadWait:
				cur.bytesIn += s.Bytes
				if lastWasWrite {
					cur.roundTrips++
				}
				lastWasWrite = false
			}
			continue
		}
		cur.class, cur.session = s.Class, time.Duration(s.DurNS)
		cur.self = cur.session
		for _, d := range cur.child {
			cur.self -= d
		}
		out = append(out, cur)
		cur = opSummary{child: map[string]time.Duration{}}
		lastWasWrite = false
	}
	return out
}
