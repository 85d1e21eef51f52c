// Package telemetry is the operational observability seam of the system:
// cheap counters, gauges and fixed-bucket latency histograms that the
// transport, protocol and persistence layers update on their hot paths, and
// a registry that exports everything as one JSON snapshot.
//
// Design constraints, in order:
//
//   - An observation must cost almost nothing: every instrument is a set of
//     atomics, updated lock-free with zero heap allocations, so metrics can
//     stay on even when a server handles the paper's "millions of users".
//   - Instruments are resolved from the registry once, at construction time,
//     and held as pointers by the instrumented code — the per-event path
//     never touches a map or a lock.
//   - A nil instrument is a valid no-op: uninstrumented deployments pay one
//     predictable branch per call site and nothing else.
//
// Snapshots are taken with atomic loads while observations continue; a
// snapshot is therefore a consistent-enough monitoring view, not a
// linearizable cut (a histogram's count can be momentarily ahead of its
// sum). All durations are recorded in nanoseconds and exported in
// milliseconds.
package telemetry

import (
	"encoding/json"
	"io"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is ready
// to use; a nil *Counter discards observations.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current count (0 for a nil Counter).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (e.g. active connections). The zero value
// is ready to use; a nil *Gauge discards observations.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() {
	if g == nil {
		return
	}
	g.v.Add(1)
}

// Dec subtracts one.
func (g *Gauge) Dec() {
	if g == nil {
		return
	}
	g.v.Add(-1)
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Load returns the current level (0 for a nil Gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// NumBuckets is the number of histogram buckets. Bucket 0 holds
// observations under 1µs; bucket i (i >= 1) holds observations in
// [2^(i-1)µs, 2^i µs); the last bucket additionally absorbs everything
// beyond its lower bound. 2^38 µs ≈ 76 hours, far past any latency this
// system can produce, so the top bucket is effectively "absurd outliers".
const NumBuckets = 40

// BucketUpperBound returns the exclusive upper bound of bucket i.
func BucketUpperBound(i int) time.Duration {
	if i >= NumBuckets-1 {
		// The top bucket is unbounded; report its lower bound's double so
		// interpolation still has an extent to work with.
		i = NumBuckets - 1
	}
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	if d < 0 {
		return 0
	}
	us := uint64(d / time.Microsecond)
	// bits.Len64(us) = floor(log2(us))+1, so us in [2^(i-1), 2^i) maps to
	// bucket i; us == 0 (sub-microsecond) maps to bucket 0.
	i := bits.Len64(us)
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// Histogram accumulates duration observations into NumBuckets fixed
// power-of-two-microsecond buckets. Observe is lock-free and allocation-free.
// The zero value is ready to use; a nil *Histogram discards observations.
type Histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Int64
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.sumNS.Add(int64(d))
	h.count.Add(1)
}

// ObserveValue records one dimensionless value (a batch size, a byte count)
// by mapping value v onto the duration scale as v milliseconds. The
// snapshot's MeanMS/P50MS/... fields then read back as plain values — the
// same bucketed-distribution machinery, reused for non-latency quantities.
func (h *Histogram) ObserveValue(v uint64) {
	h.Observe(time.Duration(v) * time.Millisecond)
}

// Count returns the number of observations (0 for a nil Histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-th quantile (q in [0, 1]) by locating the bucket
// containing the rank and interpolating linearly inside it. It returns 0
// when the histogram is empty. The estimate's resolution is the bucket
// width: exact to within a factor of two, which is ample for p50/p95/p99
// load reporting.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	return quantileFromBuckets(h.snapshotBuckets(), q)
}

func (h *Histogram) snapshotBuckets() [NumBuckets]uint64 {
	var b [NumBuckets]uint64
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
	}
	return b
}

func quantileFromBuckets(b [NumBuckets]uint64, q float64) time.Duration {
	var total uint64
	for _, c := range b {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank: the smallest observation such that q of the mass is at
	// or below it.
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range b {
		if c == 0 {
			continue
		}
		if rank < cum+c {
			lo := time.Duration(0)
			if i > 0 {
				lo = BucketUpperBound(i - 1)
			}
			hi := BucketUpperBound(i)
			// Position of the rank inside this bucket, in [0, 1).
			frac := float64(rank-cum) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	return BucketUpperBound(NumBuckets - 1)
}

// HistogramSnapshot is the exported state of one histogram. Durations are
// reported in milliseconds; Buckets lists only the non-empty buckets, each
// with its exclusive upper bound in microseconds.
type HistogramSnapshot struct {
	Count  uint64          `json:"count"`
	MeanMS float64         `json:"mean_ms"`
	P50MS  float64         `json:"p50_ms"`
	P95MS  float64         `json:"p95_ms"`
	P99MS  float64         `json:"p99_ms"`
	MaxMS  float64         `json:"max_ms"` // upper bound of the highest occupied bucket
	Bucket []BucketExports `json:"buckets,omitempty"`
}

// BucketExports is one non-empty bucket of a HistogramSnapshot.
type BucketExports struct {
	// UpperUS is the bucket's exclusive upper bound in microseconds.
	UpperUS int64 `json:"le_us"`
	// Count is the number of observations in the bucket.
	Count uint64 `json:"count"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Snapshot exports the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	b := h.snapshotBuckets()
	var s HistogramSnapshot
	for _, c := range b {
		s.Count += c
	}
	if s.Count == 0 {
		return s
	}
	sum := h.sumNS.Load()
	s.MeanMS = ms(time.Duration(sum / int64(s.Count)))
	s.P50MS = ms(quantileFromBuckets(b, 0.50))
	s.P95MS = ms(quantileFromBuckets(b, 0.95))
	s.P99MS = ms(quantileFromBuckets(b, 0.99))
	for i, c := range b {
		if c == 0 {
			continue
		}
		s.MaxMS = ms(BucketUpperBound(i))
		s.Bucket = append(s.Bucket, BucketExports{
			UpperUS: int64(BucketUpperBound(i) / time.Microsecond),
			Count:   c,
		})
	}
	return s
}

// Registry holds named instruments. Names are dotted paths
// ("layer.object.event", e.g. "protocol.identify.requests"); registration is
// get-or-create and safe for concurrent use, but the intended pattern is to
// resolve instruments once at construction time and keep the pointers.
// A nil *Registry hands out nil instruments, so an uninstrumented component
// needs no special casing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil when
// r is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil when r is nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// LabelledCounters resolves counters of one dotted family —
// "<prefix>.<label>.<suffix>" — on demand and caches them per label, so a
// hot path that discovers its label at runtime (e.g. the tenant a request
// names) pays a read-locked map hit instead of the registry mutex plus a
// string concatenation per event. The labelled counters appear in the
// registry snapshot like any other counter.
type LabelledCounters struct {
	reg            *Registry
	prefix, suffix string

	mu      sync.RWMutex
	byLabel map[string]*Counter
}

// LabelledCounters returns a labelled counter family rooted at prefix with
// the given suffix. Returns nil when r is nil; a nil family hands out nil
// (no-op) counters.
func (r *Registry) LabelledCounters(prefix, suffix string) *LabelledCounters {
	if r == nil {
		return nil
	}
	return &LabelledCounters{
		reg: r, prefix: prefix, suffix: suffix,
		byLabel: make(map[string]*Counter),
	}
}

// Get returns the counter for label, creating "<prefix>.<label>.<suffix>"
// in the registry on first use. Safe for concurrent use; nil-safe.
func (l *LabelledCounters) Get(label string) *Counter {
	if l == nil {
		return nil
	}
	l.mu.RLock()
	c, ok := l.byLabel[label]
	l.mu.RUnlock()
	if ok {
		return c
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, ok = l.byLabel[label]; ok {
		return c
	}
	c = l.reg.Counter(l.prefix + "." + label + "." + l.suffix)
	l.byLabel[label] = c
	return c
}

// Snapshot is the exported state of a whole registry. Map keys are the
// instrument names; the JSON field names are part of the output contract of
// the -stats-addr endpoint — append only.
type Snapshot struct {
	// TakenAtMS is the snapshot wall-clock time in Unix milliseconds.
	TakenAtMS int64 `json:"taken_at_ms"`
	// Counters maps counter names to their totals.
	Counters map[string]uint64 `json:"counters"`
	// Gauges maps gauge names to their levels.
	Gauges map[string]int64 `json:"gauges"`
	// Histograms maps histogram names to their exported state.
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Runtime carries the Go runtime's memory and GC state at snapshot
	// time. Omitted (nil) in snapshots produced before the field existed,
	// so older documents still parse.
	Runtime *RuntimeStats `json:"runtime,omitempty"`
}

// RuntimeStats is the process-level memory and GC view exported with every
// snapshot: what an external macro-benchmark needs to attribute latency to
// collector pauses and RSS to the heap, without scraping pprof. All values
// come from runtime.ReadMemStats.
type RuntimeStats struct {
	// HeapAllocBytes is the live heap (runtime.MemStats.HeapAlloc).
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// HeapSysBytes is the heap address space held from the OS.
	HeapSysBytes uint64 `json:"heap_sys_bytes"`
	// TotalAllocBytes is the cumulative bytes allocated since start.
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// GCPauseTotalMS is the cumulative stop-the-world pause time in
	// (fractional) milliseconds.
	GCPauseTotalMS float64 `json:"gc_pause_total_ms"`
	// GCCycles is the number of completed GC cycles.
	GCCycles uint32 `json:"gc_cycles"`
	// Goroutines is the live goroutine count.
	Goroutines int `json:"goroutines"`
}

// Counter returns the named counter total (0 when absent), a convenience
// for tests and callers cross-checking request counts.
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Snapshot exports every instrument. Safe to call while observations
// continue. Returns a zero Snapshot when r is nil.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	s.TakenAtMS = time.Now().UnixMilli()
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Load()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Load()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.Runtime = &RuntimeStats{
		HeapAllocBytes:  ms.HeapAlloc,
		HeapSysBytes:    ms.HeapSys,
		TotalAllocBytes: ms.TotalAlloc,
		GCPauseTotalMS:  float64(ms.PauseTotalNs) / 1e6,
		GCCycles:        ms.NumGC,
		Goroutines:      runtime.NumGoroutine(),
	}
	return s
}

// MarshalJSON renders the snapshot with deterministic key order (Go's
// encoding/json already sorts map keys; this simply delegates to a plain
// struct encode, present so the contract is explicit).
func (s Snapshot) marshal() ([]byte, error) {
	type alias Snapshot
	return json.MarshalIndent(alias(s), "", "  ")
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	buf, err := r.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// MarshalJSON returns the registry snapshot as indented JSON — the payload
// of the -stats-addr endpoint.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return r.Snapshot().marshal()
}

// ParseSnapshot decodes a snapshot previously produced by MarshalJSON /
// WriteJSON, such as a body the -stats-addr endpoint served.
func ParseSnapshot(buf []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Names returns the registered instrument names, sorted, for diagnostics.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for k := range r.counters {
		names = append(names, k)
	}
	for k := range r.gauges {
		names = append(names, k)
	}
	for k := range r.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
