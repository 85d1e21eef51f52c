package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's whole vocabulary: BENCHMARK.json must list exactly these
// (the harness test checks both directions).
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"ops_s", "ops/s"},
	{"identify_p50_ms", "ms"},
	{"identify_p95_ms", "ms"},
	{"enroll_p50_ms", "ms"},
	{"enroll_p95_ms", "ms"},
	{"server_rss_mb", "MB"},
}

// reportOnlyDefs are end-to-end figures the full report prints beside the
// contract's metrics. They cannot be contract metrics: failed_share is 0 by
// design (the contract carries it as failed/attempted) and
// disk_bytes_per_user exists only on the durable workloads.
var reportOnlyDefs = []metricDef{
	{"failed_share", "ratio"},
	{"disk_bytes_per_user", "B"},
}

// fullReportDefs is what the whole-set report prints under "end to end".
var fullReportDefs = append(slices.Clone(endToEndDefs), reportOnlyDefs...)

var perLayerDefs = []metricDef{
	{"core.gen_us", "us"}, {"core.rep_us", "us"}, {"core.sketch_us", "us"},
	{"core.gen_alloc_kb", "KB"}, {"core.rep_alloc_kb", "KB"},
	{"extract.extract_us", "us"},
	{"sigscheme.derive_us", "us"}, {"sigscheme.sign_us", "us"}, {"sigscheme.verify_us", "us"},
	{"wire.challenge_codec_us", "us"}, {"wire.challenge_alloc_kb", "KB"},
	{"wire.identify_req_codec_us", "us"}, {"wire.enroll_codec_us", "us"},
	{"wire.bytes_per_identify", "B"}, {"wire.bytes_per_enroll", "B"},
	{"transport.read_wait_us", "us"}, {"transport.write_us", "us"}, {"transport.round_trips_per_identify", "count"},
	{"protocol.device_self_us", "us"}, {"protocol.server_identify_p50_us", "us"}, {"protocol.server_enroll_p50_us", "us"},
	{"protocol.server_unattributed_us", "us"}, {"protocol.reenroll_p50_ms", "ms"},
	{"qos.admit_us", "us"}, {"qos.scan_wait_p50_us", "us"}, {"qos.shed_share", "ratio"},
	{"store.identify_hit_us", "us"}, {"store.identify_miss_us", "us"}, {"store.insert_us", "us"},
	{"store.replace_us", "us"}, {"store.heap_bytes_per_record", "B"},
	{"persist.append_us", "us"}, {"persist.appends_per_fsync", "count"}, {"persist.fsync_p50_us", "us"},
	{"persist.wal_bytes_per_enroll", "B"}, {"persist.recover_s", "s"}, {"persist.recover_records_s", "1/s"},
	{"persist.disk_bytes_per_user", "B"},
	{"server.cpu_ms_per_op", "ms"}, {"server.gc_pause_ms", "ms"}, {"server.gc_cycles", "count"},
	{"device.cpu_ms_per_op", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// metric is one reported value. N is the sample behind it (ops, calls or
// scrapes), printed but not part of the driver's result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

type metrics map[string]metric

// fill adds every def missing from m as 0: the layer is not on this
// workload's path (no WAL in memory, no re-enroll in the mix).
func (m metrics) fill(defs []metricDef) {
	for _, d := range defs {
		v := m[d.name]
		v.Unit = d.unit
		m[d.name] = v
	}
}

func (m metrics) set(name string, value float64, n int) { m[name] = metric{Value: value, N: n} }

func identifyLat(lat *[numKinds][]time.Duration) []time.Duration {
	all := append([]time.Duration(nil), lat[opGenuine]...)
	all = append(all, lat[opGhost]...)
	return append(all, lat[opStale]...)
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(r *runResult) metrics {
	m := metrics{}
	id, en := identifyLat(&r.lat), r.lat[opEnroll]
	m.set("setup_s", median(r.setupS), len(r.setupS))
	m.set("ops_s", float64(r.correct())/r.wall.Seconds(), r.correct())
	m.set("identify_p50_ms", ms(percentile(id, 0.50)), len(id))
	m.set("identify_p95_ms", ms(percentile(id, 0.95)), len(id))
	m.set("enroll_p50_ms", ms(percentile(en, 0.50)), len(en))
	m.set("enroll_p95_ms", ms(percentile(en, 0.95)), len(en))
	m.set("server_rss_mb", r.serverPeakMB, 1)
	m.set("failed_share", float64(r.failed)/float64(r.attempted), r.attempted)
	if r.liveRecords > 0 {
		m.set("disk_bytes_per_user", float64(r.diskBytes)/float64(r.liveRecords), r.liveRecords)
	}
	m.fill(endToEndDefs)
	m.fill(reportOnlyDefs)
	return m
}

// correct counts the ops whose reply matched the oracle.
func (r *runResult) correct() int {
	n := 0
	for k := range r.lat {
		n += len(r.lat[k]) + len(r.latTr[k])
	}
	return n
}

// classStat is the typical traced op of one class: the mean of each
// component over the ops whose session time lies in the 40th–60th percentile
// band. Medians taken column by column would not add up (the slow write and
// the slow read are rarely the same op); means over the middle band do, so
// the stage table's rows sum to the typical session.
type classStat struct {
	n          int // traced ops of the class
	session    time.Duration
	child      map[string]time.Duration
	self       time.Duration
	bytes      int
	roundTrips int
}

func classStats(r *runResult) map[string]classStat {
	by := map[string][]opSummary{}
	for _, spans := range r.spans {
		for _, s := range summarize(spans) {
			by[s.class] = append(by[s.class], s)
		}
	}
	out := map[string]classStat{}
	for class, ops := range by {
		sort.Slice(ops, func(i, j int) bool { return ops[i].session < ops[j].session })
		band := ops[len(ops)*2/5 : max(len(ops)*3/5, len(ops)*2/5+1)]
		cs := classStat{n: len(ops), child: map[string]time.Duration{}}
		for _, o := range band {
			cs.session += o.session
			cs.self += o.self
			for name, d := range o.child {
				cs.child[name] += d
			}
			cs.bytes += o.bytesOut + o.bytesIn
			cs.roundTrips += o.roundTrips
		}
		k := time.Duration(len(band))
		cs.session, cs.self = cs.session/k, cs.self/k
		for name := range cs.child {
			cs.child[name] /= k
		}
		cs.bytes, cs.roundTrips = cs.bytes/len(band), cs.roundTrips/len(band)
		out[class] = cs
	}
	return out
}

// layerReport derives a traced run's per-layer metrics and its stage tables
// from the run's spans and the replay probes.
func layerReport(r *runResult, p *probeSet) (metrics, []stageTable) {
	cs := classStats(r)
	return perLayer(r, p, cs), stageTables(r, p, cs)
}

func perLayer(r *runResult, p *probeSet, cs map[string]classStat) metrics {
	m := metrics{}
	for name, v := range p.value {
		m.set(name, v, p.calls[name])
	}
	g := cs[kindNames[opGenuine]]
	m.set("extract.extract_us", us(g.child[spanExtract]), g.n)
	m.set("sigscheme.derive_us", us(g.child[spanDerive]), g.n)
	m.set("sigscheme.sign_us", us(g.child[spanSign]), g.n)
	m.set("transport.read_wait_us", us(g.child[spanReadWait]), g.n)
	m.set("transport.write_us", us(g.child[spanWrite]), g.n)
	m.set("transport.round_trips_per_identify", float64(g.roundTrips), g.n)
	m.set("protocol.device_self_us", us(g.self), g.n)
	m.set("wire.bytes_per_identify", float64(g.bytes), g.n)
	e := cs[kindNames[opEnroll]]
	m.set("wire.bytes_per_enroll", float64(e.bytes), e.n)

	re := append(append([]time.Duration(nil), r.lat[opReEnroll]...), r.latTr[opReEnroll]...)
	m.set("protocol.reenroll_p50_ms", ms(percentile(re, 0.5)), len(re))
	plain, traced := identifyLat(&r.lat), identifyLat(&r.latTr)
	if p50 := percentile(plain, 0.5); p50 > 0 {
		m.set("trace.overhead_ratio", float64(percentile(traced, 0.5))/float64(p50), len(traced))
	}

	ops := r.correct()
	hist := func(metricName, statName string) {
		w := histBetween(r.before, r.after, statName)
		m.set(metricName, w.p50(), int(w.count))
	}
	hist("protocol.server_identify_p50_us", "protocol.identify.latency")
	hist("protocol.server_enroll_p50_us", "protocol.enroll.latency")
	hist("qos.scan_wait_p50_us", "qos.scan.wait")
	hist("persist.fsync_p50_us", "persist.wal.fsync_latency")
	delta := func(name string) float64 { return float64(r.after.Counters[name] - r.before.Counters[name]) }
	if ops > 0 {
		m.set("qos.shed_share", delta("tenant.default.shed")/float64(ops), ops)
		m.set("server.cpu_ms_per_op", ms(r.serverCPU)/float64(ops), ops)
		m.set("device.cpu_ms_per_op", ms(r.deviceCPU)/float64(ops), ops)
	}
	if appends := delta("persist.wal.appends"); appends > 0 {
		m.set("persist.wal_bytes_per_enroll", delta("persist.wal.append_bytes")/appends, int(appends))
		if fsyncs := delta("persist.wal.fsyncs"); fsyncs > 0 {
			m.set("persist.appends_per_fsync", appends/fsyncs, int(fsyncs))
		}
	}
	m.set("server.gc_pause_ms", r.after.Runtime.GCPauseTotalMS-r.before.Runtime.GCPauseTotalMS, 1)
	m.set("server.gc_cycles", float64(r.after.Runtime.GCCycles-r.before.Runtime.GCCycles), 1)
	if r.liveRecords > 0 {
		m.set("persist.recover_s", r.recover.Seconds(), 1)
		m.set("persist.recover_records_s", float64(r.recovered)/r.recover.Seconds(), r.recovered)
		m.set("persist.disk_bytes_per_user", float64(r.diskBytes)/float64(r.liveRecords), r.liveRecords)
	}
	unattributed := us(g.child[spanReadWait])
	for _, stage := range serverStages(opGenuine, r.cfg.wl.durable, p) {
		unattributed -= stage.US
	}
	m.set("protocol.server_unattributed_us", unattributed, g.n)

	for name := range m { // the codec halves feed the stage table only
		if strings.HasSuffix(name, ".encode") || strings.HasSuffix(name, ".decode") {
			delete(m, name)
		}
	}
	m.fill(perLayerDefs)
	return m
}

// stageRow is one row of a "where the time goes" table. Top-level rows are
// the traced spans of the typical op and tile its session exactly; rows with
// Under set split the row they name into replayed stages and a remainder, and
// are not summed again.
type stageRow struct {
	Stage string  `json:"stage"`
	Under string  `json:"under,omitempty"`
	Src   string  `json:"src"` // T traced in place, R replay probe, T-R remainder
	US    float64 `json:"us"`
}

// stageTable accounts for one op class. The device's self time and the read
// wait (the server's whole share, as the device sees it) are each split into
// the stages the replay probes can name and what they cannot: the
// unattributed remainders are what in-program tracing must later explain.
type stageTable struct {
	Class       string     `json:"class"`
	Rows        []stageRow `json:"rows"`
	SumUS       float64    `json:"sum_us"`
	UntracedP50 float64    `json:"untraced_p50_us"`
	Coverage    float64    `json:"coverage"`
}

const (
	rowDeviceSelf = "device self"
	rowUnexplDev  = "device unattributed"
	rowUnexplSrv  = "server unattributed"
)

// serverStages lists the replayed server-side stages of one op class, the
// split of its read wait.
func serverStages(kind opKind, durable bool, p *probeSet) []stageRow {
	r := func(stage, metric string) stageRow { return stageRow{Stage: stage, Src: "R", US: p.value[metric]} }
	switch kind {
	case opGenuine:
		return []stageRow{r("wire.identify_req.decode", "wire.identify_req.decode"), r("qos.admit", "qos.admit_us"),
			r("store.identify_hit", "store.identify_hit_us"), r("wire.challenge.encode", "wire.challenge.encode"),
			r("sigscheme.verify", "sigscheme.verify_us")}
	case opGhost:
		return []stageRow{r("wire.identify_req.decode", "wire.identify_req.decode"), r("qos.admit", "qos.admit_us"),
			r("store.identify_miss", "store.identify_miss_us")}
	default: // opEnroll
		rows := []stageRow{r("wire.enroll.decode", "wire.enroll.decode"), r("qos.admit", "qos.admit_us"),
			r("store.insert", "store.insert_us")}
		if durable {
			rows = append(rows, r("persist.append", "persist.append_us"))
		}
		return rows
	}
}

// deviceStages lists the replayed device-side stages of one op class, the
// split of its self time. Gen and Rep are taken less the extractor, which has
// a traced span of its own.
func deviceStages(kind opKind, c classStat, p *probeSet) []stageRow {
	r := func(stage string, v float64) stageRow { return stageRow{Stage: stage, Src: "R", US: v} }
	extract := us(c.child[spanExtract])
	switch kind {
	case opGenuine:
		return []stageRow{r("core.sketch", p.value["core.sketch_us"]), r("wire.identify_req.encode", p.value["wire.identify_req.encode"]),
			r("wire.challenge.decode", p.value["wire.challenge.decode"]), r("core.rep less extract", max(p.value["core.rep_us"]-extract, 0))}
	case opGhost:
		return []stageRow{r("core.sketch", p.value["core.sketch_us"]), r("wire.identify_req.encode", p.value["wire.identify_req.encode"])}
	default: // opEnroll
		return []stageRow{r("core.gen less extract", max(p.value["core.gen_us"]-extract, 0)), r("wire.enroll.encode", p.value["wire.enroll.encode"])}
	}
}

func stageTables(r *runResult, p *probeSet, cs map[string]classStat) []stageTable {
	var out []stageTable
	for _, kind := range []opKind{opGenuine, opGhost, opEnroll} {
		c, ok := cs[kindNames[kind]]
		if !ok || len(r.lat[kind]) == 0 {
			continue
		}
		t := stageTable{Class: kindNames[kind], UntracedP50: us(percentile(r.lat[kind], 0.5))}
		top := func(stage string, v float64, parts []stageRow, rest string) {
			t.Rows = append(t.Rows, stageRow{Stage: stage, Src: "T", US: v})
			t.SumUS += v
			for _, part := range parts {
				part.Under = stage
				t.Rows = append(t.Rows, part)
				v -= part.US
			}
			if rest != "" {
				t.Rows = append(t.Rows, stageRow{Stage: rest, Under: stage, Src: "T-R", US: v})
			}
		}
		top(rowDeviceSelf, us(c.self), deviceStages(kind, c, p), rowUnexplDev)
		for _, name := range []string{spanExtract, spanDerive, spanSign, spanWrite} {
			if c.child[name] > 0 {
				top(name, us(c.child[name]), nil, "")
			}
		}
		top(spanReadWait, us(c.child[spanReadWait]), serverStages(kind, r.cfg.wl.durable, p), rowUnexplSrv)
		t.Coverage = t.SumUS / t.UntracedP50
		out = append(out, t)
	}
	return out
}

func printStageTables(w io.Writer, wl string, tables []stageTable) {
	for _, t := range tables {
		fmt.Fprintf(w, "\nwhere the time goes: %s / %s (µs, the typical traced op)\n", wl, t.Class)
		for _, row := range t.Rows {
			indent := ""
			if row.Under != "" {
				indent = "    "
			}
			fmt.Fprintf(w, "  %-34s %-4s %10.1f\n", indent+row.Stage, row.Src, row.US)
		}
		fmt.Fprintf(w, "  %-34s %-4s %10.1f  = %.0f%% of untraced p50 %.1f\n", "sum of stages", "", t.SumUS, t.Coverage*100, t.UntracedP50)
	}
}

func printMetrics(w io.Writer, title string, m metrics, defs []metricDef) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		v := m[d.name]
		fmt.Fprintf(w, "  %-38s %14.4f %-6s n=%d\n", d.name, v.Value, d.unit, v.N)
	}
}

// latencyDetail prints p99, max and the sample count beside each latency.
// They are shown, not gated: on two shared cores they move tens of percent
// between identical runs.
func latencyDetail(w io.Writer, r *runResult) {
	for _, row := range []struct {
		name string
		lat  []time.Duration
	}{{"identify", identifyLat(&r.lat)}, {"enroll", r.lat[opEnroll]}, {"re-enroll", r.lat[opReEnroll]}} {
		if len(row.lat) > 0 {
			fmt.Fprintf(w, "  %-10s p99 %.3f ms  max %.3f ms  n=%d\n", row.name, ms(percentile(row.lat, 0.99)), ms(percentile(row.lat, 1)), len(row.lat))
		}
	}
}

// environment records where a report was measured.
type environment struct {
	Commit           string  `json:"commit"`
	GoVersion        string  `json:"go_version"`
	NProc            int     `json:"nproc"`
	HarnessMaxProcs  int     `json:"harness_gomaxprocs"`
	ServerMaxProcs   int     `json:"server_gomaxprocs"`
	CPUModel         string  `json:"cpu_model"`
	Kernel           string  `json:"kernel"`
	DataDirFS        string  `json:"data_dir_fs"`
	LoadAvg1         float64 `json:"loadavg_1m"`
	Noisy            bool    `json:"noisy"`
	Workers          int     `json:"workers"`
	Seconds          int     `json:"seconds"`
	Seed             int64   `json:"seed"`
	SetupRepeats     int     `json:"setup_repeats"`
	TracedShareOfOps string  `json:"traced_share_of_ops"`
}

func readEnvironment(scratch string) environment {
	e := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		HarnessMaxProcs: runtime.GOMAXPROCS(0), ServerMaxProcs: runtime.GOMAXPROCS(0),
		SetupRepeats: setupRepeats, TracedShareOfOps: fmt.Sprintf("1/%d", tracedShare),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if buf, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(buf))
	}
	if buf, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(buf), &e.LoadAvg1)
	}
	e.Noisy = e.LoadAvg1 > 0.5*float64(e.NProc)
	e.DataDirFS = fsType(scratch)
	return e
}

// fsType names the filesystem holding dir: the type of the longest mount
// point in /proc/mounts that prefixes it.
func fsType(dir string) string {
	abs, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	if !strings.HasPrefix(dir, "/") {
		dir = abs + "/" + dir
	}
	buf, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(buf), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}
