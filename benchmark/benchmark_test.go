package main

import (
	"os"
	"testing"
	"time"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]time.Duration{7, 3, 5}, 0.5); got != 5 {
		t.Errorf("median of 3 = %d, want the middle sample 5 (no interpolation, no buckets)", got)
	}
	if got := percentile([]time.Duration{7, 3, 5, 9}, 0.5); got != 5 {
		t.Errorf("median of 4 = %d, want the 2nd smallest 5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestSpanSelfTimeIsSessionMinusChildren(t *testing.T) {
	child := func(op int, name string, dur int64, bytes int) span {
		return span{Op: op, Class: "identify-genuine", Name: name, Parent: spanSession, DurNS: dur, Bytes: bytes}
	}
	spans := []span{
		child(1, spanWrite, 10, 4), child(1, spanWrite, 20, 100),
		child(1, spanReadWait, 300, 4), child(1, spanReadWait, 50, 200),
		child(1, spanExtract, 30, 0), child(1, spanDerive, 40, 0), child(1, spanSign, 50, 0),
		child(1, spanWrite, 15, 68), child(1, spanReadWait, 200, 20),
		{Op: 1, Class: "identify-genuine", Name: spanSession, DurNS: 1000},
		child(3, spanWrite, 5, 10), child(3, spanReadWait, 70, 12),
		{Op: 3, Class: "identify-ghost", Name: spanSession, DurNS: 100},
	}
	got := summarize(spans)
	if len(got) != 2 {
		t.Fatalf("summarize returned %d ops, want 2", len(got))
	}
	a := got[0]
	if a.class != "identify-genuine" || a.session != 1000 {
		t.Errorf("op 1: class %q session %d", a.class, a.session)
	}
	if a.child[spanWrite] != 45 || a.child[spanReadWait] != 550 {
		t.Errorf("op 1: write %d read_wait %d, want 45 and 550", a.child[spanWrite], a.child[spanReadWait])
	}
	if want := time.Duration(1000 - 45 - 550 - 30 - 40 - 50); a.self != want {
		t.Errorf("op 1: self %d, want session minus children = %d", a.self, want)
	}
	if a.bytesOut != 172 || a.bytesIn != 224 || a.roundTrips != 2 {
		t.Errorf("op 1: out %d in %d round trips %d, want 172, 224, 2", a.bytesOut, a.bytesIn, a.roundTrips)
	}
	if b := got[1]; b.self != 25 || b.roundTrips != 1 || b.class != "identify-ghost" {
		t.Errorf("op 3: self %d round trips %d class %q, want 25, 1, identify-ghost", b.self, b.roundTrips, b.class)
	}
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	w, _ := workloadByName("lifecycle-mixed")
	w = w.scaled(10)
	a, b, c := buildSequence(w, 7, 2, 2000), buildSequence(w, 7, 2, 2000), buildSequence(w, 8, 2, 2000)
	if a.sha256 != b.sha256 {
		t.Errorf("same seed, different ops_sha256: %s vs %s", a.sha256, b.sha256)
	}
	if a.sha256 == c.sha256 {
		t.Errorf("seeds 7 and 8 gave the same ops_sha256 %s", a.sha256)
	}
	if a.total() != 2000 {
		t.Errorf("sequence has %d ops, want 2000", a.total())
	}
	// The mix is exact, users never cross workers, and a stale probe always
	// names a version a re-enroll has already replaced.
	count := map[opKind]int{}
	for wi, ops := range a.workers {
		version := map[uint32]uint16{}
		for _, o := range ops {
			count[o.kind]++
			if o.kind != opGhost && int(o.user)%2 != wi {
				t.Fatalf("worker %d touches user %d of the other worker", wi, o.user)
			}
			switch o.kind {
			case opGenuine:
				if o.version != version[o.user] {
					t.Fatalf("genuine reading of user %d drawn from version %d, current is %d", o.user, o.version, version[o.user])
				}
			case opStale:
				if o.version >= version[o.user] {
					t.Fatalf("stale reading of user %d drawn from live version %d", o.user, o.version)
				}
			case opReEnroll:
				version[o.user]++
			}
		}
	}
	if count[opEnroll] != 400 || count[opReEnroll] != 200 || count[opGhost]+count[opStale] != 200 || count[opGenuine] != 1200 {
		t.Errorf("mix %v, want 1200 genuine, 200 ghost+stale, 400 enroll, 200 re-enroll", count)
	}
	if count[opStale] == 0 {
		t.Error("no stale probe in a workload that re-enrolls")
	}
}

func TestServerHistogramWindowMedian(t *testing.T) {
	hist := func(count uint64, buckets ...[2]uint64) statsHist {
		h := statsHist{Count: count}
		for _, b := range buckets {
			h.Buckets = append(h.Buckets, struct {
				UpperUS int64  `json:"le_us"`
				Count   uint64 `json:"count"`
			}{int64(b[0]), b[1]})
		}
		return h
	}
	before := &statsDoc{Histograms: map[string]statsHist{"h": hist(100, [2]uint64{1024, 100})}}
	after := &statsDoc{Histograms: map[string]statsHist{"h": hist(300, [2]uint64{1024, 200}, [2]uint64{2048, 100})}}
	w := histBetween(before, after, "h")
	if w.count != 200 {
		t.Fatalf("window holds %d observations, want the 200 made inside it", w.count)
	}
	// 100 in [512,1024) and 100 in [1024,2048): the median is the boundary.
	if got := w.p50(); got != 1024 {
		t.Errorf("window p50 = %v µs, want 1024", got)
	}
}

// TestSmoke runs the whole set at 1/100 scale against an in-process server:
// every reply must match the oracle, and the harness must emit exactly the
// workloads and metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil { // BENCHMARK.json and the build directory live at the root
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	h, err := newHarness(1, 10, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	if err := h.smoke(); err != nil {
		t.Fatal(err)
	}
}
