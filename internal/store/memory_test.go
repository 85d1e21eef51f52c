package store

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"fuzzyid/internal/biometric"
	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sketch"
)

// probeID is the enrolled user a population's probe reads.
const probeID = "user-000000"

// population is a default store filled with n generated users, plus a
// genuine probe of user probeID.
type population struct {
	s         *Scan
	probe     *sketch.Sketch
	heapBytes float64 // live heap per record the store holds
}

// populate enrolls n users at the given dimension into a fresh default store
// and measures the store's live heap per record the way the benchmark's
// store probe does: HeapAlloc after runtime.GC(), over records that only the
// store can reach once inserted.
func populate(t *testing.T, dim, n int) *population {
	t.Helper()
	fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: dim})
	if err != nil {
		t.Fatal(err)
	}
	src, err := biometric.NewSource(fe.Line(), biometric.Paper(dim), int64(dim))
	if err != nil {
		t.Fatal(err)
	}
	first := src.NewUser(probeID)
	reading, err := src.GenuineReading(first)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := fe.SketchOnly(reading)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s := NewScan(fe.Line())
	for i := 0; i < n; i++ {
		x := first.Template
		if i > 0 {
			x = src.NewUser("").Template
		}
		_, helper, err := fe.Gen(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Insert(&Record{ID: fmt.Sprintf("user-%06d", i), PublicKey: make([]byte, 32), Helper: helper}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return &population{
		s:         s,
		probe:     probe,
		heapBytes: (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(n),
	}
}

// TestStoreHeapPerRecord gates the bytes a store holds per enrolled user. The
// packed residue row (2 B per coordinate at the paper's span) is the only
// copy of the movements, so at n = 5000 a record costs about 10 KB plus
// slice growth, against the 55 KB of a stored int64 movement vector beside
// the row.
func TestStoreHeapPerRecord(t *testing.T) {
	for _, c := range []struct {
		dim, n int
		max    float64
	}{
		{dim: 5000, n: 300, max: 16000},
		{dim: 64, n: 20000, max: 600},
	} {
		p := populate(t, c.dim, c.n)
		t.Logf("dim %d, %d records: %.0f B/record", c.dim, c.n, p.heapBytes)
		if p.heapBytes > c.max {
			t.Errorf("dim %d: %.0f B/record, want <= %.0f", c.dim, p.heapBytes, c.max)
		}
		runtime.KeepAlive(p.s)
	}
}

// TestStoreGrowthAllocatesLiveBytes gates what growing a store costs beyond
// what it keeps: inserting records allocates at most 1.25× the live heap
// they add, at n = 5000 and at dim 64. Each shard's residue matrix and its
// row metadata grow a chunk at a time and never copy a row; a flat matrix
// regrown by 1.5× allocates about 3× the rows it ends up holding, and at
// dim 64, where a row's metadata outweighs its residues, a metadata slice
// regrown by append allocates 2.3× the live heap at 40 000 records and
// 2.5× at 100 000. The records and
// their residues are built before the count starts and go straight to the
// table, so only the store's own allocations are measured (under -race,
// sync.Pool drops the puts of Insert's pooled residue buffer on purpose).
// The store has four shards, the default on up to four cores, so the gate
// does not move with the host: each shard's first chunks double up to
// their full size once, about 130 KB a shard at dim 64.
func TestStoreGrowthAllocatesLiveBytes(t *testing.T) {
	for _, c := range []struct{ dim, n int }{{dim: 5000, n: 400}, {dim: 64, n: 40000}} {
		t.Run(fmt.Sprintf("dim=%d", c.dim), func(t *testing.T) {
			storeGrowth(t, c.dim, c.n)
		})
	}
}

func storeGrowth(t *testing.T, dim, n int) {
	const helpers = 8
	fe, err := core.New(core.Params{Line: numberline.PaperParams(), Dimension: dim})
	if err != nil {
		t.Fatal(err)
	}
	src, err := biometric.NewSource(fe.Line(), biometric.Paper(dim), 7)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*Record, n)
	res := make([][]int64, helpers)
	for i := range recs {
		if i < helpers {
			_, helper, err := fe.Gen(src.NewUser("").Template)
			if err != nil {
				t.Fatal(err)
			}
			recs[i] = &Record{PublicKey: make([]byte, 32), Helper: helper}
			res[i] = residuesInto(nil, fe.Line(), helper.Sketch.Sketch)
		} else {
			recs[i] = &Record{PublicKey: recs[i%helpers].PublicKey, Helper: recs[i%helpers].Helper}
		}
		recs[i].ID = fmt.Sprintf("user-%06d", i)
	}
	s := NewScanShards(fe.Line(), 4)
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i, rec := range recs {
		if err := s.tab.insert(rec, res[i%helpers]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	allocated := float64(m1.TotalAlloc - m0.TotalAlloc)
	live := float64(m2.HeapAlloc) - float64(m0.HeapAlloc)
	t.Logf("dim %d, %d records: %.0f B/record allocated, %.0f B/record live (%.2fx)", dim, n, allocated/float64(n), live/float64(n), allocated/live)
	if allocated > 1.25*live {
		t.Errorf("inserting %d records allocated %.0f B for %.0f B live (%.2fx), want <= 1.25x", n, allocated, live, allocated/live)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(recs)
	runtime.KeepAlive(res)
}

// TestSteadyStateLookupsAllocateNothing gates the server's lookup path: an
// identify hit and a GetInto into a warm scratch record allocate nothing,
// at the paper's dimension and at dim 64.
func TestSteadyStateLookupsAllocateNothing(t *testing.T) {
	for _, dim := range []int{5000, 64} {
		p := populate(t, dim, 50)
		var scratch Record
		ctx := context.Background()
		identify := testing.AllocsPerRun(100, func() {
			if err := p.s.IdentifyInto(ctx, p.probe, &scratch); err != nil || scratch.ID != probeID {
				t.Fatalf("IdentifyInto = (%q, %v), want %q", scratch.ID, err, probeID)
			}
		})
		get := testing.AllocsPerRun(100, func() {
			if !p.s.GetInto(probeID, &scratch) {
				t.Fatalf("GetInto(%q) missed", probeID)
			}
		})
		if identify != 0 || get != 0 {
			t.Errorf("dim %d: IdentifyInto allocates %v per hit, GetInto %v; want 0", dim, identify, get)
		}
	}
}
