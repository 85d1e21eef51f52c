package store

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"fuzzyid/internal/core"
	"fuzzyid/internal/numberline"
	"fuzzyid/internal/sketch"
)

// tenantTestRecord builds a minimal valid record without the extractor.
func tenantTestRecord(id string, coord int64) *Record {
	return &Record{
		ID:        id,
		PublicKey: []byte("pk-" + id),
		Helper: &core.HelperData{
			Sketch: &sketch.RobustSketch{
				Sketch: &sketch.Sketch{Movements: []int64{coord, coord + 1, coord + 2}},
				Digest: [32]byte{1},
			},
			Seed: []byte("seed"),
		},
	}
}

// plainFactory builds journal-less in-memory tenants for registry tests.
func plainFactory(line *numberline.Line) TenantFactory {
	return func(name string) (*Journaled, func() error, error) {
		return NewJournaledTenant(NewScan(line), nil, nil, name), nil, nil
	}
}

func testLine(t *testing.T) *numberline.Line {
	t.Helper()
	line, err := numberline.New(numberline.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	return line
}

func TestTenantNameValidation(t *testing.T) {
	valid := []string{"", "default", "a", "my-app", "Tenant_2", "eu.west-1", strings.Repeat("x", MaxTenantNameLen)}
	for _, name := range valid {
		if err := ValidateTenantName(name); err != nil {
			t.Errorf("ValidateTenantName(%q) = %v, want nil", name, err)
		}
	}
	invalid := []string{".", "..", "-lead", ".hidden", "_x", "has space", "slash/y", "a\x00b", strings.Repeat("x", MaxTenantNameLen+1)}
	for _, name := range invalid {
		if err := ValidateTenantName(name); !errors.Is(err, ErrBadTenantName) {
			t.Errorf("ValidateTenantName(%q) = %v, want ErrBadTenantName", name, err)
		}
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r, err := NewTenantRegistry(plainFactory(testLine(t)))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); len(got) != 1 || got[0] != DefaultTenant {
		t.Fatalf("fresh registry names = %v", got)
	}
	if _, err := r.Tenant(""); err != nil {
		t.Fatalf("empty name must resolve the default tenant: %v", err)
	}
	if _, err := r.Tenant("nope"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant error = %v", err)
	}
	if err := r.Create("acme"); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("acme"); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate create = %v", err)
	}
	if err := r.Create("bad name"); !errors.Is(err, ErrBadTenantName) {
		t.Fatalf("invalid create = %v", err)
	}
	if err := r.Drop(DefaultTenant); !errors.Is(err, ErrBadTenantName) {
		t.Fatalf("dropping default = %v", err)
	}
	st, err := r.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Insert(tenantTestRecord("u", 10)); err != nil {
		t.Fatal(err)
	}
	if r.Enrolled() != 1 {
		t.Fatalf("Enrolled = %d", r.Enrolled())
	}
	if err := r.Drop("acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Tenant("acme"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("dropped tenant still resolves: %v", err)
	}
	if err := r.Drop("acme"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("double drop = %v", err)
	}
	if r.Enrolled() != 0 {
		t.Fatalf("Enrolled after drop = %d", r.Enrolled())
	}
}

// TestRegistryApplyRoutes drives the follower write path: tenant-qualified
// mutations materialise their namespace on demand, deletes against unknown
// tenants fail, and tenant ops adjust the registry.
func TestRegistryApplyRoutes(t *testing.T) {
	r, err := NewTenantRegistry(plainFactory(testLine(t)))
	if err != nil {
		t.Fatal(err)
	}
	ins := InsertMutation(tenantTestRecord("u1", 5))
	ins.Tenant = "auto"
	if err := r.Apply(ins); err != nil {
		t.Fatal(err)
	}
	st, err := r.Tenant("auto")
	if err != nil {
		t.Fatalf("insert did not materialise its tenant: %v", err)
	}
	if _, ok := st.Get("u1"); !ok {
		t.Fatal("routed insert missing")
	}
	// Default-tenant mutations (empty tenant) land in the default store.
	if err := r.Apply(InsertMutation(tenantTestRecord("u2", 50))); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Default().Get("u2"); !ok {
		t.Fatal("default-tenant insert missing")
	}
	del := DeleteMutation("ghost")
	del.Tenant = "never-created"
	if err := r.Apply(del); err == nil {
		t.Fatal("delete against an unknown tenant must fail")
	}
	if err := r.Apply(Mutation{Op: OpTenantCreate, Tenant: "made"}); err != nil {
		t.Fatal(err)
	}
	if !r.Has("made") {
		t.Fatal("create op did not materialise the tenant")
	}
	if err := r.Apply(Mutation{Op: OpTenantDrop, Tenant: "made"}); err != nil {
		t.Fatal(err)
	}
	if r.Has("made") {
		t.Fatal("drop op did not remove the tenant")
	}
	// Drops are idempotent on the apply path (a follower may replay one).
	if err := r.Apply(Mutation{Op: OpTenantDrop, Tenant: "made"}); err != nil {
		t.Fatalf("re-applied drop = %v", err)
	}
}

// TestRegistryShipAdminOps checks create/drop append their registry-level
// mutations to the bound journal, after the tenant's own mutations.
func TestRegistryShipAdminOps(t *testing.T) {
	r, err := NewTenantRegistry(plainFactory(testLine(t)))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var log []Mutation
	r.ShipAdminOps(journalFunc(func(m Mutation) error {
		mu.Lock()
		defer mu.Unlock()
		log = append(log, m)
		return nil
	}))
	if err := r.Create("ship"); err != nil {
		t.Fatal(err)
	}
	if err := r.Drop("ship"); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0].Op != OpTenantCreate || log[1].Op != OpTenantDrop ||
		log[0].Tenant != "ship" || log[1].Tenant != "ship" {
		t.Fatalf("shipped ops = %+v", log)
	}
}

// journalFunc adapts a function to the Journal interface.
type journalFunc func(Mutation) error

func (f journalFunc) Begin(m Mutation) (Commit, error) { return nil, f(m) }

// TestDroppedTenantStoreIsFenced pins the drop fence: a session that
// resolved a journaled tenant store before Drop must not be able to
// journal a mutation after it — on a replicating primary that late append
// would resurrect the tenant on followers.
func TestDroppedTenantStoreIsFenced(t *testing.T) {
	line := testLine(t)
	var shipped []Mutation
	hub := journalFunc(func(m Mutation) error { shipped = append(shipped, m); return nil })
	factory := func(name string) (*Journaled, func() error, error) {
		return NewJournaledTenant(NewScan(line), hub, nil, name), nil, nil
	}
	r, err := NewTenantRegistry(factory)
	if err != nil {
		t.Fatal(err)
	}
	r.ShipAdminOps(hub)
	if err := r.Create("doomed"); err != nil {
		t.Fatal(err)
	}
	st, err := r.Tenant("doomed") // session resolves the store...
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Drop("doomed"); err != nil { // ...then the tenant is dropped
		t.Fatal(err)
	}
	if err := st.Insert(tenantTestRecord("late", 3)); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("insert into dropped tenant's detached store = %v, want ErrUnknownTenant", err)
	}
	if err := st.Delete("late"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("delete on dropped tenant's detached store = %v, want ErrUnknownTenant", err)
	}
	// Nothing may have shipped after the drop op.
	if last := shipped[len(shipped)-1]; last.Op != OpTenantDrop {
		t.Fatalf("journal tail after late mutations = %+v, want the drop op last", last)
	}
}

// TestDroppedInMemoryTenantIsFenced pins the drop fence for tenants with
// no journal at all (an in-memory system, follower or cluster node): a
// store handle resolved before Drop refuses mutations after it, exactly as
// a journaled tenant's does.
func TestDroppedInMemoryTenantIsFenced(t *testing.T) {
	r, err := NewTenantRegistry(plainFactory(testLine(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Create("doomed"); err != nil {
		t.Fatal(err)
	}
	st, err := r.Tenant("doomed")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Drop("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert(tenantTestRecord("late", 3)); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("insert into dropped in-memory tenant's detached store = %v, want ErrUnknownTenant", err)
	}
}

// TestInMemoryTenantTracksNoDirtyBuckets pins that snapshot dirty tracking
// is armed only when a snapshot will read it: a journal-less tenant takes
// any number of mutations without holding a dirty set, and SeedDirty or a
// snapshot cut arms tracking from then on.
func TestInMemoryTenantTracksNoDirtyBuckets(t *testing.T) {
	r, err := NewTenantRegistry(plainFactory(testLine(t)))
	if err != nil {
		t.Fatal(err)
	}
	db := r.Default()
	const n = 500
	for i := 0; i < n; i++ {
		if err := db.Insert(tenantTestRecord(fmt.Sprintf("u%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 2 {
		if err := db.Replace(tenantTestRecord(fmt.Sprintf("u%d", i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if err := db.Delete(fmt.Sprintf("u%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if db.dirty != nil {
		t.Fatalf("journal-less tenant holds %d dirty buckets after %d mutations", len(db.dirty), 2*n)
	}
	if err := db.Snapshot(&memJournal{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("u0"); err != nil {
		t.Fatal(err)
	}
	if len(db.dirty) != 1 {
		t.Fatalf("after a snapshot cut, a mutation left %d dirty buckets, want 1", len(db.dirty))
	}
}

// TestRegistryReset drops everything, including the default tenant's
// records, and leaves a working empty default — the follower bootstrap
// clear.
func TestRegistryReset(t *testing.T) {
	r, err := NewTenantRegistry(plainFactory(testLine(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Create("x"); err != nil {
		t.Fatal(err)
	}
	if err := r.Default().Insert(tenantTestRecord("d", 7)); err != nil {
		t.Fatal(err)
	}
	if err := r.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); len(got) != 1 || got[0] != DefaultTenant {
		t.Fatalf("names after reset = %v", got)
	}
	if r.Enrolled() != 0 {
		t.Fatalf("Enrolled after reset = %d", r.Enrolled())
	}
	if err := r.Default().Insert(tenantTestRecord("d", 7)); err != nil {
		t.Fatalf("default store unusable after reset: %v", err)
	}
}

// TestRegistryViewConsistentCut takes a multi-tenant cut of journaled
// stores while concurrent mutators run; every observed cut must be
// internally consistent with the journal count the cut observed.
func TestRegistryViewConsistentCut(t *testing.T) {
	line := testLine(t)
	// Per-tenant journal-append counters; each is written under its
	// tenant's mutation lock and read only inside View (all locks held).
	counts := map[string]*int{}
	factory := func(name string) (*Journaled, func() error, error) {
		n := new(int)
		counts[name] = n
		j := journalFunc(func(m Mutation) error { *n++; return nil })
		return NewJournaledTenant(NewScan(line), j, nil, name), nil, nil
	}
	r, err := NewTenantRegistry(factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Create("v-a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("v-b"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, tenant := range []string{"v-a", "v-b"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			st, _ := r.Tenant(tenant)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := st.Insert(tenantTestRecord(fmt.Sprintf("%s-%d", tenant, i), int64(i*10))); err != nil {
					t.Error(err)
					return
				}
			}
		}(tenant)
	}
	for i := 0; i < 20; i++ {
		r.View(func(cut []TenantView) {
			// Under every tenant's mutation lock, the record counts must
			// equal the journal-append counts exactly: no mutation is in
			// flight.
			total := 0
			for _, tv := range cut {
				total += len(tv.Records)
			}
			journaled := 0
			for _, n := range counts {
				journaled += *n
			}
			if total != journaled {
				t.Errorf("cut saw %d records with %d journaled mutations", total, journaled)
			}
		})
	}
	close(stop)
	wg.Wait()
}
