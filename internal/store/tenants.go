package store

// This file adds multi-tenant namespaces on top of the store layer: a
// Registry owns one independent Store per named tenant, each behind its own
// journal seam, so a single server process can host many isolated
// identification populations (per-app enrollments, per-region databases,
// staging vs. prod). Records, lookups, revocations and journals never cross
// a tenant boundary; the only shared pieces are the process, the fsync
// policy and — when replication is on — the hub's global offset counter.
//
// The registry is deliberately thin: it does not know about persistence or
// replication. A TenantFactory (supplied by the facade) builds each
// tenant's backing store — typically a Journaled wrapper over a WAL plus
// the replication hub — and the registry handles naming, lifecycle,
// routing, and the consistent multi-tenant cut replication snapshots need.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// DefaultTenant is the canonical name of the namespace that exists in every
// registry and that pre-tenant deployments' data maps onto.
const DefaultTenant = "default"

// MaxTenantNameLen bounds tenant names (matched by wire.MaxTenantLen).
const MaxTenantNameLen = 64

// Errors returned by the tenant registry.
var (
	// ErrUnknownTenant reports an operation against a tenant the registry
	// does not host (never created, or dropped).
	ErrUnknownTenant = errors.New("store: unknown tenant")
	// ErrTenantExists reports a create for a name already hosted.
	ErrTenantExists = errors.New("store: tenant already exists")
	// ErrBadTenantName reports a syntactically invalid tenant name.
	ErrBadTenantName = errors.New("store: invalid tenant name")
)

// CanonicalTenant maps the empty name (the wire encoding of "no tenant
// given") to DefaultTenant and returns every other name unchanged.
func CanonicalTenant(name string) string {
	if name == "" {
		return DefaultTenant
	}
	return name
}

// ValidateTenantName rejects names that could not serve as registry keys
// and partition directory names: the canonical form must be 1 to
// MaxTenantNameLen characters, start with a letter or digit, and contain
// only letters, digits, '.', '_' and '-'. The empty string is valid (it is
// the default tenant).
func ValidateTenantName(name string) error {
	name = CanonicalTenant(name)
	if len(name) > MaxTenantNameLen {
		return fmt.Errorf("%w: %d characters (max %d)", ErrBadTenantName, len(name), MaxTenantNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if alnum || (i > 0 && (c == '.' || c == '_' || c == '-')) {
			continue
		}
		return fmt.Errorf("%w: %q", ErrBadTenantName, name)
	}
	return nil
}

// TenantView is one tenant's slice of a consistent multi-tenant cut (see
// Registry.View).
type TenantView struct {
	// Tenant is the canonical tenant name.
	Tenant string
	// Records is the tenant's full record set.
	Records []*Record
}

// TenantFactory builds the backing store for a named tenant: the in-memory
// store, optionally wrapped behind the journal seam (WAL, replication
// hub). The returned closer (may be nil) releases the tenant's resources —
// it is called when the tenant is dropped and when the registry resets.
type TenantFactory func(name string) (Store, func() error, error)

// Registry hosts one Store per tenant namespace. Lookups are read-locked
// and cheap; Create, Drop and Reset are rare administrative operations.
// Stores handed out by Tenant remain valid after a concurrent Drop — they
// are simply detached, with journaled stores fenced so a late mutation
// fails with ErrUnknownTenant instead of landing after the drop — so
// sessions never race the registry map.
type Registry struct {
	factory TenantFactory
	journal Journal            // ships tenant create/drop ops (nil = don't)
	purge   func(string) error // destroys a dropped tenant's durable state

	mu      sync.RWMutex
	tenants map[string]Store
	closers map[string]func() error
	gate    func(tenant, id string) error // write gate for journaled tenants
}

// NewTenantRegistry builds a registry and eagerly creates the default
// tenant through the factory.
func NewTenantRegistry(factory TenantFactory) (*Registry, error) {
	r := &Registry{
		factory: factory,
		tenants: make(map[string]Store),
		closers: make(map[string]func() error),
	}
	if _, err := r.Ensure(DefaultTenant); err != nil {
		return nil, err
	}
	return r, nil
}

// ShipAdminOps makes the registry append a tenant-create/-drop mutation to
// j whenever a tenant is created or dropped, so followers mirror the tenant
// set. Call before serving traffic.
func (r *Registry) ShipAdminOps(j Journal) { r.journal = j }

// OnDrop installs the hook that destroys a dropped tenant's durable state
// (its persistence partition), called after the tenant's store is closed.
// Call before serving traffic.
func (r *Registry) OnDrop(purge func(name string) error) { r.purge = purge }

// SetWriteGate installs a mutation gate on every journaled tenant, current
// and future (see Journaled.SetWriteGate). The cluster layer uses it as
// the partition-handoff barrier.
func (r *Registry) SetWriteGate(gate func(tenant, id string) error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gate = gate
	for _, s := range r.tenants {
		if j, ok := s.(*Journaled); ok {
			j.SetWriteGate(gate)
		}
	}
}

// Tenant returns the named tenant's store ("" selects the default tenant),
// or ErrUnknownTenant.
func (r *Registry) Tenant(name string) (Store, error) {
	name = CanonicalTenant(name)
	r.mu.RLock()
	s, ok := r.tenants[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return s, nil
}

// Default returns the default tenant's store.
func (r *Registry) Default() Store {
	s, _ := r.Tenant(DefaultTenant)
	return s
}

// Has reports whether the named tenant exists.
func (r *Registry) Has(name string) bool {
	_, err := r.Tenant(name)
	return err == nil
}

// Ensure returns the named tenant's store, creating the tenant if it does
// not exist yet. Unlike Create it does not ship an admin op — it is the
// path for boot-time loading of existing partitions and for follower-side
// application of replicated mutations.
func (r *Registry) Ensure(name string) (Store, error) {
	name = CanonicalTenant(name)
	if s, err := r.Tenant(name); err == nil {
		return s, nil
	}
	if err := ValidateTenantName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.tenants[name]; ok {
		return s, nil
	}
	return r.createLocked(name)
}

// createLocked builds and registers a tenant; the caller holds r.mu.
func (r *Registry) createLocked(name string) (Store, error) {
	s, closer, err := r.factory(name)
	if err != nil {
		return nil, fmt.Errorf("store: create tenant %q: %w", name, err)
	}
	if j, ok := s.(*Journaled); ok && r.gate != nil {
		j.SetWriteGate(r.gate)
	}
	r.tenants[name] = s
	if closer != nil {
		r.closers[name] = closer
	}
	return s, nil
}

// Create adds a new tenant namespace and, when an admin journal is bound,
// ships the creation to followers. It fails with ErrTenantExists for a name
// already hosted and ErrBadTenantName for an invalid one.
func (r *Registry) Create(name string) error {
	name = CanonicalTenant(name)
	if err := ValidateTenantName(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[name]; ok {
		return fmt.Errorf("%w: %q", ErrTenantExists, name)
	}
	if _, err := r.createLocked(name); err != nil {
		return err
	}
	if r.journal != nil {
		if err := r.journal.Append(Mutation{Op: OpTenantCreate, Tenant: name}); err != nil {
			return fmt.Errorf("store: ship tenant create: %w", err)
		}
	}
	return nil
}

// Drop removes a tenant namespace and every record in it: the tenant
// disappears from routing, in-flight mutations are drained, the store's
// backing resources are closed, the drop is shipped to followers, and the
// tenant's durable state is destroyed via the OnDrop hook. The default
// tenant cannot be dropped. Drop is irreversible.
func (r *Registry) Drop(name string) error {
	name = CanonicalTenant(name)
	if name == DefaultTenant {
		return fmt.Errorf("%w: the default tenant cannot be dropped", ErrBadTenantName)
	}
	r.mu.Lock()
	s, ok := r.tenants[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	delete(r.tenants, name)
	closer := r.closers[name]
	delete(r.closers, name)
	r.mu.Unlock()
	// Drain in-flight mutations and fence the detached store: once the
	// tenant's mutation lock is held nothing of this tenant is still being
	// journalled, and marking it dropped makes any session that resolved
	// the store before the drop fail with ErrUnknownTenant instead of
	// journalling a mutation after the drop op — which would resurrect the
	// tenant on followers.
	if j, ok := s.(*Journaled); ok {
		j.mu.Lock()
		j.dropped = true
		defer j.mu.Unlock()
	}
	var errs []error
	if r.journal != nil {
		if err := r.journal.Append(Mutation{Op: OpTenantDrop, Tenant: name}); err != nil {
			errs = append(errs, fmt.Errorf("store: ship tenant drop: %w", err))
		}
	}
	if closer != nil {
		if err := closer(); err != nil {
			errs = append(errs, err)
		}
	}
	if r.purge != nil {
		if err := r.purge(name); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Names returns the hosted tenant names, sorted. It always includes
// DefaultTenant.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Enrolled returns the total record count across every tenant.
func (r *Registry) Enrolled() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, s := range r.tenants {
		n += s.Len()
	}
	return n
}

// Apply routes one replicated mutation to the right tenant — the follower's
// write path. Inserts materialise their tenant on demand (a follower that
// reconnected mid-history may see a tenant's first mutation before any
// create op); deletes against an unknown tenant fail, surfacing stream
// corruption. Tenant create/drop ops adjust the registry itself; a drop for
// an already-absent tenant is a no-op, since drops are idempotent by
// intent.
func (r *Registry) Apply(m Mutation) error {
	switch m.Op {
	case OpTenantCreate:
		_, err := r.Ensure(m.Tenant)
		return err
	case OpTenantDrop:
		if err := r.Drop(m.Tenant); err != nil && !errors.Is(err, ErrUnknownTenant) {
			return err
		}
		return nil
	case OpInsert:
		s, err := r.Ensure(m.Tenant)
		if err != nil {
			return err
		}
		return Apply(s, m)
	case OpDelete, OpReplace:
		// Both operate on an already-enrolled ID, so the tenant must already
		// exist on the follower; materialising it here would mask corruption.
		s, err := r.Tenant(m.Tenant)
		if err != nil {
			return err
		}
		return Apply(s, m)
	default:
		return fmt.Errorf("store: unknown mutation op %d", m.Op)
	}
}

// Reset drops every tenant — including the default tenant's records — and
// recreates an empty default: the follower's snapshot-bootstrap clear. The
// OnDrop purge hook is not invoked (a follower owns no durable state), and
// nothing is shipped.
func (r *Registry) Reset() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	for name, closer := range r.closers {
		if err := closer(); err != nil {
			errs = append(errs, fmt.Errorf("store: reset tenant %q: %w", name, err))
		}
	}
	r.tenants = make(map[string]Store)
	r.closers = make(map[string]func() error)
	if _, err := r.createLocked(DefaultTenant); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// View runs fn on a consistent cut of every tenant's record set: each
// journaled tenant's mutation lock is held (in sorted name order) while fn
// runs, so no mutation of any tenant is in flight — the multi-tenant
// counterpart of (*Journaled).View, used by the replication hub to pair a
// snapshot of all namespaces with one log offset. fn must not mutate any
// store or the registry (it would deadlock).
func (r *Registry) View(fn func(cut []TenantView)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	var unlock []*Journaled
	defer func() {
		for i := len(unlock) - 1; i >= 0; i-- {
			unlock[i].mu.Unlock()
		}
	}()
	cut := make([]TenantView, 0, len(names))
	for _, name := range names {
		s := r.tenants[name]
		if j, ok := s.(*Journaled); ok {
			j.mu.Lock()
			unlock = append(unlock, j)
		}
	}
	// All mutation locks are held: the record sets and the journal offset
	// are now one consistent multi-tenant state.
	for _, name := range names {
		cut = append(cut, TenantView{Tenant: name, Records: r.tenants[name].All()})
	}
	fn(cut)
}

// Close releases every tenant's backing resources (journals, files). The
// registry is not usable afterwards.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	for name, closer := range r.closers {
		if err := closer(); err != nil {
			errs = append(errs, fmt.Errorf("store: close tenant %q: %w", name, err))
		}
	}
	r.closers = make(map[string]func() error)
	return errors.Join(errs...)
}
