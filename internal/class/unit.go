package class

import (
	"fmt"
	"sync"
)

// Unit describes a dynamically loadable code unit (the analogue of a .do
// file handed to the original Class loader). Provides lists the class names
// the unit will register when its Init runs; Size is the simulated size of
// the unit's code in bytes, used by the runapp sharing accounting; Requires
// lists other units that must be loaded first (link dependencies).
type Unit struct {
	Name     string
	Size     int64
	Provides []string
	Requires []string
	Init     func(r *Registry) error
}

type unitState struct {
	unit   Unit
	loaded bool
}

// RegisterUnit declares a load unit without running its initializer. Once
// declared, any NewObject/Lookup on a class in Provides triggers Load.
func (r *Registry) RegisterUnit(u Unit) error {
	if u.Name == "" {
		return fmt.Errorf("%w: empty unit name", ErrUnknownUnit)
	}
	if _, ok := r.units[u.Name]; ok {
		return fmt.Errorf("%w: unit %q", ErrDuplicate, u.Name)
	}
	if u.Init == nil {
		return fmt.Errorf("%w: unit %q has no initializer", ErrLoadFailed, u.Name)
	}
	for _, c := range u.Provides {
		if other, ok := r.provider[c]; ok && other != u.Name {
			return fmt.Errorf("%w: class %q claimed by units %q and %q",
				ErrDuplicate, c, other, u.Name)
		}
	}
	r.units[u.Name] = &unitState{unit: u}
	for _, c := range u.Provides {
		r.provider[c] = u.Name
	}
	r.stats.UnitsDeclared++
	r.stats.BytesDeclared += u.Size
	return nil
}

// MustRegisterUnit is RegisterUnit but panics on error.
func (r *Registry) MustRegisterUnit(u Unit) {
	if err := r.RegisterUnit(u); err != nil {
		panic(err)
	}
}

// Load runs the named unit's initializer if it has not run yet, loading its
// Requires first. Loading is idempotent: a loaded unit is never
// re-initialized, which is what lets many applications in one runapp
// process share a single copy (paper §7).
func (r *Registry) Load(name string) error {
	st, ok := r.units[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUnit, name)
	}
	if st.loaded {
		return nil
	}
	// Mark before running Init so a dependency cycle terminates; the
	// initializer of a cyclic unit sees its partner partially loaded, as a
	// real link loader would.
	st.loaded = true
	for _, dep := range st.unit.Requires {
		if err := r.Load(dep); err != nil {
			st.loaded = false
			return fmt.Errorf("%w: unit %q requires %q: %v", ErrLoadFailed, name, dep, err)
		}
	}
	prev := r.loading
	r.loading = name
	err := st.unit.Init(r)
	r.loading = prev
	if err != nil {
		st.loaded = false
		return fmt.Errorf("%w: unit %q: %v", ErrLoadFailed, name, err)
	}
	r.stats.UnitsLoaded++
	r.stats.BytesLoaded += st.unit.Size
	return nil
}

// IsLoaded reports whether the named unit's initializer has run.
func (r *Registry) IsLoaded(name string) bool {
	st, ok := r.units[name]
	return ok && st.loaded
}

// Default is the process-wide registry used by toolkit packages that
// register components from init functions. It is wrapped with a mutex so
// concurrent package initialization and test parallelism are safe.
var (
	defaultMu sync.Mutex
	Default   = NewRegistry()
)

// RegisterDefault registers info in the Default registry.
func RegisterDefault(info Info) error {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	return Default.Register(info)
}

// RegisterUnitDefault registers u in the Default registry.
func RegisterUnitDefault(u Unit) error {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	return Default.RegisterUnit(u)
}

// NewObjectDefault instantiates name from the Default registry.
func NewObjectDefault(name string) (any, error) {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	return Default.NewObject(name)
}
