// Package reg is the string-keyed component registry shared by the public
// façade's registries (policies, governors, predictors, server models,
// web-search placements) and the experiment-artifact registry, so
// registration rules and error shapes stay identical everywhere.
package reg

import (
	"sort"
	"sync"

	"repro/pkg/dcsim/model"
)

// Registry maps unique names to components of one kind. The zero value is
// not usable; construct with New.
type Registry[T any] struct {
	mu     sync.RWMutex
	prefix string // error prefix, e.g. "dcsim"
	kind   string // component kind, e.g. "policy"
	m      map[string]T
	order  []string
}

// New returns an empty registry whose errors read
// "<prefix>: unknown <kind> ...".
func New[T any](prefix, kind string) *Registry[T] {
	return &Registry[T]{prefix: prefix, kind: kind, m: map[string]T{}}
}

// Register adds a component under a unique name; it panics on empty or
// duplicate names (registration is init-time configuration).
func (r *Registry[T]) Register(name string, v T) {
	if name == "" {
		panic(r.prefix + ": empty " + r.kind + " name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(r.prefix + ": duplicate " + r.kind + " " + name)
	}
	r.m[name] = v
	r.order = append(r.order, name)
}

// Lookup returns the component registered under name; unknown names return
// a model.NotRegisteredError listing the sorted known names, so callers can
// classify registry misses with errors.As across process boundaries.
func (r *Registry[T]) Lookup(name string) (T, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.m[name]
	if !ok {
		var zero T
		return zero, &model.NotRegisteredError{
			Prefix: r.prefix, Kind: r.kind, Name: name, Have: r.namesLocked(),
		}
	}
	return v, nil
}

// Names lists the registered names, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.namesLocked()
}

// Ordered lists the registered names in registration order.
func (r *Registry[T]) Ordered() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

func (r *Registry[T]) namesLocked() []string {
	out := make([]string, 0, len(r.m))
	for k := range r.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
