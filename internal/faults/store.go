package faults

import (
	"fmt"
	"time"
)

// ErrStore is a persistent store whose operations can distinguish
// infrastructure faults from ordinary misses. engine.Store's Get/Put
// cannot: a miss and a dead disk both read as (nil, false), which is
// the right contract for the engine (best-effort, never failing a job)
// but useless for health tracking. diskcache.Store implements both
// views; the breaker and the injector compose over this one.
type ErrStore interface {
	// GetE returns the stored value, a hit flag, and any infrastructure
	// error. A miss is (nil, false, nil); a fault is (nil, false, err).
	GetE(key string) (any, bool, error)
	// PutE persists val, returning any infrastructure error. Unstorable
	// values (encode failures) are skipped silently — a value problem,
	// not a store fault.
	PutE(key string, val any) error
}

// Store injects err and delay faults at the store boundary, wrapping an
// ErrStore. It implements ErrStore (for the breaker above it) and the
// engine.Store shape (Get/Put). Injection happens before the inner
// store is touched: an injected get error never reads the disk, an
// injected put error never writes it — the same observable behavior as
// an I/O layer that failed before the syscall. Keys and values pass
// through untouched, always.
type Store struct {
	inner ErrStore
	in    *Injector
}

// NewStore wraps inner with injection from in. A nil injector returns
// no wrapper semantics — callers should skip wrapping instead.
func NewStore(inner ErrStore, in *Injector) *Store {
	return &Store{inner: inner, in: in}
}

// GetE implements ErrStore with get.delay and get.err injection.
func (s *Store) GetE(key string) (any, bool, error) {
	if hit, _ := s.in.decide(OpGet, KindDelay, key); hit {
		time.Sleep(s.in.spec.Rules[OpGet][KindDelay].Delay)
	}
	if hit, _ := s.in.decide(OpGet, KindErr, key); hit {
		return nil, false, fmt.Errorf("%w: get %s", ErrInjected, key)
	}
	return s.inner.GetE(key)
}

// PutE implements ErrStore with put.delay and put.err injection.
func (s *Store) PutE(key string, val any) error {
	if hit, _ := s.in.decide(OpPut, KindDelay, key); hit {
		time.Sleep(s.in.spec.Rules[OpPut][KindDelay].Delay)
	}
	if hit, _ := s.in.decide(OpPut, KindErr, key); hit {
		return fmt.Errorf("%w: put %s", ErrInjected, key)
	}
	return s.inner.PutE(key, val)
}

// Get adapts GetE to the engine.Store shape: faults read as misses.
func (s *Store) Get(key string) (any, bool) {
	v, ok, _ := s.GetE(key)
	return v, ok
}

// Put adapts PutE to the engine.Store shape: faults are silent.
func (s *Store) Put(key string, val any) { _ = s.PutE(key, val) }
