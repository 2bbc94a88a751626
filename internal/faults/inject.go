package faults

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrInjected marks every failure the injector manufactures, so logs
// and tests can tell a synthetic fault from a real one with errors.Is.
var ErrInjected = errors.New("injected fault")

// Injector answers "does fault (op, kind) fire on this operation on
// key?" from a parsed Spec, deterministically. The decision bits for an
// operation are a pure function of (seed, op, kind, key, attempt), where
// attempt counts the earlier (op, kind) operations on the same key, so
// two injectors with the same spec agree on every key's decisions no
// matter how their callers interleave. A probability rule fires on those
// bits alone. A 1/N rule instead fires on every Nth (op, kind) operation
// in arrival order: its count is exact, but which keys it lands on
// replays only when the arrival order does. The zero value injects
// nothing; use NewInjector.
type Injector struct {
	spec     Spec
	seq      [numOps][numKinds]atomic.Uint64
	injected [numOps][numKinds]atomic.Uint64

	// attempts counts the operations seen per (op, kind, key): one entry
	// per key an active rule has seen.
	mu       sync.Mutex
	attempts map[attemptKey]uint64
}

// attemptKey names one key's operation stream under one rule.
type attemptKey struct {
	op   Op
	kind Kind
	key  string
}

// NewInjector builds an injector for spec. A nil return means the spec
// injects nothing — callers skip the wiring entirely, keeping the
// fault-free path byte-for-byte untouched.
func NewInjector(spec Spec) *Injector {
	if !spec.Active() {
		return nil
	}
	return &Injector{spec: spec, attempts: make(map[attemptKey]uint64)}
}

// Spec returns the profile the injector runs.
func (in *Injector) Spec() Spec { return in.spec }

// splitmix64 is the SplitMix64 output function: a high-quality 64-bit
// mix whose stream at index n needs no preceding state — exactly the
// property that makes decisions schedule-independent.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyHash is the 64-bit FNV-1a hash of a key: stable across processes,
// unlike the runtime's seeded map hash.
func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// draw returns the decision bits for the attempt-th (op, kind) operation
// on key.
func (in *Injector) draw(op Op, kind Kind, key string, attempt uint64) uint64 {
	// Mix the rule identity in first so rules never share a stream
	// (put.err firing must not imply get.err fires).
	id := uint64(op)<<8 | uint64(kind)
	x := splitmix64(uint64(in.spec.Seed) ^ splitmix64(id))
	x = splitmix64(x ^ keyHash(key))
	return splitmix64(x ^ attempt)
}

// attempt consumes and returns key's next attempt number under (op, kind).
func (in *Injector) attempt(op Op, kind Kind, key string) uint64 {
	k := attemptKey{op, kind, key}
	in.mu.Lock()
	defer in.mu.Unlock()
	a := in.attempts[k]
	in.attempts[k] = a + 1
	return a
}

// decide consumes one (op, kind) operation on key and reports whether
// the fault fires, returning the raw decision bits for mutation-style
// faults to derive their shape from.
func (in *Injector) decide(op Op, kind Kind, key string) (bool, uint64) {
	rule := in.spec.Rules[op][kind]
	if !rule.active() {
		return false, 0
	}
	n := in.seq[op][kind].Add(1) - 1
	bits := in.draw(op, kind, key, in.attempt(op, kind, key))
	if rule.Every > 0 {
		if (n+1)%rule.Every != 0 {
			return false, 0
		}
	} else if float64(bits>>11)/(1<<53) >= rule.Prob {
		// Upper 53 bits → uniform float in [0,1), the float64 mantissa width.
		return false, 0
	}
	in.injected[op][kind].Add(1)
	return true, bits
}

// Counts snapshots per-rule traffic for observability (/readyz, tests).
// Only active rules are listed, in deterministic order.
func (in *Injector) Counts() []RuleCounts {
	var rcs []RuleCounts
	for op := Op(0); op < numOps; op++ {
		for kind := Kind(0); kind < numKinds; kind++ {
			if !in.spec.Rules[op][kind].active() {
				continue
			}
			rcs = append(rcs, RuleCounts{
				Op:       op.String(),
				Kind:     kind.String(),
				Ops:      in.seq[op][kind].Load(),
				Injected: in.injected[op][kind].Load(),
			})
		}
	}
	sortRuleCounts(rcs)
	return rcs
}

// InjectedTotal sums injected faults across every rule.
func (in *Injector) InjectedTotal() uint64 {
	var total uint64
	for op := range in.injected {
		for kind := range in.injected[op] {
			total += in.injected[op][kind].Load()
		}
	}
	return total
}

// WrapPut is diskcache's write-side file-I/O hook
// (diskcache.Hooks.WrapPut): it applies put.enospc — the write fails as
// if the disk were full, before any byte lands — then put.corrupt,
// which mutates the encoded envelope on its way to disk. Corruption
// alternates deterministically between a single bit flip (silent media
// corruption) and truncation to a prefix (a partial write cut off by a
// crash); both shapes must read back as a dropped-entry miss, never as
// a wrong value.
func (in *Injector) WrapPut(key string, data []byte) ([]byte, error) {
	if hit, _ := in.decide(OpPut, KindEnospc, key); hit {
		return nil, fmt.Errorf("%w: put %s: no space left on device", ErrInjected, key)
	}
	if hit, bits := in.decide(OpPut, KindCorrupt, key); hit {
		return corrupt(data, bits), nil
	}
	return data, nil
}

// WrapGet is diskcache's read-side hook (diskcache.Hooks.WrapGet): it
// applies get.corrupt to the raw envelope bytes before decoding.
func (in *Injector) WrapGet(key string, data []byte) ([]byte, error) {
	if hit, bits := in.decide(OpGet, KindCorrupt, key); hit {
		return corrupt(data, bits), nil
	}
	return data, nil
}

// corrupt returns a mutated copy of data, its shape chosen from the
// decision bits: even bits flip one bit in place, odd bits truncate to
// a strict prefix (including possibly empty). The input slice is never
// modified — diskcache may still own it.
func corrupt(data []byte, bits uint64) []byte {
	if len(data) == 0 {
		return data
	}
	if bits&1 == 0 {
		out := append([]byte(nil), data...)
		pos := (bits >> 1) % uint64(len(out)*8)
		out[pos/8] ^= 1 << (pos % 8)
		return out
	}
	return append([]byte(nil), data[:(bits>>1)%uint64(len(data))]...)
}
