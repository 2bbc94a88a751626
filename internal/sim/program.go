package sim

import (
	"errors"
	"fmt"
	"slices"
)

// OpKind enumerates the operations of the simulator's kernel IR. Workloads
// compile their per-thread work into streams of these operations.
type OpKind uint8

const (
	// OpCompute retires Arg ALU operations (Arg/IssueWidth cycles).
	OpCompute OpKind = iota
	// OpLoad reads the cache line containing byte address Arg.
	OpLoad
	// OpStore writes the cache line containing byte address Arg (RFO on
	// miss/shared).
	OpStore
	// OpBarrier synchronizes all cores; every core's stream must contain
	// the same number of barriers in the same order.
	OpBarrier
	// OpPhase switches the accounting phase to Program.Phases[Arg]. Only
	// core 0 may emit phase markers, and each should directly follow a
	// barrier (or stream start) so that all cores agree on the boundary
	// time.
	OpPhase
)

// String returns the op-kind mnemonic.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBarrier:
		return "barrier"
	case OpPhase:
		return "phase"
	default:
		return fmt.Sprintf("sim.OpKind(%d)", int(k))
	}
}

// Op is a single IR operation: 16 bytes and pointer-free, so a program's
// streams are plain memory the garbage collector never scans. Arg is the
// ALU op count of OpCompute, the byte address of OpLoad/OpStore and the
// Program.Phases index of OpPhase.
type Op struct {
	Kind OpKind
	Arg  uint64
}

// Program is a per-core set of operation streams plus the phase names its
// OpPhase markers index.
type Program struct {
	Streams [][]Op
	Phases  []string
}

// NewProgram allocates empty streams for n cores.
func NewProgram(n int) *Program {
	return &Program{Streams: make([][]Op, n)}
}

// Cores returns the number of streams.
func (p *Program) Cores() int { return len(p.Streams) }

// Ops returns the total operation count across all streams.
func (p *Program) Ops() int {
	n := 0
	for _, s := range p.Streams {
		n += len(s)
	}
	return n
}

// Validate checks the structural invariants the machine relies on:
// matching barrier counts across cores and phase markers only on core 0.
func (p *Program) Validate() error {
	if len(p.Streams) == 0 {
		return errors.New("sim: program has no streams")
	}
	barriers := -1
	for id, s := range p.Streams {
		b := 0
		for _, op := range s {
			switch op.Kind {
			case OpBarrier:
				b++
			case OpPhase:
				if id != 0 {
					return fmt.Errorf("sim: phase marker on core %d (only core 0 may mark phases)", id)
				}
				if op.Arg >= uint64(len(p.Phases)) {
					return fmt.Errorf("sim: phase index %d outside the program's %d phase names", op.Arg, len(p.Phases))
				}
				if p.Phases[op.Arg] == "" {
					return errors.New("sim: empty phase name")
				}
			case OpCompute, OpLoad, OpStore:
				// ok
			default:
				return fmt.Errorf("sim: core %d has unknown op kind %d", id, op.Kind)
			}
		}
		if barriers == -1 {
			barriers = b
		} else if b != barriers {
			return fmt.Errorf("sim: core %d has %d barriers, core 0 has %d", id, b, barriers)
		}
	}
	return nil
}

// Builder constructs per-core streams with a fluent API.
type Builder struct {
	prog *Program
}

// NewBuilder returns a builder for an n-core program.
func NewBuilder(n int) *Builder { return &Builder{prog: NewProgram(n)} }

// Compute appends an ALU burst to core id's stream.
func (b *Builder) Compute(id int, n uint64) *Builder {
	if n > 0 {
		b.prog.Streams[id] = append(b.prog.Streams[id], Op{Kind: OpCompute, Arg: n})
	}
	return b
}

// Load appends a load of addr to core id's stream.
func (b *Builder) Load(id int, addr uint64) *Builder {
	b.prog.Streams[id] = append(b.prog.Streams[id], Op{Kind: OpLoad, Arg: addr})
	return b
}

// Store appends a store to addr to core id's stream.
func (b *Builder) Store(id int, addr uint64) *Builder {
	b.prog.Streams[id] = append(b.prog.Streams[id], Op{Kind: OpStore, Arg: addr})
	return b
}

// grow reserves room for n more ops on core id's stream with geometric
// slack, so a line-granular range burst (the dominant append pattern —
// hundreds of ops per call) costs at most one growth instead of one per
// doubling.
func (b *Builder) grow(id int, n int) {
	s := b.prog.Streams[id]
	if cap(s)-len(s) >= n {
		return
	}
	newCap := len(s) + n + len(s)/2
	if newCap < 2*cap(s) {
		newCap = 2 * cap(s)
	}
	if newCap < 256 {
		newCap = 256
	}
	ns := make([]Op, len(s), newCap)
	copy(ns, s)
	b.prog.Streams[id] = ns
}

// LoadRange appends line-granular loads covering [addr, addr+bytes).
func (b *Builder) LoadRange(id int, addr, bytes uint64, lineSz int) *Builder {
	if bytes == 0 {
		return b
	}
	line := uint64(lineSz)
	first := addr &^ (line - 1)
	last := (addr + bytes - 1) &^ (line - 1)
	b.grow(id, int((last-first)/line)+1)
	for a := first; a <= last; a += line {
		b.Load(id, a)
	}
	return b
}

// StoreRange appends line-granular stores covering [addr, addr+bytes).
func (b *Builder) StoreRange(id int, addr, bytes uint64, lineSz int) *Builder {
	if bytes == 0 {
		return b
	}
	line := uint64(lineSz)
	first := addr &^ (line - 1)
	last := (addr + bytes - 1) &^ (line - 1)
	b.grow(id, int((last-first)/line)+1)
	for a := first; a <= last; a += line {
		b.Store(id, a)
	}
	return b
}

// Barrier appends a barrier to every core's stream.
func (b *Builder) Barrier() *Builder {
	for id := range b.prog.Streams {
		b.prog.Streams[id] = append(b.prog.Streams[id], Op{Kind: OpBarrier})
	}
	return b
}

// Phase appends a phase marker to core 0's stream, interning name into
// the program's phase names.
func (b *Builder) Phase(name string) *Builder {
	i := slices.Index(b.prog.Phases, name)
	if i < 0 {
		i = len(b.prog.Phases)
		b.prog.Phases = append(b.prog.Phases, name)
	}
	b.prog.Streams[0] = append(b.prog.Streams[0], Op{Kind: OpPhase, Arg: uint64(i)})
	return b
}

// Build validates and returns the program.
func (b *Builder) Build() (*Program, error) {
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}
