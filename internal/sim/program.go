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

// Builder constructs per-core streams with a fluent API. Compile sizes
// every stream exactly; NewBuilder's streams grow by append, for small
// hand-built programs.
type Builder struct {
	prog  *Program
	count []int // per-core op counts during Compile's counting pass, else nil
}

// NewBuilder returns a builder for an n-core program.
func NewBuilder(n int) *Builder { return &Builder{prog: NewProgram(n)} }

// Compile builds an n-core program by running emit twice: the first pass
// only counts each core's ops, the second fills streams allocated at
// exactly those counts, so no stream is ever copied to grow. emit must
// issue the same ops on both passes; if it does not, Compile returns an
// error rather than a program.
func Compile(cores int, emit func(*Builder)) (*Program, error) {
	b := &Builder{prog: NewProgram(cores), count: make([]int, cores)}
	emit(b)
	counts, phases := b.count, len(b.prog.Phases)
	b.count = nil
	for id, n := range counts {
		if n > 0 {
			b.prog.Streams[id] = make([]Op, 0, n)
		}
	}
	emit(b)
	for id, s := range b.prog.Streams {
		if len(s) != counts[id] {
			return nil, fmt.Errorf("sim: Compile's emit issued %d ops on core %d, then %d", counts[id], id, len(s))
		}
	}
	if len(b.prog.Phases) != phases {
		return nil, fmt.Errorf("sim: Compile's emit named %d phases, then %d", phases, len(b.prog.Phases))
	}
	return b.Build()
}

// add appends op to core id's stream, or only counts it during Compile's
// counting pass.
func (b *Builder) add(id int, op Op) {
	if b.count != nil {
		b.count[id]++
		return
	}
	b.prog.Streams[id] = append(b.prog.Streams[id], op)
}

// Compute appends an ALU burst to core id's stream.
func (b *Builder) Compute(id int, n uint64) *Builder {
	if n > 0 {
		b.add(id, Op{Kind: OpCompute, Arg: n})
	}
	return b
}

// Load appends a load of addr to core id's stream.
func (b *Builder) Load(id int, addr uint64) *Builder {
	b.add(id, Op{Kind: OpLoad, Arg: addr})
	return b
}

// Store appends a store to addr to core id's stream.
func (b *Builder) Store(id int, addr uint64) *Builder {
	b.add(id, Op{Kind: OpStore, Arg: addr})
	return b
}

// LoadRange appends line-granular loads covering [addr, addr+bytes).
func (b *Builder) LoadRange(id int, addr, bytes uint64, lineSz int) *Builder {
	return b.lineRange(id, OpLoad, addr, bytes, lineSz)
}

// StoreRange appends line-granular stores covering [addr, addr+bytes).
func (b *Builder) StoreRange(id int, addr, bytes uint64, lineSz int) *Builder {
	return b.lineRange(id, OpStore, addr, bytes, lineSz)
}

// lineRange appends one kind op per line of [addr, addr+bytes).
func (b *Builder) lineRange(id int, kind OpKind, addr, bytes uint64, lineSz int) *Builder {
	if bytes == 0 {
		return b
	}
	line := uint64(lineSz)
	first := addr &^ (line - 1)
	last := (addr + bytes - 1) &^ (line - 1)
	if b.count != nil {
		b.count[id] += int((last-first)/line) + 1
		return b
	}
	for a := first; a <= last; a += line {
		b.prog.Streams[id] = append(b.prog.Streams[id], Op{Kind: kind, Arg: a})
	}
	return b
}

// Barrier appends a barrier to every core's stream.
func (b *Builder) Barrier() *Builder {
	for id := range b.prog.Streams {
		b.add(id, Op{Kind: OpBarrier})
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
	b.add(0, Op{Kind: OpPhase, Arg: uint64(i)})
	return b
}

// Build validates and returns the program.
func (b *Builder) Build() (*Program, error) {
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}
