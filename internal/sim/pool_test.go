package sim

import "testing"

// poolProgram builds a small two-core program exercising sharing,
// upgrades and barriers.
func poolProgram(t testing.TB) *Program {
	t.Helper()
	b := NewBuilder(2)
	b.Phase("parallel")
	for i := uint64(0); i < 256; i++ {
		addr := 0x1000 + 64*i
		b.Load(0, addr).Load(1, addr)
		if i%4 == 0 {
			b.Store(0, 0x100000+64*(i%8)).Store(1, 0x100000+64*(i%8))
		}
	}
	b.Barrier()
	b.Phase("serial")
	b.Compute(0, 100)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestPooledMachineMatchesFresh locks the pooling contract: a reused
// (Reset) machine must produce bit-identical results to a fresh one.
func TestPooledMachineMatchesFresh(t *testing.T) {
	cfg := DefaultConfig(2)
	prog := poolProgram(t)

	fresh, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(prog)
	if err != nil {
		t.Fatal(err)
	}

	m, err := AcquireMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	gen := m.Generation()
	m.Release()

	again, err := AcquireMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Release()
	if again != m {
		t.Skip("pool did not return the same machine (GC may empty a sync.Pool); reuse not observable")
	}
	if again.Generation() <= gen {
		t.Errorf("generation did not advance across Release/Acquire: %d -> %d", gen, again.Generation())
	}
	got, err := again.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Counters != want.Counters {
		t.Errorf("pooled run diverged: cycles %d vs %d, counters %+v vs %+v",
			got.Cycles, want.Cycles, got.Counters, want.Counters)
	}
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("phase count %d vs %d", len(got.Phases), len(want.Phases))
	}
	for i := range got.Phases {
		if got.Phases[i] != want.Phases[i] {
			t.Errorf("phase %d: %+v vs %+v", i, got.Phases[i], want.Phases[i])
		}
	}
}

// TestMachineSingleUseGuards verifies the documented safety rails around
// Reset and the pool.
func TestMachineSingleUseGuards(t *testing.T) {
	cfg := DefaultConfig(2)
	prog := poolProgram(t)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(prog); err == nil {
		t.Error("second Run on a consumed machine must error")
	}
	gen := m.Generation()
	m.Reset()
	if m.Generation() != gen+1 {
		t.Errorf("Reset did not bump generation: %d -> %d", gen, m.Generation())
	}
	if _, err := m.Run(prog); err != nil {
		t.Errorf("Run after Reset: %v", err)
	}
	m.Release()
	if _, err := m.Run(prog); err == nil {
		t.Error("Run on a released machine must error")
	}
	m.Release() // double release is a checked no-op
}

// TestResetReusesTables asserts Reset keeps every table (the property
// that makes pooling allocation-free): the directory keeps its pages for
// reuse, and all residency is cleared.
func TestResetReusesTables(t *testing.T) {
	cfg := DefaultConfig(4)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(4)
	for i := uint64(0); i < 8000; i++ {
		b.Load(int(i%4), 0x1000000+64*i)
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	pages := m.dir.used
	if pages == 0 {
		t.Fatal("run tracked no lines")
	}
	m.Reset()
	if len(m.dir.index) != 0 {
		t.Errorf("directory still tracks %d pages after Reset", len(m.dir.index))
	}
	if m.dir.used != 0 || len(m.dir.pages) != pages {
		t.Errorf("Reset left %d pages live and kept %d of the directory's %d for reuse", m.dir.used, len(m.dir.pages), pages)
	}
	if e, _ := m.dir.get(0x1000000 >> cfg.lineShift()); e.owner != -1 || e.sharerCount() != 0 {
		t.Errorf("directory entry after Reset is not fresh: %+v", *e)
	}
	for i := range m.l1 {
		if m.l1[i].countValid() != 0 {
			t.Errorf("L1[%d] still holds %d lines after Reset", i, m.l1[i].countValid())
		}
	}
	if m.l2.countValid() != 0 {
		t.Errorf("L2 still holds %d lines after Reset", m.l2.countValid())
	}
}
