package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestCacheHitAfterInsert(t *testing.T) {
	c := newCache(1024, 2, 64) // 16 lines, 8 sets
	if c.lookup(5) != nil {
		t.Fatal("empty cache should miss")
	}
	c.insert(5, 0, stateShared)
	l := c.lookup(5)
	if l == nil || l.state != stateShared {
		t.Fatal("inserted line should hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2*64, 2, 64) // 2 lines, 1 set, 2 ways
	c.insert(0, 10, stateShared)
	c.insert(1, 11, stateModified)
	c.lookup(0) // make 0 most recently used
	evAddr, ev := c.insert(2, 12, stateShared)
	if evAddr != 1 || ev.state != stateModified || ev.ref != 11 {
		t.Fatalf("expected to evict line 1 (M, ref 11), got %d (%v, ref %d)", evAddr, ev.state, ev.ref)
	}
	if c.lookup(0) == nil || c.lookup(2) == nil || c.lookup(1) != nil {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestCacheEvictedAddressReconstruction(t *testing.T) {
	// Lines mapping to the same set must round-trip their address through
	// tag reconstruction on eviction.
	c := newCache(8*64, 1, 64) // 8 sets, direct-mapped
	c.insert(3, 0, stateShared)
	evAddr, ev := c.insert(3+8, 0, stateShared) // same set (3 mod 8)
	if ev.state == stateInvalid {
		t.Fatal("expected eviction")
	}
	if evAddr != 3 {
		t.Fatalf("evicted address = %d, want 3", evAddr)
	}
}

func TestCacheInvalidateAndDowngrade(t *testing.T) {
	c := newCache(1024, 2, 64)
	c.insert(7, 0, stateModified)
	if st := c.downgrade(7); st != stateModified {
		t.Errorf("downgrade returned %v", st)
	}
	if l := c.lookup(7); l == nil || l.state != stateShared {
		t.Error("downgrade should leave line Shared")
	}
	if st := c.invalidate(7); st != stateShared {
		t.Errorf("invalidate returned %v", st)
	}
	if c.lookup(7) != nil {
		t.Error("invalidated line should miss")
	}
	if st := c.invalidate(7); st != stateInvalid {
		t.Error("double invalidate should report Invalid")
	}
	if st := c.downgrade(99); st != stateInvalid {
		t.Error("downgrade of absent line should report Invalid")
	}
}

func TestCacheCapacityNeverExceeded(t *testing.T) {
	c := newCache(16*64, 4, 64) // 16 lines
	for a := uint64(0); a < 1000; a++ {
		c.insert(a, 0, stateShared)
		if got := c.countValid(); got > 16 {
			t.Fatalf("cache holds %d lines, capacity 16", got)
		}
	}
	if c.countValid() != 16 {
		t.Fatalf("full cache should hold 16 lines, has %d", c.countValid())
	}
}

func TestCacheSetIsolation(t *testing.T) {
	// Filling one set must not evict lines in other sets.
	c := newCache(8*64, 2, 64)  // 4 sets, 2 ways
	c.insert(1, 0, stateShared) // set 1
	for i := 0; i < 10; i++ {
		c.insert(uint64(4*i), 0, stateShared) // all set 0
	}
	if c.lookup(1) == nil {
		t.Error("set-0 thrashing evicted a set-1 line")
	}
}

func TestCachePropertyMostRecentSurvives(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	pred := func(addrs []uint16) bool {
		c := newCache(32*64, 4, 64)
		for _, a := range addrs {
			c.insert(uint64(a), 0, stateShared)
		}
		if len(addrs) == 0 {
			return true
		}
		// The most recently inserted line is always resident.
		return c.lookup(uint64(addrs[len(addrs)-1])) != nil
	}
	if err := quick.Check(pred, cfg); err != nil {
		t.Error(err)
	}
}

func TestDirectorySharers(t *testing.T) {
	d := newDirectory()
	e, _ := d.get(42)
	if e.sharerCount() != 0 || e.owner != -1 {
		t.Fatal("fresh entry should be empty")
	}
	e.addSharer(3)
	e.addSharer(5)
	if !e.hasSharer(3) || !e.hasSharer(5) || e.hasSharer(4) {
		t.Error("sharer bits wrong")
	}
	if e.sharerCount() != 2 {
		t.Errorf("sharerCount = %d", e.sharerCount())
	}
	e.dropSharer(3)
	if e.hasSharer(3) || e.sharerCount() != 1 {
		t.Error("dropSharer failed")
	}
	if got, _ := d.get(42); got != e {
		t.Error("directory should return the same entry")
	}
}

func TestMESIStateString(t *testing.T) {
	names := map[mesiState]string{stateInvalid: "I", stateShared: "S", stateExclusive: "E", stateModified: "M"}
	for st, want := range names {
		if st.String() != want {
			t.Errorf("%v.String() = %q", int(st), st.String())
		}
	}
}

// TestCacheRefsResolveToOwnLine checks the ref every cached line carries:
// after random multi-core programs (small caches, so lines are evicted,
// back-invalidated and refilled), and again after a Reset and rerun that
// reuses the directory's pages, each valid L1 and L2 line's ref must
// resolve to the very entry get returns for the line's address.
func TestCacheRefsResolveToOwnLine(t *testing.T) {
	for _, cores := range []int{2, 8, 64, 256} {
		rng := rand.New(rand.NewSource(int64(cores)))
		cfg := DefaultConfig(cores)
		cfg.L1Size = 4 << 10
		cfg.L2Size = 64 << 10
		prog := randomProgram(t, rng, cores, 3)
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			if rep > 0 {
				m.Reset()
			}
			if _, err := m.Run(prog); err != nil {
				t.Fatal(err)
			}
			checked := 0
			check := func(name string, c *cache) {
				for i, l := range c.lines {
					if l.state == stateInvalid {
						continue
					}
					addr := l.tag*uint64(c.sets) + uint64(i/c.ways)
					if e, _ := m.dir.get(addr); m.dir.at(l.ref) != e {
						t.Fatalf("cores %d rep %d: %s line %#x: ref %#x resolves to another entry", cores, rep, name, addr, l.ref)
					}
					checked++
				}
			}
			for id := range m.l1 {
				check("L1", &m.l1[id])
			}
			check("L2", &m.l2)
			if checked == 0 {
				t.Fatalf("cores %d: no valid lines to check", cores)
			}
		}
	}
}

// TestHotPathLayout pins the sizes the hot loops are tuned for: a cache
// line keeps its directory ref in what would be padding (24 bytes), and a
// scheduler heap entry carries its key inline in 16 bytes.
func TestHotPathLayout(t *testing.T) {
	if size := unsafe.Sizeof(cacheLine{}); size != 24 {
		t.Errorf("sizeof(cacheLine) = %d bytes, want 24", size)
	}
	if size := unsafe.Sizeof(schedEnt{}); size != 16 {
		t.Errorf("sizeof(schedEnt) = %d bytes, want 16", size)
	}
}
