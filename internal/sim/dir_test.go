package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refEntry mirrors dirEntry with a map-based sharer set — the reference
// implementation the value-type table and bit bookkeeping are checked
// against.
type refEntry struct {
	sharers map[int]bool
	owner   int16
}

// TestDirectoryMatchesMapReference drives the paged directory and a plain
// map[uint64]*refEntry through an identical randomized op sequence (get /
// addSharer / dropSharer / owner writes over keys that straddle page
// boundaries and span thousands of pages) and requires identical
// observable state, with every ref resolving to the entry get returned.
func TestDirectoryMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := newDirectory()
	ref := map[uint64]*refEntry{}
	refGet := func(line uint64) *refEntry {
		e, ok := ref[line]
		if !ok {
			e = &refEntry{sharers: map[int]bool{}, owner: -1}
			ref[line] = e
		}
		return e
	}
	const cores = 256
	for i := 0; i < 40000; i++ {
		// Cluster keys the way line addresses cluster (sequential regions),
		// hit the lines on either side of a page boundary often, and
		// scatter the rest over thousands of pages.
		var line uint64
		switch rng.Intn(3) {
		case 0:
			line = uint64(rng.Intn(4))<<32 | uint64(rng.Intn(3000))
		case 1:
			line = uint64(rng.Intn(4))<<32 | uint64(1<<dirPageShift-1+rng.Intn(3))
		default:
			line = uint64(rng.Intn(1 << 20))
		}
		e, ref := d.get(line)
		if d.at(ref) != e {
			t.Fatalf("op %d: line %#x: at(%#x) is not the entry get returned", i, line, ref)
		}
		r := refGet(line)
		switch rng.Intn(5) {
		case 0:
			core := rng.Intn(cores)
			e.addSharer(core)
			r.sharers[core] = true
		case 1:
			core := rng.Intn(cores)
			e.dropSharer(core)
			delete(r.sharers, core)
		case 2:
			owner := int16(rng.Intn(cores))
			e.owner = owner
			r.owner = owner
		case 3:
			e.owner = -1
			e.sharers = sharerSet{}
			r.owner = -1
			clear(r.sharers)
		case 4:
			core := rng.Intn(cores)
			if e.hasSharer(core) != r.sharers[core] {
				t.Fatalf("op %d: hasSharer(%d) mismatch on line %#x", i, core, line)
			}
		}
	}
	refPages := map[uint64]bool{}
	for line := range ref {
		refPages[line>>dirPageShift] = true
	}
	if d.used != len(refPages) || len(d.index) != len(refPages) {
		t.Fatalf("directory uses %d pages under %d keys, the reference's lines span %d", d.used, len(d.index), len(refPages))
	}
	for line, r := range ref {
		e, _ := d.get(line)
		if e.owner != r.owner {
			t.Errorf("line %#x: owner %d, reference %d", line, e.owner, r.owner)
		}
		if e.sharerCount() != len(r.sharers) {
			t.Errorf("line %#x: sharerCount %d, reference %d", line, e.sharerCount(), len(r.sharers))
		}
		for core := 0; core < cores; core++ {
			if e.hasSharer(core) != r.sharers[core] {
				t.Errorf("line %#x: hasSharer(%d) = %v, reference %v", line, core, e.hasSharer(core), r.sharers[core])
			}
		}
	}
}

// TestSharerCountMatchesReference property-checks the per-word popcount
// against a naive per-bit reference over random multi-word sharer sets.
func TestSharerCountMatchesReference(t *testing.T) {
	prop := func(mask sharerSet) bool {
		e := dirEntry{sharers: mask}
		n := 0
		for core := 0; core < maxSimCores; core++ {
			if mask.has(core) {
				n++
			}
		}
		return e.sharerCount() == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Edge sets the generator may not hit, including bits in every word.
	edges := []sharerSet{
		{},
		{1, 0, 0, 0},
		{1 << 63, 0, 0, 0},
		{0, 0, 0, 1 << 63},
		{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
	}
	for _, mask := range edges {
		e := dirEntry{sharers: mask}
		want := 0
		for core := 0; core < maxSimCores; core++ {
			if mask.has(core) {
				want++
			}
		}
		if e.sharerCount() != want {
			t.Errorf("sharerCount(%v) = %d, want %d", mask, e.sharerCount(), want)
		}
	}
}

// TestDirectoryPointerStability locks the property Machine.access relies
// on: an entry pointer and its ref stay valid, and keep their value,
// however many unseen lines are inserted after they were taken.
func TestDirectoryPointerStability(t *testing.T) {
	d := newDirectory()
	const first = 1<<dirPageShift - 1 // last line of its page
	e, ref := d.get(first)
	e.addSharer(7)
	e.owner = 3
	e.inv = 9
	for i := uint64(0); i < 100_000; i++ {
		d.get(1<<20 + 3*i) // unseen lines across ~4.7k new pages
	}
	if got, gotRef := d.get(first); got != e || gotRef != ref || d.at(ref) != e {
		t.Fatal("inserting unseen lines moved an earlier entry or changed its ref")
	}
	if !e.hasSharer(7) || e.sharerCount() != 1 || e.owner != 3 || e.inv != 9 {
		t.Errorf("entry value lost across inserts: %+v", *e)
	}
}

// TestDirectoryReset verifies reset drops every entry and keeps the pages
// for reuse, and that a line seen before the reset comes back fresh.
func TestDirectoryReset(t *testing.T) {
	d := newDirectory()
	for i := uint64(0); i < 5000; i++ {
		e, _ := d.get(i)
		e.addSharer(1)
		e.owner = 1
		e.inv = 2
	}
	pages := d.used
	if want := (5000 + 1<<dirPageShift - 1) >> dirPageShift; pages != want || len(d.index) != want {
		t.Fatalf("5000 lines use %d pages under %d keys, want %d", pages, len(d.index), want)
	}
	d.reset()
	if d.used != 0 || len(d.index) != 0 {
		t.Fatalf("reset left %d pages in use under %d keys", d.used, len(d.index))
	}
	if len(d.pages) != pages {
		t.Fatalf("reset kept %d pages for reuse, want %d", len(d.pages), pages)
	}
	e, ref := d.get(3)
	if e.owner != -1 || e.sharers != (sharerSet{}) || e.inv != 0 {
		t.Errorf("entry after reset is not fresh: %+v", *e)
	}
	if ref != 3 || d.used != 1 || len(d.pages) != pages {
		t.Errorf("a new page after reset was not the first kept one: ref %d, %d used of %d, want ref 3, 1 of %d", ref, d.used, len(d.pages), pages)
	}
	if d.maxInv() != 0 {
		t.Errorf("maxInv after reset = %d, want 0", d.maxInv())
	}
}
