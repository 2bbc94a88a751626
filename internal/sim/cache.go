package sim

import "math/bits"

// MESI line states. The directory tracks which L1s hold each line and
// whether one of them owns it in Modified state.
type mesiState uint8

const (
	stateInvalid mesiState = iota
	stateShared
	stateExclusive
	stateModified
)

func (s mesiState) String() string {
	switch s {
	case stateInvalid:
		return "I"
	case stateShared:
		return "S"
	case stateExclusive:
		return "E"
	case stateModified:
		return "M"
	default:
		return "?"
	}
}

// cacheLine is one way of one set.
type cacheLine struct {
	tag     uint64
	state   mesiState
	lastUse uint64 // LRU timestamp
}

// cache is a set-associative cache with true-LRU replacement. Addresses are
// line addresses (byte address >> lineShift); the cache is a tag store
// only — the simulator carries no data. All sets live in one preallocated
// set-major slice and the lookup paths index it directly (no per-access
// sub-slicing), so a steady-state access allocates nothing.
type cache struct {
	sets    int
	ways    int
	setMask uint64
	lines   []cacheLine // sets*ways, set-major
	tick    uint64      // LRU clock
}

// init sizes the tag store of a zero-value cache. Pooled machines never
// come back through here — Machine.Reset reuses the line slice via
// cache.reset, which is the only recycling path.
func (c *cache) init(sizeBytes, ways, lineSz int) {
	linesTotal := sizeBytes / lineSz
	c.sets = linesTotal / ways
	c.ways = ways
	c.setMask = uint64(c.sets - 1)
	c.lines = make([]cacheLine, linesTotal)
	c.tick = 0
}

// reset invalidates every line without releasing storage.
func (c *cache) reset() {
	clear(c.lines)
	c.tick = 0
}

func newCache(sizeBytes, ways, lineSz int) *cache {
	c := new(cache)
	c.init(sizeBytes, ways, lineSz)
	return c
}

// base returns the index of lineAddr's set in the flat line slice.
func (c *cache) base(lineAddr uint64) int {
	return int(lineAddr&c.setMask) * c.ways
}

// set returns lineAddr's set as a sub-slice (test hook; the access paths
// below index c.lines directly).
func (c *cache) set(lineAddr uint64) []cacheLine {
	idx := c.base(lineAddr)
	return c.lines[idx : idx+c.ways]
}

// lookup returns the line holding lineAddr, or nil on miss. A hit updates
// the LRU clock.
func (c *cache) lookup(lineAddr uint64) *cacheLine {
	c.tick++
	base := c.base(lineAddr)
	tag := lineAddr / uint64(c.sets)
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].state != stateInvalid && c.lines[i].tag == tag {
			c.lines[i].lastUse = c.tick
			return &c.lines[i]
		}
	}
	return nil
}

// insert places lineAddr in the cache with the given state, evicting the
// LRU way if needed. It returns the evicted line address and its state
// (stateInvalid when no valid line was evicted).
func (c *cache) insert(lineAddr uint64, st mesiState) (evictedAddr uint64, evictedState mesiState) {
	c.tick++
	base := c.base(lineAddr)
	tag := lineAddr / uint64(c.sets)
	victim := base
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].state == stateInvalid {
			victim = i
			break
		}
		if c.lines[i].lastUse < c.lines[victim].lastUse {
			victim = i
		}
	}
	ev := c.lines[victim]
	c.lines[victim] = cacheLine{tag: tag, state: st, lastUse: c.tick}
	if ev.state == stateInvalid {
		return 0, stateInvalid
	}
	evictedLineAddr := ev.tag*uint64(c.sets) + (lineAddr & c.setMask)
	return evictedLineAddr, ev.state
}

// invalidate drops lineAddr if present, returning its previous state.
func (c *cache) invalidate(lineAddr uint64) mesiState {
	base := c.base(lineAddr)
	tag := lineAddr / uint64(c.sets)
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].state != stateInvalid && c.lines[i].tag == tag {
			st := c.lines[i].state
			c.lines[i].state = stateInvalid
			return st
		}
	}
	return stateInvalid
}

// downgrade moves lineAddr to Shared if present in E/M, returning its
// previous state.
func (c *cache) downgrade(lineAddr uint64) mesiState {
	base := c.base(lineAddr)
	tag := lineAddr / uint64(c.sets)
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].state != stateInvalid && c.lines[i].tag == tag {
			st := c.lines[i].state
			if st == stateExclusive || st == stateModified {
				c.lines[i].state = stateShared
			}
			return st
		}
	}
	return stateInvalid
}

// countValid returns the number of valid lines (test hook).
func (c *cache) countValid() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state != stateInvalid {
			n++
		}
	}
	return n
}

// maxSimCores bounds Config.Cores: the full-map directory tracks sharers
// in a fixed-width sharerSet of maxSimCores bits.
const maxSimCores = 256

// sharerSet is a fixed-width bitmask over core ids — the full-map sharer
// vector of one directory entry. A flat array (not a slice) keeps dirEntry
// a pure value type, so directory pages store entries inline and a
// steady-state directory get allocates nothing.
type sharerSet [maxSimCores / 64]uint64

func (s *sharerSet) add(core int)      { s[core>>6] |= 1 << uint(core&63) }
func (s *sharerSet) drop(core int)     { s[core>>6] &^= 1 << uint(core&63) }
func (s *sharerSet) has(core int) bool { return s[core>>6]&(1<<uint(core&63)) != 0 }

// only resets the set to the single given core.
func (s *sharerSet) only(core int) {
	*s = sharerSet{}
	s.add(core)
}

func (s *sharerSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// dirEntry is the full-map directory record for one line. L2 residency is
// tracked by the L2 cache structure itself, not the directory.
type dirEntry struct {
	sharers sharerSet // bitmask of L1s holding the line
	inv     uint32    // invalidations this line has suffered (hot-line stat)
	owner   int16     // core owning in M/E, -1 when none
}

// dirPageShift sets the directory page size: a page holds the entries of
// 1<<dirPageShift consecutive line addresses.
const dirPageShift = 6

// dirPage is the directory record of 64 consecutive lines, stored inline
// and pointer-free. live marks the lines touched since the page was
// handed out (bit i for line base+i).
type dirPage struct {
	ents [1 << dirPageShift]dirEntry
	live uint64
}

// freshPage is the state of a page no line has touched: every entry has
// no owner and no sharers.
var freshPage = func() (p dirPage) {
	for i := range p.ents {
		p.ents[i].owner = -1
	}
	return p
}()

// directory tracks L1 residency for every line touched so far. Entries
// live in fixed pages of 64 consecutive lines, found through a map keyed
// by line>>dirPageShift, so the sequential line runs workloads sweep
// touch adjacent memory and the map stays small (one key per 64 lines).
// Pages never move: a *dirEntry returned by get stays valid, and keeps
// its value, until reset. reset recycles pages through a free list, so a
// reused directory allocates nothing until it needs more pages than any
// earlier run did.
type directory struct {
	pages map[uint64]*dirPage
	free  []*dirPage
}

func newDirectory() *directory {
	d := new(directory)
	d.init()
	return d
}

func (d *directory) init() {
	d.pages = make(map[uint64]*dirPage)
}

// reset drops every entry, moving the pages to the free list for reuse.
func (d *directory) reset() {
	for _, p := range d.pages {
		d.free = append(d.free, p)
	}
	clear(d.pages)
}

// get returns the entry for lineAddr; a line not seen before has no owner
// and no sharers.
func (d *directory) get(lineAddr uint64) *dirEntry {
	k := lineAddr >> dirPageShift
	p := d.pages[k]
	if p == nil {
		p = d.newPage()
		d.pages[k] = p
	}
	i := lineAddr & (1<<dirPageShift - 1)
	p.live |= 1 << i
	return &p.ents[i]
}

// newPage returns a fresh page, from the free list when it has one.
func (d *directory) newPage() *dirPage {
	var p *dirPage
	if n := len(d.free); n > 0 {
		p, d.free = d.free[n-1], d.free[:n-1]
	} else {
		p = new(dirPage)
	}
	*p = freshPage
	return p
}

// len returns the number of tracked lines (test hook).
func (d *directory) len() int {
	n := 0
	for _, p := range d.pages {
		n += bits.OnesCount64(p.live)
	}
	return n
}

// maxInv returns the invalidation count of the most-invalidated line — the
// hot-line statistic surfaced as Counters.HotLineInvalidations. Taking the
// max (not an address) keeps the result independent of page order.
func (d *directory) maxInv() uint64 {
	var peak uint32
	for _, p := range d.pages {
		for i := range p.ents {
			if p.ents[i].inv > peak {
				peak = p.ents[i].inv
			}
		}
	}
	return uint64(peak)
}

func (e *dirEntry) addSharer(core int)      { e.sharers.add(core) }
func (e *dirEntry) dropSharer(core int)     { e.sharers.drop(core) }
func (e *dirEntry) hasSharer(core int) bool { return e.sharers.has(core) }
func (e *dirEntry) sharerCount() int        { return e.sharers.count() }
