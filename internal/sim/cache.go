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

// cacheLine is one way of one set: 24 bytes, ref filling what would
// otherwise be padding after state.
type cacheLine struct {
	tag     uint64
	state   mesiState
	ref     dirRef // the line's directory entry, see directory.at
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

// insert places lineAddr, whose directory entry is ref, in the cache with
// the given state, evicting the LRU way if needed. It returns the evicted
// line and its address; ev.state is stateInvalid when no valid line was
// evicted.
func (c *cache) insert(lineAddr uint64, ref dirRef, st mesiState) (evAddr uint64, ev cacheLine) {
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
	ev = c.lines[victim]
	c.lines[victim] = cacheLine{tag: tag, state: st, ref: ref, lastUse: c.tick}
	if ev.state == stateInvalid {
		return 0, ev
	}
	return ev.tag*uint64(c.sets) + (lineAddr & c.setMask), ev
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
// and pointer-free.
type dirPage [1 << dirPageShift]dirEntry

// freshPage is the state of a page no line has touched: every entry has
// no owner and no sharers.
var freshPage = func() (p dirPage) {
	for i := range p {
		p[i].owner = -1
	}
	return p
}()

// dirRef names a directory entry without a map lookup: its page's number
// (pages are numbered as they are handed out) times 64, plus its slot.
// 32 bits cover 2^26 pages, 170 GB of entries.
type dirRef uint32

// directory tracks L1 residency for every line touched so far. Entries
// live in fixed pages of 64 consecutive lines, so the line runs workloads
// sweep touch adjacent memory; a pointer-free map from line>>dirPageShift
// to the page's number finds them. Pages never move: a *dirEntry or
// dirRef from get stays valid, and keeps its value, until reset, which
// keeps every page for the next run.
type directory struct {
	index map[uint64]uint32 // line>>dirPageShift -> page number
	pages []*dirPage        // pages[:used] are in use, the rest wait for reuse
	used  int
}

func newDirectory() *directory {
	d := new(directory)
	d.init()
	return d
}

func (d *directory) init() {
	d.index = make(map[uint64]uint32)
}

// reset drops every entry, keeping the pages for reuse.
func (d *directory) reset() {
	clear(d.index)
	d.used = 0
}

// get returns the entry for lineAddr and its ref; a line not seen before
// has no owner and no sharers.
func (d *directory) get(lineAddr uint64) (*dirEntry, dirRef) {
	k := lineAddr >> dirPageShift
	n, ok := d.index[k]
	if !ok {
		n = d.newPage()
		d.index[k] = n
	}
	i := uint32(lineAddr & (1<<dirPageShift - 1))
	return &d.pages[n][i], dirRef(n<<dirPageShift | i)
}

// at returns the entry a ref from get names.
func (d *directory) at(r dirRef) *dirEntry {
	return &d.pages[r>>dirPageShift][r&(1<<dirPageShift-1)]
}

// newPage hands out a fresh page, reusing one from an earlier run when it
// can, and returns its number.
func (d *directory) newPage() uint32 {
	if d.used == len(d.pages) {
		d.pages = append(d.pages, new(dirPage))
	}
	n := d.used
	d.used++
	*d.pages[n] = freshPage
	return uint32(n)
}

// maxInv returns the invalidation count of the most-invalidated line — the
// hot-line statistic surfaced as Counters.HotLineInvalidations. Taking the
// max (not an address) keeps the result independent of page order.
func (d *directory) maxInv() uint64 {
	var peak uint32
	for _, p := range d.pages[:d.used] {
		for i := range p {
			if p[i].inv > peak {
				peak = p[i].inv
			}
		}
	}
	return uint64(peak)
}

func (e *dirEntry) addSharer(core int)      { e.sharers.add(core) }
func (e *dirEntry) dropSharer(core int)     { e.sharers.drop(core) }
func (e *dirEntry) hasSharer(core int) bool { return e.sharers.has(core) }
func (e *dirEntry) sharerCount() int        { return e.sharers.count() }
