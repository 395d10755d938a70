// Package cache implements the set-associative, LRU-replacement processor
// cache used by all five back-end simulators: two-way set-associative with
// 64-byte lines for the SMP configurations (paper §5.1), with coherence
// state stored per line for the snooping and directory protocols.
//
//chc:deterministic
package cache

import (
	"fmt"
	"math/bits"
)

// State is the MSI coherence state of a cache line.
type State uint8

// Coherence states. The paper's protocols are MSI (write-invalidate
// snooping and a three-state directory); Exclusive exists for the
// simulator's optional MESI variant, where a sole clean copy upgrades to
// Modified without a coherence transaction.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the state mnemonic.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// A way is one uint64: tag<<3 | mru<<2 | state. State Invalid==0 doubles as
// the empty marker. Bit 2 is meaningful only on way 0 of a two-way set: it
// says way 1 was touched more recently than way 0, which is complete LRU
// information for associativity two — every touch makes one way most
// recently used and the other the eviction victim, exactly the ordering a
// per-way timestamp would produce. An 8-byte way keeps a whole two-way set
// in one 16-byte span (half the footprint of a timestamped layout), which
// matters because the simulated caches dominate the simulator's own memory
// traffic. Addresses are bounded well below 2^61 (trace.MaxAddr), so the
// tag always fits.
//
// Generic associativities keep each set's recency order in one word (see
// Cache.order) and ignore bit 2.
const (
	wayStateMask = 3
	wayMRU1      = 4 // on way 0: way 1 is the set's most recently used
	wayTagShift  = 3
)

// maxAssoc is the highest associativity New accepts: a set's recency order
// packs one 4-bit way index per way into a 64-bit word.
const maxAssoc = 16

// Recency-order word constants: one 4-bit lane per recency position,
// position 0 (the low nibble) most recently used.
const (
	nibbleOnes = 0x1111111111111111
	nibbleHigh = 0x8888888888888888
)

func wayState(w uint64) State { return State(w & wayStateMask) }
func wayTag(w uint64) uint64  { return w >> wayTagShift }
func packWay(tag uint64, s State) uint64 {
	return tag<<wayTagShift | uint64(s)
}

// Stats counts cache events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64 // lines displaced by fills
	Writebacks  uint64 // displaced lines that were Modified
	Invalidates uint64 // lines killed by coherence actions
}

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	sets     int
	assoc    int
	lineSize int
	// lineShift is log2(lineSize) when lineSize is a power of two, else -1;
	// the hot lineTag path prefers the shift over a 64-bit division.
	lineShift int8
	// two is true for the two-way power-of-two geometry: LRU lives in the
	// ways' MRU bits and order stays nil.
	two   bool
	lines []uint64
	// order holds every set's LRU order for generic associativities: lane p
	// (bits 4p..4p+3) is the index of the way at recency position p, 0 the
	// most recently used, assoc-1 the next victim. Only a touch (hit or
	// fill) reorders a set; an invalidated way keeps its place, which is
	// harmless because a fill takes the first invalid way before it
	// consults the order. Among valid ways this is exactly the order of
	// their last touches — true LRU at one word per set instead of one
	// timestamp per way.
	order []uint64
	stats Stats
}

// New returns a cache of sizeBytes capacity with the given line size and
// associativity. All three must be positive and assoc at most 16;
// sizeBytes must be a multiple of lineSize*assoc and the set count a power
// of two. New panics otherwise: cache geometry is static configuration.
func New(sizeBytes, lineSize, assoc int) *Cache {
	if sizeBytes <= 0 || lineSize <= 0 || assoc <= 0 || assoc > maxAssoc {
		panic(fmt.Sprintf("cache: bad geometry size=%d line=%d assoc=%d", sizeBytes, lineSize, assoc))
	}
	if sizeBytes%(lineSize*assoc) != 0 {
		panic(fmt.Sprintf("cache: size %d not a multiple of line*assoc (%d)", sizeBytes, lineSize*assoc))
	}
	sets := sizeBytes / (lineSize * assoc)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	shift := int8(-1)
	if lineSize&(lineSize-1) == 0 {
		shift = int8(bits.TrailingZeros(uint(lineSize)))
	}
	c := &Cache{
		sets:      sets,
		assoc:     assoc,
		lineSize:  lineSize,
		lineShift: shift,
		two:       assoc == 2 && shift >= 0,
		lines:     make([]uint64, sets*assoc),
	}
	if !c.two {
		// Every set starts in way order; no touch has ranked a way yet.
		var identity uint64
		for w := 0; w < assoc; w++ {
			identity |= uint64(w) << (4 * w)
		}
		c.order = make([]uint64, sets)
		for i := range c.order {
			c.order[i] = identity
		}
	}
	return c
}

// touch makes way the most recently used of its set: its lane moves to
// position 0 and the lanes that were ahead of it shift back one position.
func (c *Cache) touch(set, way int) {
	o := c.order[set]
	// x has a zero lane exactly where o holds way. The borrow trick flags
	// zero lanes; its lowest flag is always exact, and way's position is
	// below assoc while any spurious zero lane (unused high lanes) is
	// above it.
	x := o ^ uint64(way)*nibbleOnes
	p := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHigh)) &^ 3
	ahead := o & (1<<p - 1)
	behind := o &^ (1<<(p+4) - 1) // p+4 == 64 shifts to zero: nothing behind
	c.order[set] = behind | ahead<<4 | uint64(way)
}

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// lineTag maps a byte address to its line identity.
func (c *Cache) lineTag(addr uint64) uint64 {
	if c.lineShift >= 0 {
		return addr >> uint(c.lineShift)
	}
	return addr / uint64(c.lineSize)
}

// Lookup performs an access to addr. On a hit it refreshes LRU and returns
// the line's state with hit=true; on a miss it returns (Invalid, false).
// Lookup does not fill the cache; the caller decides the fill state after
// running the coherence protocol (see Fill).
//
// The two-way power-of-two geometry every simulator uses (CacheHit, §5.1)
// is specialized straight-line with no subslice or loop; engines that need
// the hit check with zero call overhead inline the same probe via Hot.
func (c *Cache) Lookup(addr uint64) (State, bool) {
	if !c.two {
		return c.lookupGeneric(addr)
	}
	tag := addr >> uint8(c.lineShift)
	base := (int(tag) & (c.sets - 1)) << 1
	w0 := c.lines[base]
	if w0&wayStateMask != 0 && w0>>wayTagShift == tag {
		c.lines[base] = w0 &^ wayMRU1
		c.stats.Hits++
		return State(w0 & wayStateMask), true
	}
	if w1 := c.lines[base+1]; w1&wayStateMask != 0 && w1>>wayTagShift == tag {
		c.lines[base] = w0 | wayMRU1
		c.stats.Hits++
		return State(w1 & wayStateMask), true
	}
	c.stats.Misses++
	return Invalid, false
}

// lookupGeneric is Lookup for any other geometry, with order-word LRU.
func (c *Cache) lookupGeneric(addr uint64) (State, bool) {
	tag := c.lineTag(addr)
	set := int(tag) & (c.sets - 1)
	base := set * c.assoc
	for i := base; i < base+c.assoc; i++ {
		w := c.lines[i]
		if w&wayStateMask != 0 && w>>wayTagShift == tag {
			c.touch(set, i-base)
			c.stats.Hits++
			return State(w & wayStateMask), true
		}
	}
	c.stats.Misses++
	return Invalid, false
}

// Hot is a flattened view of a two-way power-of-two cache for a simulator
// engine's inner loop: the way array plus the geometry and counters the
// hit path touches, with no method call in the way. Everything aliases the
// Cache's own state — probes and fills through Cache methods and updates
// through Hot interleave coherently because they read and write the same
// words.
//
// The contract for one access to addr, matching Lookup word for word:
// tag = addr>>Shift, base = (tag&Mask)<<1; a way w matches when
// w&3 != 0 && w>>3 == tag. On a way-0 match store Ways[base]&^4 back and
// count *Hits; on a way-1 match store Ways[base]|4 back (way 1 becomes most
// recently used) and count *Hits; otherwise count *Misses.
type Hot struct {
	Ways   []uint64
	Mask   uint64 // sets-1
	Shift  uint8  // log2(lineSize)
	Hits   *uint64
	Misses *uint64
	// Invalidates backs Set(addr, Invalid), mirroring Cache.SetState's
	// bookkeeping so snoops through either interface count identically.
	Invalidates *uint64
	// Evictions and Writebacks back a fill inlined through the view,
	// mirroring Cache.Fill's victim bookkeeping.
	Evictions  *uint64
	Writebacks *uint64
}

// Probe reports the state of addr without touching LRU or statistics,
// mirroring Cache.Probe for the two-way geometry. Unlike the method on
// Cache it is small enough to inline into a snoop loop.
func (h *Hot) Probe(addr uint64) (State, bool) {
	tag := addr >> h.Shift
	base := (tag & h.Mask) << 1
	if w := h.Ways[base]; w&wayStateMask != 0 && w>>wayTagShift == tag {
		return State(w & wayStateMask), true
	}
	if w := h.Ways[base+1]; w&wayStateMask != 0 && w>>wayTagShift == tag {
		return State(w & wayStateMask), true
	}
	return Invalid, false
}

// Set changes the state of a resident line, mirroring Cache.SetState word
// for word: a no-op when absent, Invalid clears only the state bits (the
// way's LRU standing survives) and counts an invalidation.
func (h *Hot) Set(addr uint64, st State) {
	tag := addr >> h.Shift
	base := (tag & h.Mask) << 1
	i := base
	w := h.Ways[i]
	if w&wayStateMask == 0 || w>>wayTagShift != tag {
		i = base + 1
		w = h.Ways[i]
		if w&wayStateMask == 0 || w>>wayTagShift != tag {
			return
		}
	}
	// Invalid's state bits are zero, so one masked store covers both the
	// invalidation and the downgrade case.
	h.Ways[i] = w&^wayStateMask | uint64(st)
	if st == Invalid {
		*h.Invalidates++
	}
}

// Hot returns the flattened fast-path view, or ok=false when the geometry
// is not two-way with a power-of-two line size and the caller must stay on
// Lookup.
func (c *Cache) Hot() (Hot, bool) {
	if !c.two {
		return Hot{}, false
	}
	return Hot{
		Ways:        c.lines,
		Mask:        uint64(c.sets - 1),
		Shift:       uint8(c.lineShift),
		Hits:        &c.stats.Hits,
		Misses:      &c.stats.Misses,
		Invalidates: &c.stats.Invalidates,
		Evictions:   &c.stats.Evictions,
		Writebacks:  &c.stats.Writebacks,
	}, true
}

// Probe reports the state of addr without touching LRU or statistics
// (a snoop from another processor).
func (c *Cache) Probe(addr uint64) (State, bool) {
	if c.two {
		tag := addr >> uint8(c.lineShift)
		base := (int(tag) & (c.sets - 1)) << 1
		if w := c.lines[base]; w&wayStateMask != 0 && w>>wayTagShift == tag {
			return State(w & wayStateMask), true
		}
		if w := c.lines[base+1]; w&wayStateMask != 0 && w>>wayTagShift == tag {
			return State(w & wayStateMask), true
		}
		return Invalid, false
	}
	tag := c.lineTag(addr)
	base := (int(tag) & (c.sets - 1)) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		w := c.lines[i]
		if w&wayStateMask != 0 && w>>wayTagShift == tag {
			return State(w & wayStateMask), true
		}
	}
	return Invalid, false
}

// Fill inserts addr with the given state, evicting the LRU line of the set
// if needed. It returns the evicted line's byte address and whether it was
// Modified (needing a write-back); evicted is false when an invalid way was
// available. Filling a line that is already present just updates its state.
// A fill counts as a touch for LRU purposes.
func (c *Cache) Fill(addr uint64, st State) (evictedAddr uint64, writeback, evicted bool) {
	if st == Invalid {
		panic("cache: Fill with Invalid state")
	}
	if !c.two {
		return c.fillGeneric(addr, st)
	}
	tag := addr >> uint8(c.lineShift)
	base := (int(tag) & (c.sets - 1)) << 1
	w0 := c.lines[base]
	w1 := c.lines[base+1]
	if w0&wayStateMask != 0 && w0>>wayTagShift == tag {
		// Refill of a resident line: new state, way 0 becomes MRU.
		c.lines[base] = packWay(tag, st)
		return 0, false, false
	}
	if w1&wayStateMask != 0 && w1>>wayTagShift == tag {
		c.lines[base+1] = packWay(tag, st)
		c.lines[base] = w0 | wayMRU1
		return 0, false, false
	}
	// Victim: first invalid way, else the not-most-recently-used way —
	// identical to timestamped LRU at associativity two.
	v := 0
	switch {
	case w0&wayStateMask == 0:
	case w1&wayStateMask == 0:
		v = 1
	default:
		if w0&wayMRU1 == 0 {
			v = 1
		}
		ev := c.lines[base+v]
		c.stats.Evictions++
		if State(ev&wayStateMask) == Modified {
			c.stats.Writebacks++
			writeback = true
		}
		evictedAddr = ev >> wayTagShift << uint8(c.lineShift)
		evicted = true
	}
	if v == 0 {
		c.lines[base] = packWay(tag, st) // bit 2 clear: way 0 is MRU
	} else {
		c.lines[base+1] = packWay(tag, st)
		c.lines[base] = w0 | wayMRU1
	}
	return evictedAddr, writeback, evicted
}

// fillGeneric is Fill for any other geometry, with order-word LRU.
func (c *Cache) fillGeneric(addr uint64, st State) (evictedAddr uint64, writeback, evicted bool) {
	tag := c.lineTag(addr)
	set := int(tag) & (c.sets - 1)
	base := set * c.assoc
	victim := -1 // first invalid way, if any
	for i := base; i < base+c.assoc; i++ {
		w := c.lines[i]
		if w&wayStateMask == 0 {
			if victim < 0 {
				victim = i
			}
			continue
		}
		if w>>wayTagShift == tag {
			c.lines[i] = packWay(tag, st)
			c.touch(set, i-base)
			return 0, false, false
		}
	}
	if victim < 0 {
		// Every way is valid: evict the least recently used.
		victim = base + int(c.order[set]>>(4*uint(c.assoc-1))&15)
		ev := c.lines[victim]
		c.stats.Evictions++
		if State(ev&wayStateMask) == Modified {
			c.stats.Writebacks++
			writeback = true
		}
		evictedAddr, evicted = wayTag(ev)*uint64(c.lineSize), true
	}
	c.lines[victim] = packWay(tag, st)
	c.touch(set, victim-base)
	return evictedAddr, writeback, evicted
}

// SetState changes the state of a resident line (e.g. a snoop downgrade
// Modified→Shared). It is a no-op if the line is absent. Setting Invalid
// invalidates the line, as Take does; the way's LRU standing is untouched
// either way.
func (c *Cache) SetState(addr uint64, st State) {
	if st == Invalid {
		c.Take(addr)
		return
	}
	tag := c.lineTag(addr)
	base := (int(tag) & (c.sets - 1)) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if w := c.lines[i]; w&wayStateMask != 0 && w>>wayTagShift == tag {
			c.lines[i] = w&^wayStateMask | uint64(st)
			return
		}
	}
}

// Take invalidates addr if it is resident, counting one invalidation, and
// reports whether it was: Probe and SetState(addr, Invalid) in one set
// scan.
func (c *Cache) Take(addr uint64) bool {
	tag := c.lineTag(addr)
	base := (int(tag) & (c.sets - 1)) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if w := c.lines[i]; w&wayStateMask != 0 && w>>wayTagShift == tag {
			// Clear the state bits only: the MRU bit (meaningful on way 0
			// of a two-way set) survives the line's death, as the order
			// word does.
			c.lines[i] = w &^ wayStateMask
			c.stats.Invalidates++
			return true
		}
	}
	return false
}

// Flush invalidates every line and returns how many were Modified. Each
// valid line killed counts toward Stats.Invalidates, the same as a
// coherence invalidation through SetState.
func (c *Cache) Flush() (dirty int) {
	for i, w := range c.lines {
		switch State(w & wayStateMask) {
		case Invalid:
			continue
		case Modified:
			dirty++
		}
		c.lines[i] = w &^ wayStateMask
		c.stats.Invalidates++
	}
	return dirty
}

// Lines calls fn for every valid line with its line address (byte address
// divided by the line size) and state. Iteration order is unspecified.
func (c *Cache) Lines(fn func(lineAddr uint64, st State)) {
	for _, w := range c.lines {
		if w&wayStateMask != 0 {
			fn(wayTag(w), State(w&wayStateMask))
		}
	}
}

// Resident returns the number of valid lines (for tests and occupancy
// statistics).
func (c *Cache) Resident() int {
	n := 0
	for _, w := range c.lines {
		if w&wayStateMask != 0 {
			n++
		}
	}
	return n
}
