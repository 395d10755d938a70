package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	c := New(256<<10, 64, 2)
	if c.Sets() != 2048 || c.Assoc() != 2 || c.LineSize() != 64 {
		t.Errorf("geometry: sets=%d assoc=%d line=%d", c.Sets(), c.Assoc(), c.LineSize())
	}
}

func TestNewPanics(t *testing.T) {
	cases := [][3]int{
		{0, 64, 2}, {256, 0, 2}, {256, 64, 0},
		{100, 64, 2},        // not a multiple of line*assoc
		{64 * 2 * 3, 64, 2}, // 3 sets: not a power of two
		{64 * 32, 64, 32},   // wider than one order word
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", tc)
				}
			}()
			New(tc[0], tc[1], tc[2])
		}()
	}
}

func TestLookupFillBasics(t *testing.T) {
	c := New(256, 64, 2) // 2 sets x 2 ways
	if _, hit := c.Lookup(0); hit {
		t.Error("cold lookup hit")
	}
	c.Fill(0, Shared)
	if st, hit := c.Lookup(0); !hit || st != Shared {
		t.Errorf("after fill: %v %v", st, hit)
	}
	// Same line, different offset.
	if st, hit := c.Lookup(63); !hit || st != Shared {
		t.Errorf("same-line offset: %v %v", st, hit)
	}
	// Next line maps to the other set.
	if _, hit := c.Lookup(64); hit {
		t.Error("different line hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(256, 64, 2) // 2 sets x 2 ways; lines 0,128,256... map to set 0
	c.Fill(0, Shared)
	c.Fill(128, Shared)
	c.Lookup(0) // make line 0 most recently used
	ev, wb, evicted := c.Fill(256, Shared)
	if !evicted || wb || ev != 128 {
		t.Errorf("eviction: addr=%d wb=%v evicted=%v (want 128, clean)", ev, wb, evicted)
	}
	if _, hit := c.Probe(0); !hit {
		t.Error("MRU line evicted")
	}
	if _, hit := c.Probe(128); hit {
		t.Error("LRU line survived")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(256, 64, 2)
	c.Fill(0, Modified)
	c.Fill(128, Shared)
	c.Lookup(128)
	ev, wb, evicted := c.Fill(256, Shared)
	if !evicted || !wb || ev != 0 {
		t.Errorf("dirty eviction: addr=%d wb=%v evicted=%v", ev, wb, evicted)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestFillExistingUpdatesState(t *testing.T) {
	c := New(256, 64, 2)
	c.Fill(0, Shared)
	_, _, evicted := c.Fill(0, Modified)
	if evicted {
		t.Error("refill evicted")
	}
	if st, _ := c.Probe(0); st != Modified {
		t.Errorf("state = %v, want M", st)
	}
	if c.Resident() != 1 {
		t.Errorf("resident = %d", c.Resident())
	}
}

func TestFillInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Fill(Invalid) did not panic")
		}
	}()
	New(256, 64, 2).Fill(0, Invalid)
}

func TestSetStateAndInvalidate(t *testing.T) {
	c := New(256, 64, 2)
	c.Fill(0, Modified)
	c.SetState(0, Shared)
	if st, _ := c.Probe(0); st != Shared {
		t.Errorf("downgrade failed: %v", st)
	}
	c.SetState(0, Invalid)
	if _, hit := c.Probe(0); hit {
		t.Error("invalidate failed")
	}
	if c.Stats().Invalidates != 1 {
		t.Errorf("invalidates = %d", c.Stats().Invalidates)
	}
	// No-op on absent line.
	c.SetState(512, Modified)
	if _, hit := c.Probe(512); hit {
		t.Error("SetState created a line")
	}
}

func TestProbeDoesNotDisturbLRU(t *testing.T) {
	c := New(256, 64, 2)
	c.Fill(0, Shared)
	c.Fill(128, Shared)
	// Probing 0 must NOT make it MRU.
	c.Probe(0)
	ev, _, _ := c.Fill(256, Shared)
	if ev != 0 {
		t.Errorf("probe refreshed LRU: evicted %d, want 0", ev)
	}
}

func TestFlush(t *testing.T) {
	c := New(256, 64, 2)
	c.Fill(0, Modified)
	c.Fill(64, Shared)
	if dirty := c.Flush(); dirty != 1 {
		t.Errorf("Flush dirty = %d", dirty)
	}
	if c.Resident() != 0 {
		t.Errorf("resident after flush = %d", c.Resident())
	}
}

func TestFlushCountsInvalidates(t *testing.T) {
	c := New(256, 64, 2)
	c.Fill(0, Modified)
	c.Fill(64, Shared)
	c.Fill(128, Exclusive)
	base := c.Stats().Invalidates
	c.Flush()
	if got := c.Stats().Invalidates - base; got != 3 {
		t.Errorf("Flush of 3 valid lines recorded %d invalidates, want 3", got)
	}
	// A second flush finds only invalid lines and must not count again.
	c.Flush()
	if got := c.Stats().Invalidates - base; got != 3 {
		t.Errorf("flushing an empty cache recorded extra invalidates: %d, want 3", got)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Error("state mnemonics wrong")
	}
	if State(7).String() == "" {
		t.Error("unknown state empty")
	}
}

// TestMatchesFullyAssociativeWhenOneSet cross-checks the LRU logic against
// a simple reference model when the cache degenerates to fully associative.
func TestMatchesFullyAssociativeWhenOneSet(t *testing.T) {
	const ways = 8
	c := New(64*ways, 64, ways) // one set
	var ref []uint64            // reference LRU stack, MRU first
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(32)) * 64
		_, hit := c.Lookup(addr)
		wantHit := false
		for j, a := range ref {
			if a == addr {
				wantHit = true
				ref = append(ref[:j], ref[j+1:]...)
				break
			}
		}
		ref = append([]uint64{addr}, ref...)
		if len(ref) > ways {
			ref = ref[:ways]
		}
		if hit != wantHit {
			t.Fatalf("step %d addr %d: hit=%v want %v", i, addr, hit, wantHit)
		}
		if !hit {
			c.Fill(addr, Shared)
		}
	}
}

func TestResidentNeverExceedsCapacity(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(1024, 64, 2) // 16 lines
		for _, a := range addrs {
			if _, hit := c.Lookup(uint64(a)); !hit {
				c.Fill(uint64(a), Shared)
			}
		}
		return c.Resident() <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// stampCache is a reference model of generic-associativity LRU: one
// timestamp per way, the victim the first invalid way or else the valid
// way with the oldest stamp. The order word must choose the same victims.
type stampCache struct {
	sets, assoc, line int
	tags              []uint64
	valid             []bool
	used              []uint64
	tick              uint64
}

func newStampCache(size, line, assoc int) *stampCache {
	n := size / line
	return &stampCache{sets: n / assoc, assoc: assoc, line: line,
		tags: make([]uint64, n), valid: make([]bool, n), used: make([]uint64, n)}
}

func (m *stampCache) find(addr uint64) (base, way int) {
	tag := addr / uint64(m.line)
	base = int(tag) & (m.sets - 1) * m.assoc
	for i := base; i < base+m.assoc; i++ {
		if m.valid[i] && m.tags[i] == tag {
			return base, i
		}
	}
	return base, -1
}

func (m *stampCache) lookup(addr uint64) bool {
	m.tick++
	_, i := m.find(addr)
	if i >= 0 {
		m.used[i] = m.tick
	}
	return i >= 0
}

func (m *stampCache) fill(addr uint64) (uint64, bool) {
	m.tick++
	base, i := m.find(addr)
	if i >= 0 {
		m.used[i] = m.tick
		return 0, false
	}
	victim := -1
	for j := base; j < base+m.assoc && victim < 0; j++ {
		if !m.valid[j] {
			victim = j
		}
	}
	var ev uint64
	evicted := victim < 0
	if evicted {
		victim = base
		for j := base; j < base+m.assoc; j++ {
			if m.used[j] < m.used[victim] {
				victim = j
			}
		}
		ev = m.tags[victim] * uint64(m.line)
	}
	m.tags[victim], m.valid[victim], m.used[victim] = addr/uint64(m.line), true, m.tick
	return ev, evicted
}

func (m *stampCache) invalidate(addr uint64) bool {
	_, i := m.find(addr)
	if i >= 0 {
		m.valid[i] = false
	}
	return i >= 0
}

// TestOrderWordMatchesTimestampLRU drives the order-word LRU and the
// timestamp reference with the same random lookups, fills, invalidations
// and takes, for every associativity up to maxAssoc and a line size that
// is not a power of two, and requires the same hits and the same victims.
func TestOrderWordMatchesTimestampLRU(t *testing.T) {
	for _, g := range [][3]int{ // size, line, assoc
		{64 * 8, 64, 1}, {48 * 2 * 4, 48, 2}, {64 * 4 * 4, 64, 4},
		{64 * 8 * 4, 64, 8}, {64 * 8, 64, 8}, {64 * 16 * 2, 64, 16},
	} {
		c := New(g[0], g[1], g[2])
		m := newStampCache(g[0], g[1], g[2])
		rng := rand.New(rand.NewSource(int64(g[2])))
		span := 3 * g[0] / g[1]
		for step := 0; step < 20000; step++ {
			addr := uint64(rng.Intn(span)) * uint64(g[1])
			switch op := rng.Intn(10); {
			case op < 5:
				_, hit := c.Lookup(addr)
				if want := m.lookup(addr); hit != want {
					t.Fatalf("geometry %v step %d: Lookup(%#x) hit=%v, want %v", g, step, addr, hit, want)
				}
			case op < 8:
				ev, _, evicted := c.Fill(addr, Shared)
				wantEv, wantEvicted := m.fill(addr)
				if ev != wantEv || evicted != wantEvicted {
					t.Fatalf("geometry %v step %d: Fill(%#x) evicted (%#x, %v), want (%#x, %v)",
						g, step, addr, ev, evicted, wantEv, wantEvicted)
				}
			case op < 9:
				if got, want := c.Take(addr), m.invalidate(addr); got != want {
					t.Fatalf("geometry %v step %d: Take(%#x)=%v, want %v", g, step, addr, got, want)
				}
			default:
				c.SetState(addr, Invalid)
				m.invalidate(addr)
			}
		}
	}
}

func TestTake(t *testing.T) {
	c := New(64*8*2, 64, 8)
	c.Fill(0, Shared)
	c.Fill(128, Modified)
	if c.Take(64) {
		t.Error("Take of an absent line reported a copy")
	}
	if !c.Take(128) {
		t.Error("Take of a resident line reported none")
	}
	if _, ok := c.Probe(128); ok {
		t.Error("line still resident after Take")
	}
	if c.Take(128) {
		t.Error("second Take of the same line reported a copy")
	}
	if got := c.Stats().Invalidates; got != 1 {
		t.Errorf("Invalidates = %d, want 1", got)
	}
	if _, ok := c.Probe(0); !ok {
		t.Error("Take disturbed another line")
	}
}
