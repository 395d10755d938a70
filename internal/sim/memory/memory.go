// Package memory models a machine's main-memory capacity as an LRU-managed
// set of resident pages backed by disk: the level-2/level-4 capacity of the
// paper's hierarchy. An access to a non-resident page costs a disk transfer
// and displaces the least recently used page.
//
//chc:deterministic
package memory

import "fmt"

// PageSize is the residency granule in bytes.
const PageSize = 4096

// slot is one resident page in the intrusive LRU list. Slots live in a
// single slice and link by index, so steady-state residency tracking does
// no per-page allocation (unlike container/list, which allocates an
// Element per insertion on the simulator's hot path).
type slot struct {
	page       uint64
	prev, next int32 // LRU list links; slot indexes, -1 terminates
	hnext      int32 // hash-chain link; slot index, -1 terminates
	dirty      bool
}

// Memory tracks page residency with LRU replacement and per-page dirty
// bits: evicting a dirty page costs a disk write on top of the fill read.
//
// Residency lookups go through an intrusive chained hash table (buckets of
// slot indexes linked by slot.hnext) instead of a Go map: the simulator
// touches memory on every cache miss, and the map's hashing and bucket
// probing dominated that path. The table and the slots grow with the
// resident pages, not with the capacity: a run touches a few hundred pages
// of a capacity of up to millions.
type Memory struct {
	capacity int // pages
	buckets  []int32
	mask     uint64
	slots    []slot
	head     int32 // most recently used; -1 when empty
	tail     int32 // least recently used; -1 when empty

	faults     uint64
	accesses   uint64
	writebacks uint64
}

// minBuckets is the bucket count of a new memory's hash table.
const minBuckets = 64

// New returns a memory of the given byte capacity (at least one page). It
// allocates a minimal table; the table doubles as pages fault in, so a
// memory costs what its resident pages cost, whatever its capacity.
func New(bytes int64) *Memory {
	pages := int(bytes / PageSize)
	if pages < 1 {
		pages = 1
	}
	m := &Memory{capacity: pages, head: -1, tail: -1}
	m.rehash(minBuckets)
	return m
}

// rehash replaces the bucket table with nb empty buckets (a power of two)
// and relinks every resident page into it. Chain order within a bucket
// carries no meaning, so rehashing changes no result.
func (m *Memory) rehash(nb int) {
	m.buckets = make([]int32, nb)
	for i := range m.buckets {
		m.buckets[i] = -1
	}
	m.mask = uint64(nb - 1)
	for i := range m.slots {
		b := m.bucket(m.slots[i].page)
		m.slots[i].hnext = *b
		*b = int32(i)
	}
}

// Pages returns the page capacity.
func (m *Memory) Pages() int { return m.capacity }

func (m *Memory) bucket(page uint64) *int32 {
	return &m.buckets[(page*0x9E3779B97F4A7C15>>32)&m.mask]
}

// find returns the slot index holding page, or -1.
func (m *Memory) find(page uint64) int32 {
	for i := *m.bucket(page); i >= 0; i = m.slots[i].hnext {
		if m.slots[i].page == page {
			return i
		}
	}
	return -1
}

// chainRemove unlinks slot i (holding page) from its hash chain.
func (m *Memory) chainRemove(i int32) {
	p := m.bucket(m.slots[i].page)
	for *p != i {
		p = &m.slots[*p].hnext
	}
	*p = m.slots[i].hnext
}

// unlink removes slot i from the LRU list.
func (m *Memory) unlink(i int32) {
	s := &m.slots[i]
	if s.prev >= 0 {
		m.slots[s.prev].next = s.next
	} else {
		m.head = s.next
	}
	if s.next >= 0 {
		m.slots[s.next].prev = s.prev
	} else {
		m.tail = s.prev
	}
}

// toFront makes slot i the most recently used.
func (m *Memory) toFront(i int32) {
	if m.head == i {
		return
	}
	m.unlink(i)
	s := &m.slots[i]
	s.prev = -1
	s.next = m.head
	if m.head >= 0 {
		m.slots[m.head].prev = i
	}
	m.head = i
	if m.tail < 0 {
		m.tail = i
	}
}

// Touch accesses the page holding addr. It reports whether the page was
// resident; on a fault the page is brought in, evicting the LRU page if
// the memory is full.
func (m *Memory) Touch(addr uint64) (resident bool) {
	resident, _ = m.TouchW(addr, false)
	return resident
}

// TouchW accesses the page holding addr, marking it dirty on a write. On a
// fault it brings the page in, evicting the LRU page if the memory is
// full; evictedDirty reports whether that victim needed a disk write-back.
func (m *Memory) TouchW(addr uint64, write bool) (resident, evictedDirty bool) {
	m.accesses++
	page := addr / PageSize
	if i := m.find(page); i >= 0 {
		m.toFront(i)
		if write {
			m.slots[i].dirty = true
		}
		return true, false
	}
	m.faults++
	var i int32
	if len(m.slots) < m.capacity {
		// Keep at least two buckets per resident page, so chains stay at
		// one or two links.
		if 2*len(m.slots) >= len(m.buckets) {
			m.rehash(2 * len(m.buckets))
		}
		i = int32(len(m.slots))
		m.slots = append(m.slots, slot{})
	} else {
		// Full: reuse the LRU victim's slot.
		i = m.tail
		victim := &m.slots[i]
		if victim.dirty {
			evictedDirty = true
			m.writebacks++
		}
		m.chainRemove(i)
		m.unlink(i)
	}
	b := m.bucket(page)
	m.slots[i] = slot{page: page, prev: -1, next: m.head, hnext: *b, dirty: write}
	*b = i
	if m.head >= 0 {
		m.slots[m.head].prev = i
	}
	m.head = i
	if m.tail < 0 {
		m.tail = i
	}
	return false, evictedDirty
}

// Writebacks returns the number of dirty pages written back on eviction.
func (m *Memory) Writebacks() uint64 { return m.writebacks }

// Resident returns the number of resident pages; every slot holds one.
func (m *Memory) Resident() int { return len(m.slots) }

// Faults returns the number of page faults (disk transfers).
func (m *Memory) Faults() uint64 { return m.faults }

// Accesses returns the number of Touch calls.
func (m *Memory) Accesses() uint64 { return m.accesses }

// String summarizes occupancy.
func (m *Memory) String() string {
	return fmt.Sprintf("memory{%d/%d pages, %d faults}", len(m.slots), m.capacity, m.faults)
}
