package memory

import (
	"container/list"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestTouchFaultsAndResidency(t *testing.T) {
	m := New(2 * PageSize)
	if m.Pages() != 2 {
		t.Fatalf("Pages = %d", m.Pages())
	}
	if m.Touch(0) {
		t.Error("cold touch resident")
	}
	if !m.Touch(100) {
		t.Error("same page faulted")
	}
	if m.Touch(PageSize) {
		t.Error("second page resident")
	}
	if m.Resident() != 2 || m.Faults() != 2 || m.Accesses() != 3 {
		t.Errorf("state: resident=%d faults=%d accesses=%d", m.Resident(), m.Faults(), m.Accesses())
	}
}

func TestLRUReplacement(t *testing.T) {
	m := New(2 * PageSize)
	m.Touch(0 * PageSize)
	m.Touch(1 * PageSize)
	m.Touch(0 * PageSize)       // page 0 now MRU
	m.Touch(2 * PageSize)       // evicts page 1
	if !m.Touch(0 * PageSize) { // still resident
		t.Error("MRU page evicted")
	}
	if m.Touch(1 * PageSize) { // was evicted
		t.Error("LRU page survived")
	}
}

func TestMinimumOnePage(t *testing.T) {
	m := New(10) // less than a page
	if m.Pages() != 1 {
		t.Errorf("Pages = %d, want 1", m.Pages())
	}
	m.Touch(0)
	m.Touch(PageSize)
	if m.Resident() != 1 {
		t.Errorf("resident = %d, want 1", m.Resident())
	}
}

func TestString(t *testing.T) {
	m := New(PageSize)
	if !strings.Contains(m.String(), "pages") {
		t.Errorf("String = %q", m.String())
	}
}

func TestResidencyBounded(t *testing.T) {
	f := func(pages []uint8, capRaw uint8) bool {
		capacity := int64(capRaw%8+1) * PageSize
		m := New(capacity)
		for _, p := range pages {
			m.Touch(uint64(p) * PageSize)
		}
		return m.Resident() <= m.Pages()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorkingSetWithinCapacityNeverRefaults(t *testing.T) {
	m := New(8 * PageSize)
	// Warm four pages, then touch them repeatedly: no more faults.
	for i := uint64(0); i < 4; i++ {
		m.Touch(i * PageSize)
	}
	before := m.Faults()
	for round := 0; round < 10; round++ {
		for i := uint64(0); i < 4; i++ {
			if !m.Touch(i * PageSize) {
				t.Fatalf("refault of warm page %d", i)
			}
		}
	}
	if m.Faults() != before {
		t.Errorf("faults grew from %d to %d", before, m.Faults())
	}
}

func TestDirtyPageWriteback(t *testing.T) {
	m := New(2 * PageSize)
	if _, d := m.TouchW(0, true); d {
		t.Error("first fault cannot evict")
	}
	m.TouchW(PageSize, false) // clean page
	// Evict the clean page (LRU): no write-back. Page 0 was touched first,
	// so refresh it to make page 1 the victim.
	m.TouchW(0, false)
	if _, d := m.TouchW(2*PageSize, false); d {
		t.Error("clean victim should not write back")
	}
	// Now evict dirty page 0: it is LRU after the last two touches? Order:
	// MRU [2, 0], so touch a new page evicts 0 (dirty).
	if _, d := m.TouchW(3*PageSize, false); !d {
		t.Error("dirty victim should write back")
	}
	if m.Writebacks() != 1 {
		t.Errorf("Writebacks = %d, want 1", m.Writebacks())
	}
	// Re-faulting the written-back page is clean again.
	m.TouchW(0, false)
	m.TouchW(4*PageSize, false)
	if _, d := m.TouchW(5*PageSize, false); d {
		t.Error("page 0 should be clean after its write-back")
	}
}

// refLRU is the reference page pool: a map from page to its element in a
// recency list, most recently used at the front.
type refLRU struct {
	capacity   int
	pages      map[uint64]*list.Element
	order      *list.List // of *refPage
	faults     uint64
	writebacks uint64
}

type refPage struct {
	page  uint64
	dirty bool
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, pages: map[uint64]*list.Element{}, order: list.New()}
}

func (r *refLRU) touchW(addr uint64, write bool) (resident, evictedDirty bool) {
	page := addr / PageSize
	if e, ok := r.pages[page]; ok {
		r.order.MoveToFront(e)
		if write {
			e.Value.(*refPage).dirty = true
		}
		return true, false
	}
	r.faults++
	if r.order.Len() == r.capacity {
		victim := r.order.Remove(r.order.Back()).(*refPage)
		delete(r.pages, victim.page)
		if victim.dirty {
			evictedDirty = true
			r.writebacks++
		}
	}
	r.pages[page] = r.order.PushFront(&refPage{page: page, dirty: write})
	return false, evictedDirty
}

// TestMatchesReferenceLRU drives random read/write page sequences through
// Memory and the reference pool. Each capacity's sequence fills the memory,
// so the table doubles from its initial 64 buckets up to the size the
// capacity needs, and then keeps evicting.
func TestMatchesReferenceLRU(t *testing.T) {
	for _, pages := range []int{1, 40, 1024, 1<<16 + 4000} {
		m := New(int64(pages) * PageSize)
		ref := newRefLRU(pages)
		rng := rand.New(rand.NewSource(int64(pages)))
		span := uint64(pages + pages/2 + 8) // more pages than fit
		steps := 4*pages + 1000
		for step := 0; step < steps; step++ {
			addr := uint64(rng.Int63n(int64(span)))*PageSize + uint64(rng.Intn(PageSize))
			write := rng.Intn(3) == 0
			gotRes, gotDirty := m.TouchW(addr, write)
			wantRes, wantDirty := ref.touchW(addr, write)
			if gotRes != wantRes || gotDirty != wantDirty {
				t.Fatalf("capacity %d step %d: TouchW(%#x, %v) = (%v, %v), want (%v, %v)",
					pages, step, addr, write, gotRes, gotDirty, wantRes, wantDirty)
			}
		}
		if m.Resident() != ref.order.Len() || m.Faults() != ref.faults || m.Writebacks() != ref.writebacks {
			t.Errorf("capacity %d: resident %d faults %d writebacks %d, want %d %d %d", pages,
				m.Resident(), m.Faults(), m.Writebacks(), ref.order.Len(), ref.faults, ref.writebacks)
		}
		if m.Resident() != pages {
			t.Errorf("capacity %d: only %d pages resident; the sequence never filled the memory", pages, m.Resident())
		}
		// The table kept two buckets per resident page and grew no further.
		want := minBuckets
		for want < 2*m.Resident() {
			want *= 2
		}
		if len(m.buckets) != want {
			t.Errorf("capacity %d: %d buckets for %d resident pages, want %d", pages, len(m.buckets), m.Resident(), want)
		}
	}
}

var sink *Memory

// TestNewAllocatesMinimalTable pins that a memory's construction cost does
// not depend on its capacity.
func TestNewAllocatesMinimalTable(t *testing.T) {
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sink = New(64 << 30)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
		t.Errorf("New(64 GiB) allocates %d bytes, want under 1 KiB", per)
	}
	if sink.Pages() != 64<<30/PageSize {
		t.Errorf("Pages = %d, want %d", sink.Pages(), 64<<30/PageSize)
	}
}
