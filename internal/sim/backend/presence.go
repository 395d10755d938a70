package backend

// presenceSaturated is the counter value that means "too many to count":
// a saturated counter never decrements again.
const presenceSaturated = 0xff

// presenceFilter is a counting filter over each node's deep (L2/L3)
// hierarchies: per node, an array of saturating 8-bit counters indexed by
// a hash of the line address. A counter holds at least the number of deep
// copies, across every processor of the node, whose lines hash to it. So a
// zero counter proves that no deep cache in the node holds the line, and
// the sibling sweeps that every write takes (almost always fruitless) skip
// their set scans. A non-zero counter only means "maybe": the caller then
// probes as before.
//
// The count is one-sided on purpose. Collisions and saturation make it
// over-count, which costs probes but never a result; an under-count would
// skip a live copy and break coherence, so every path that installs a deep
// line increments before any path can remove it, and a saturated counter,
// whose true count is unknown, stays saturated.
type presenceFilter struct {
	counts []uint8 // node-major: node<<bits | bucket
	bits   uint8   // log2(buckets per node)
}

// newPresenceFilter sizes the filter at 2–4 buckets per deep line a node
// can hold, which keeps most buckets of a full hierarchy empty.
func newPresenceFilter(nodes, linesPerNode int) presenceFilter {
	bits := uint8(1)
	for 1<<bits < 2*linesPerNode {
		bits++
	}
	return presenceFilter{counts: make([]uint8, nodes<<bits), bits: bits}
}

// slot returns the index of the counter that covers addr's line on node.
// Fibonacci hashing spreads the power-of-two strides of the kernels'
// partitions, which a plain low-bits index would alias.
func (f *presenceFilter) slot(node int, addr uint64) int {
	line := addr / CacheLineSize
	return node<<f.bits | int(line*0x9e3779b97f4a7c15>>(64-f.bits))
}

// add counts one deep copy installed under counter i.
func (f *presenceFilter) add(i int) {
	if f.counts[i] != presenceSaturated {
		f.counts[i]++
	}
}

// remove uncounts one deep copy that left under counter i.
func (f *presenceFilter) remove(i int) {
	if f.counts[i] != presenceSaturated {
		f.counts[i]--
	}
}
