package backend

// heapEnt is one ready-queue entry: a processor's current clock and its
// index. The queue orders entries by (clock, cpu); cpu doubles as the FIFO
// tiebreak for determinism, since processors enter the queue in CPU order.
type heapEnt struct {
	clock float64
	cpu   int32
}

// entLess is the ready-queue ordering: earliest clock first, lowest CPU on
// ties. Keys are unique (one entry per CPU), so the pop sequence is fully
// determined regardless of how a queue arranges its entries.
func entLess(a, b heapEnt) bool {
	// The == is an exact tiebreak inside a total order, not an arithmetic
	// comparison: two clocks either are the same bits (tie → cpu decides)
	// or they are not. A tolerance here would make the order intransitive.
	//chc:allow floateq -- exact tiebreak in a comparator
	return a.clock < b.clock || (a.clock == b.clock && a.cpu < b.cpu)
}
