package experiments

import (
	"math/bits"

	"memhier/internal/sim/backend"
	"memhier/internal/trace"
)

// SharingStats summarizes the cross-machine data sharing of a
// multiprocessor address stream, measured without any timing simulation —
// the model inputs that reconstruct the communication term of the paper's
// cluster formulas (DESIGN.md §4).
type SharingStats struct {
	// RemoteShare is the fraction of references touching DSM blocks homed
	// (first touched) on a different machine.
	RemoteShare float64
	// CoherenceMissRate is the fraction of references that re-touch a
	// block another machine wrote since this machine's previous access:
	// an invalidation-induced miss under write-invalidate coherence,
	// independent of cache capacity.
	CoherenceMissRate float64
}

// MaxSharingMachines bounds the machines MeasureSharing tells apart: it
// keeps one bit per machine in a 64-bit word.
const MaxSharingMachines = 64

// MeasureSharing analyzes the trace with streams merged round-robin (the
// simulators' first-touch placement emerges from each process initializing
// its own partition first). procsPerNode groups the trace's CPUs into
// machines; a value below 1 counts as 1. The measurement's domain is at
// most MaxSharingMachines machines: beyond that, machine m shares machine
// m mod 64's coherence bit and the coherence miss rate is wrong, so
// callers taking the grouping from outside the program must check it
// (chc trace does).
func MeasureSharing(tr *trace.Trace, procsPerNode int) SharingStats {
	if procsPerNode < 1 {
		procsPerNode = 1
	}
	var blocks sharingTable
	var refs, remote, coherence uint64
	idx := make([]int, len(tr.Streams))
	nodes := make([]int, len(tr.Streams))
	for cpu := range nodes {
		nodes[cpu] = cpu / procsPerNode
	}
	for {
		progressed := false
		for cpu, s := range tr.Streams {
			if idx[cpu] >= len(s.Events) {
				continue
			}
			e := s.Events[idx[cpu]]
			idx[cpu]++
			progressed = true
			if e.Kind != trace.Read && e.Kind != trace.Write {
				continue
			}
			node := nodes[cpu]
			bit := uint64(1) << uint(node%64)
			st := blocks.getOrCreate(e.Addr/backend.DSMBlockSize, node)
			refs++
			if st.home != int32(node) {
				remote++
			}
			// A re-reference by a node whose copy was invalidated by a
			// foreign write is a coherence miss.
			if st.seen&bit != 0 && st.valid&bit == 0 {
				coherence++
			}
			st.seen |= bit
			if e.Kind == trace.Write {
				st.valid = bit
			} else {
				st.valid |= bit
			}
		}
		if !progressed {
			break
		}
	}
	if refs == 0 {
		return SharingStats{}
	}
	return SharingStats{
		RemoteShare:       float64(remote) / float64(refs),
		CoherenceMissRate: float64(coherence) / float64(refs),
	}
}

// sharingEnt is one block's sharing state.
type sharingEnt struct {
	block uint64 // sharingEmpty marks a free slot
	valid uint64 // machines whose copy survived the last foreign write
	seen  uint64 // machines that ever touched the block
	home  int32  // first-touch machine
}

// sharingEmpty is the free-slot sentinel. Blocks are byte addresses divided
// by DSMBlockSize, so with addresses bounded by trace.MaxAddr no real
// block key reaches it.
const sharingEmpty = ^uint64(0)

// sharingTable maps block -> sharingEnt with open addressing (linear
// probing, Fibonacci hashing), in the shape of the simulator's directory
// table. It starts small and doubles at 75% load, so it is sized by the
// distinct blocks touched — a few hundred to a few thousand for the
// reduced-scale traces — not by the trace length or the address range.
type sharingTable struct {
	slots []sharingEnt
	shift uint // 64 - log2(len(slots)): Fibonacci hash to a slot index
	n     int  // occupied slots
}

// getOrCreate returns the entry for block, creating it with the given
// home on first touch. The pointer is valid until the next call.
func (t *sharingTable) getOrCreate(block uint64, home int) *sharingEnt {
	if t.n >= len(t.slots)-len(t.slots)/4 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := (block * 0x9E3779B97F4A7C15) >> t.shift
	for {
		s := &t.slots[i]
		if s.block == block {
			return s
		}
		if s.block == sharingEmpty {
			*s = sharingEnt{block: block, home: int32(home)}
			t.n++
			return s
		}
		i = (i + 1) & mask
	}
}

func (t *sharingTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = 1 << 10
	}
	t.slots = make([]sharingEnt, size)
	for i := range t.slots {
		t.slots[i].block = sharingEmpty
	}
	t.shift = uint(64 - bits.Len(uint(size-1)))
	mask := uint64(size - 1)
	for _, e := range old {
		if e.block == sharingEmpty {
			continue
		}
		i := (e.block * 0x9E3779B97F4A7C15) >> t.shift
		for t.slots[i].block != sharingEmpty {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// RemoteShareOf returns only the remote-home share; see MeasureSharing.
func RemoteShareOf(tr *trace.Trace, procsPerNode int) float64 {
	return MeasureSharing(tr, procsPerNode).RemoteShare
}
