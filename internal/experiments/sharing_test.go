package experiments

import (
	"testing"

	"memhier/internal/machine"
	"memhier/internal/sim/backend"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

// measureSharingMap is the Go-map implementation MeasureSharing had before
// its open-addressing table, kept as the reference FuzzMeasureSharing
// compares against.
func measureSharingMap(tr *trace.Trace, procsPerNode int) SharingStats {
	if procsPerNode < 1 {
		procsPerNode = 1
	}
	type blockState struct {
		home  int
		valid uint64
		seen  uint64
	}
	blocks := map[uint64]blockState{}
	var refs, remote, coherence uint64
	idx := make([]int, len(tr.Streams))
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
			node := cpu / procsPerNode
			bit := uint64(1) << uint(node%64)
			block := e.Addr / backend.DSMBlockSize
			st, ok := blocks[block]
			if !ok {
				st = blockState{home: node}
			}
			refs++
			if st.home != node {
				remote++
			}
			if st.seen&bit != 0 && st.valid&bit == 0 {
				coherence++
			}
			st.seen |= bit
			if e.Kind == trace.Write {
				st.valid = bit
			} else {
				st.valid |= bit
			}
			blocks[block] = st
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

// FuzzMeasureSharing checks MeasureSharing against the map reference on
// random multi-CPU traces whose addresses span the whole simulable range.
// Each event is two bytes: CPU and kind from the first, and from the
// second one of a few block-sized neighbourhoods drawn from seed (so
// blocks are shared) plus an offset within it.
func FuzzMeasureSharing(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(1), []byte{0, 0, 1, 0, 0x10, 0, 1, 0})
	f.Add(uint64(0xdeadbeef), uint8(8), uint8(2), []byte("a shared block, written and re-read by every machine in turn"))
	f.Add(uint64(7), uint8(16), uint8(4), []byte{3, 250, 19, 251, 35, 7, 0x2f, 8, 0x11, 9, 0x21, 1, 5, 250})
	f.Fuzz(func(t *testing.T, seed uint64, ncpu, perNode uint8, data []byte) {
		ncpu = 1 + ncpu%16
		pn := 1 + int(perNode%4)
		var pool [8]uint64
		x := seed
		for i := range pool {
			x = x*6364136223846793005 + 1442695040888963407
			pool[i] = x % (trace.MaxAddr + 1)
		}
		tr := trace.New(int(ncpu))
		for i := 0; i+1 < len(data); i += 2 {
			s := tr.Streams[int(data[i]&0x0f)%int(ncpu)]
			addr := min(pool[data[i+1]&7]+uint64(data[i+1]>>3)*32, trace.MaxAddr)
			switch data[i] >> 4 & 3 {
			case 0, 1:
				s.AddRead(addr)
			case 2:
				s.AddWrite(addr)
			default:
				s.AddCompute(1)
			}
		}
		if got, want := MeasureSharing(tr, pn), measureSharingMap(tr, pn); got != want {
			t.Fatalf("MeasureSharing(%d CPUs, %d per node) = %+v, reference %+v", ncpu, pn, got, want)
		}
	})
}

// TestMeasureSharingTableGrowth drives more distinct blocks than the
// table's initial size, interleaved across machines, through both
// implementations.
func TestMeasureSharingTableGrowth(t *testing.T) {
	tr := trace.New(6)
	for i := uint64(0); i < 5000; i++ {
		cpu := int(i*7) % 6
		addr := (i * 0x9E3779B97F4A7C15) % (trace.MaxAddr + 1)
		tr.Streams[cpu].AddRead(addr)
		tr.Streams[(cpu+1)%6].AddWrite(addr)
		tr.Streams[(cpu+3)%6].AddRead(addr)
	}
	for _, pn := range []int{1, 2, 3} {
		if got, want := MeasureSharing(tr, pn), measureSharingMap(tr, pn); got != want {
			t.Errorf("per node %d: %+v, reference %+v", pn, got, want)
		}
	}
}

// BenchmarkMeasureSharing is the reproduction's sharing layer: each suite
// kernel under the five distinct (processors, processors per machine)
// groupings of the catalog's cluster configurations. Traces are generated
// outside the timer.
func BenchmarkMeasureSharing(b *testing.B) {
	type job struct {
		tr      *trace.Trace
		perNode int
	}
	var jobs []job
	seen := map[[2]int]bool{}
	for _, cfg := range machine.Catalog() {
		if k := [2]int{cfg.TotalProcs(), cfg.Procs}; cfg.N > 1 && !seen[k] {
			seen[k] = true
			for _, w := range workloads.Suite(workloads.ScaleSmall) {
				tr, err := workloads.GenerateTrace(w, k[0])
				if err != nil {
					b.Fatal(err)
				}
				jobs = append(jobs, job{tr, k[1]})
			}
		}
	}
	if len(seen) != 5 {
		b.Fatalf("%d catalog groupings, want 5", len(seen))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			MeasureSharing(j.tr, j.perNode)
		}
	}
}
