package backend

import (
	"math"
	"testing"

	"memhier/internal/machine"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

func smpConfig(n int) machine.Config {
	return machine.Config{Name: "test-smp", Kind: machine.SMP, N: 1, Procs: n,
		CacheBytes: 4 << 10, MemoryBytes: 1 << 20, Net: machine.NetNone, ClockMHz: 200}
}

func wsConfig(n int, net machine.NetworkKind) machine.Config {
	return machine.Config{Name: "test-ws", Kind: machine.ClusterWS, N: n, Procs: 1,
		CacheBytes: 4 << 10, MemoryBytes: 1 << 20, Net: net, ClockMHz: 200}
}

func csmpConfig(n, N int, net machine.NetworkKind) machine.Config {
	return machine.Config{Name: "test-csmp", Kind: machine.ClusterSMP, N: N, Procs: n,
		CacheBytes: 4 << 10, MemoryBytes: 1 << 20, Net: net, ClockMHz: 200}
}

func TestUniprocessorTiming(t *testing.T) {
	// One CPU, reads to two addresses in the same line, then a distinct
	// line: costs are exactly cache-hit and memory latencies.
	tr := trace.New(1)
	s := tr.Streams[0]
	s.AddRead(0)    // miss -> memory 50 (plus page fault on first page: disk 2000)
	s.AddRead(8)    // same line: hit, 1
	s.AddRead(4096) // miss, new page: memory + disk
	s.AddCompute(10)

	res, err := Simulate(tr, smpConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// First access: membus 50, page fault 2000 => completes at 2050.
	// Second: +1. Third: 50 + 2000 again. Compute: +10.
	want := 2050.0 + 1 + 2050 + 10
	if math.Abs(res.WallCycles-want) > 1e-9 {
		t.Errorf("WallCycles = %v, want %v", res.WallCycles, want)
	}
	if res.Stats.ClassCounts[ClassCacheHit] != 1 {
		t.Errorf("cache hits = %d, want 1", res.Stats.ClassCounts[ClassCacheHit])
	}
	if res.Stats.ClassCounts[ClassDisk] != 2 {
		t.Errorf("disk accesses = %d, want 2", res.Stats.ClassCounts[ClassDisk])
	}
	if res.Instructions != 13 {
		t.Errorf("instructions = %d, want 13", res.Instructions)
	}
}

func TestWarmPagesServeFromMemory(t *testing.T) {
	tr := trace.New(1)
	s := tr.Streams[0]
	s.AddRead(0) // faults the page in
	// Touch other lines of the now-resident page: memory latency only.
	s.AddRead(64)
	s.AddRead(128)
	res, err := Simulate(tr, smpConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ClassCounts[ClassLocalMemory] != 2 || res.Stats.ClassCounts[ClassDisk] != 1 {
		t.Errorf("classes: %+v", res.Stats.ClassCounts)
	}
	want := 2050.0 + 50 + 50
	if math.Abs(res.WallCycles-want) > 1e-9 {
		t.Errorf("WallCycles = %v, want %v", res.WallCycles, want)
	}
}

func TestSnoopingCacheToCacheTransfer(t *testing.T) {
	// CPU0 loads a line; CPU1 then reads it: must be a 15-cycle
	// cache-to-cache transfer, not a memory access.
	tr := trace.New(2)
	tr.Streams[0].AddRead(0)
	tr.Streams[0].AddBarrier()
	tr.Streams[1].AddCompute(5000) // stay behind CPU0
	tr.Streams[1].AddBarrier()
	tr.Streams[0].AddCompute(1)
	tr.Streams[1].AddRead(0)

	res, err := Simulate(tr, smpConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ClassCounts[ClassRemoteCache] != 1 {
		t.Errorf("remote-cache transfers = %d, want 1 (%+v)", res.Stats.ClassCounts[ClassRemoteCache], res.Stats.ClassCounts)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	// Both CPUs read a line (shared), then CPU0 writes it (upgrade), then
	// CPU1 reads again: CPU1 must miss and fetch from CPU0's cache.
	tr := trace.New(2)
	tr.Streams[0].AddRead(0)
	tr.Streams[1].AddCompute(5000)
	tr.Streams[1].AddRead(0)
	tr.Streams[0].AddBarrier()
	tr.Streams[1].AddBarrier()
	tr.Streams[0].AddWrite(0)
	tr.Streams[1].AddCompute(9000)
	tr.Streams[0].AddBarrier()
	tr.Streams[1].AddBarrier()
	tr.Streams[1].AddRead(0)
	tr.Streams[0].AddCompute(1)

	sys, err := NewSystem(smpConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Upgrades != 1 {
		t.Errorf("upgrades = %d, want 1", res.Stats.Upgrades)
	}
	// CPU1's final read: the line was invalidated, CPU0 has it Modified →
	// cache-to-cache transfer.
	if got := res.Stats.ClassCounts[ClassRemoteCache]; got != 2 {
		// one for CPU1's initial read (after CPU0 cached it), one after
		// the invalidation
		t.Errorf("remote-cache transfers = %d, want 2 (%+v)", got, res.Stats.ClassCounts)
	}
	if res.CoherenceShare <= 0 {
		t.Error("coherence bus share should be positive")
	}
}

func TestMSINeedsBusUpgrade(t *testing.T) {
	// A read fills Shared even as the sole copy, so the write that follows
	// needs an upgrade transaction on a 2-processor SMP.
	tr := trace.New(2)
	tr.Streams[0].AddRead(0)
	tr.Streams[0].AddWrite(0)
	tr.Streams[0].AddBarrier()
	tr.Streams[1].AddCompute(1)
	tr.Streams[1].AddBarrier()

	res, err := Simulate(tr, smpConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Upgrades != 1 {
		t.Errorf("MSI upgrades = %d, want 1", res.Stats.Upgrades)
	}
}

func TestClusterRemoteAccessLatencies(t *testing.T) {
	for _, tc := range []struct {
		net  machine.NetworkKind
		want float64
	}{
		{machine.NetBus10, 45075},
		{machine.NetBus100, 4575},
		{machine.NetSwitch155, 3275},
	} {
		// Node 0 touches a block (becomes home, faults page). Node 1 then
		// reads it remotely: a clean 2-hop transfer.
		tr := trace.New(2)
		tr.Streams[0].AddRead(0)
		tr.Streams[0].AddBarrier()
		tr.Streams[1].AddCompute(5000)
		tr.Streams[1].AddBarrier()
		tr.Streams[1].AddRead(0)
		tr.Streams[0].AddCompute(1)

		res, err := Simulate(tr, wsConfig(2, tc.net))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ClassCounts[ClassRemoteClean] != 1 {
			t.Errorf("%v: remote-clean = %d, want 1 (%+v)", tc.net, res.Stats.ClassCounts[ClassRemoteClean], res.Stats.ClassCounts)
		}
		if got := res.Stats.ClassCycles[ClassRemoteClean]; math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%v: remote access cost %v cycles, want %v", tc.net, got, tc.want)
		}
	}
}

func TestClusterDirtyRemoteAccess(t *testing.T) {
	// Node 0 writes a block (home, Modified). Node 1 reads: remotely
	// cached data, 3-hop latency 9150 on 100Mb.
	tr := trace.New(2)
	tr.Streams[0].AddWrite(0)
	tr.Streams[0].AddBarrier()
	tr.Streams[1].AddCompute(9000)
	tr.Streams[1].AddBarrier()
	tr.Streams[1].AddRead(0)
	tr.Streams[0].AddCompute(1)

	res, err := Simulate(tr, wsConfig(2, machine.NetBus100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ClassCounts[ClassRemoteDirty] != 1 {
		t.Errorf("remote-dirty = %d, want 1 (%+v)", res.Stats.ClassCounts[ClassRemoteDirty], res.Stats.ClassCounts)
	}
	if got := res.Stats.ClassCycles[ClassRemoteDirty]; math.Abs(got-9150) > 1e-9 {
		t.Errorf("dirty remote cost %v, want 9150", got)
	}
}

func TestFirstTouchHomesKeepPartitionLocal(t *testing.T) {
	// Each node streams over its own distinct region: after first touch,
	// everything is local; no network traffic at all.
	tr := trace.New(4)
	for cpu := 0; cpu < 4; cpu++ {
		base := uint64(cpu) * (1 << 16)
		for i := uint64(0); i < 512; i++ {
			tr.Streams[cpu].AddRead(base + i*64)
		}
		tr.Streams[cpu].AddBarrier()
	}
	res, err := Simulate(tr, wsConfig(4, machine.NetBus100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ClassCounts[ClassRemoteClean]+res.Stats.ClassCounts[ClassRemoteDirty] != 0 {
		t.Errorf("partitioned streams caused remote traffic: %+v", res.Stats.ClassCounts)
	}
	if res.NetUtilization != 0 {
		t.Errorf("net utilization = %v, want 0", res.NetUtilization)
	}
}

func TestBusContentionSerializesTransfers(t *testing.T) {
	// Two nodes simultaneously read each other's block over a bus network:
	// the second transfer queues behind the first.
	mk := func(net machine.NetworkKind) float64 {
		tr := trace.New(2)
		// Establish homes.
		tr.Streams[0].AddRead(0)
		tr.Streams[1].AddRead(1 << 16)
		tr.Streams[0].AddBarrier()
		tr.Streams[1].AddBarrier()
		// Cross reads at the same instant.
		tr.Streams[0].AddRead(1 << 16)
		tr.Streams[1].AddRead(0)
		res, err := Simulate(tr, wsConfig(2, net))
		if err != nil {
			t.Fatal(err)
		}
		return res.WallCycles
	}
	bus := mk(machine.NetBus100)
	sw := mk(machine.NetSwitch155)
	// On the bus the two 4575-cycle transfers serialize; on the switch the
	// two ports work in parallel (3275 each).
	if bus < 2*4575 {
		t.Errorf("bus wall %v should include serialized transfers (>= %v)", bus, 2*4575)
	}
	if sw > bus {
		t.Errorf("switch (%v) should beat the saturated bus (%v)", sw, bus)
	}
}

func TestBarrierSynchronization(t *testing.T) {
	tr := trace.New(2)
	tr.Streams[0].AddCompute(100)
	tr.Streams[0].AddBarrier()
	tr.Streams[0].AddCompute(1)
	tr.Streams[1].AddCompute(1000)
	tr.Streams[1].AddBarrier()
	tr.Streams[1].AddCompute(1)

	res, err := Simulate(tr, smpConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.WallCycles != 1001 {
		t.Errorf("WallCycles = %v, want 1001", res.WallCycles)
	}
	if res.BarrierWaitCycles != 900 {
		t.Errorf("BarrierWait = %v, want 900", res.BarrierWaitCycles)
	}
	if res.Barriers != 1 {
		t.Errorf("Barriers = %d, want 1", res.Barriers)
	}
}

func TestTraceStreamMismatch(t *testing.T) {
	tr := trace.New(3)
	if _, err := Simulate(tr, smpConfig(2)); err == nil {
		t.Error("stream/processor mismatch accepted")
	}
}

func TestUnbalancedBarriersRejected(t *testing.T) {
	tr := trace.New(2)
	tr.Streams[0].AddBarrier()
	if _, err := Simulate(tr, smpConfig(2)); err == nil {
		t.Error("unbalanced barriers accepted")
	}
}

func TestTooManyNodesRejected(t *testing.T) {
	cfg := wsConfig(65, machine.NetBus100)
	if _, err := NewSystem(cfg); err == nil {
		t.Error("65-node cluster accepted (sharer mask is 64 bits)")
	}
}

// TestDeterminism: same trace, same config, identical results.
func TestDeterminism(t *testing.T) {
	w := workloads.NewFFT(256)
	tr, err := workloads.GenerateTrace(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := csmpConfig(2, 2, machine.NetSwitch155)
	r1, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.WallCycles != r2.WallCycles || r1.Stats != r2.Stats {
		t.Error("simulation is nondeterministic")
	}
}

// TestAllFiveBackendsRunRealWorkloads drives each of the paper's five
// back-end variants with a real instrumented kernel and sanity-checks the
// outcome.
func TestAllFiveBackendsRunRealWorkloads(t *testing.T) {
	cfgs := []machine.Config{
		smpConfig(2),
		wsConfig(2, machine.NetBus10),
		wsConfig(2, machine.NetSwitch155),
		csmpConfig(2, 2, machine.NetBus100),
		csmpConfig(2, 2, machine.NetSwitch155),
	}
	for _, cfg := range cfgs {
		w := workloads.NewRadix(2000, 16)
		tr, err := workloads.GenerateTrace(w, cfg.TotalProcs())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(tr, cfg)
		if err != nil {
			t.Fatalf("%s/%v: %v", cfg.Name, cfg.Net, err)
		}
		if res.WallCycles <= 0 || res.EInstr <= 0 {
			t.Errorf("%s/%v: degenerate result %+v", cfg.Name, cfg.Net, res)
		}
		if res.AvgT < 1 {
			t.Errorf("%s/%v: AvgT %v below cache latency", cfg.Name, cfg.Net, res.AvgT)
		}
		var classTotal uint64
		for _, c := range res.Stats.ClassCounts {
			classTotal += c
		}
		if classTotal != res.Stats.Refs || res.Stats.Refs != res.MemoryRefs {
			t.Errorf("%s/%v: class counts %d != refs %d/%d", cfg.Name, cfg.Net, classTotal, res.Stats.Refs, res.MemoryRefs)
		}
		if cfg.N > 1 && res.Stats.ClassCounts[ClassRemoteClean]+res.Stats.ClassCounts[ClassRemoteDirty] == 0 {
			t.Errorf("%s/%v: a shared radix sort should produce remote traffic", cfg.Name, cfg.Net)
		}
	}
}

// TestMoreProcessorsReduceWallTime checks the basic parallel-speedup sanity
// on a compute-heavy workload.
func TestMoreProcessorsReduceWallTime(t *testing.T) {
	w := workloads.NewEdge(32, 32, 2)
	tr1, err := workloads.GenerateTrace(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr4, err := workloads.GenerateTrace(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Simulate(tr1, smpConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Simulate(tr4, smpConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if r4.WallCycles >= r1.WallCycles {
		t.Errorf("4 processors (%v cycles) not faster than 1 (%v cycles)", r4.WallCycles, r1.WallCycles)
	}
}

func TestAccessClassStrings(t *testing.T) {
	for c := AccessClass(0); c < numClasses; c++ {
		if c.String() == "" {
			t.Errorf("class %d has empty name", int(c))
		}
	}
	if AccessClass(99).String() == "" {
		t.Error("unknown class empty")
	}
}
