package backend

import (
	"strings"
	"testing"

	"memhier/internal/machine"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

func TestMESISilentUpgrade(t *testing.T) {
	// A single processor reads a line (sole copy → Exclusive under MESI)
	// then writes it: no upgrade transaction, one silent transition.
	tr := trace.New(2)
	tr.Streams[0].AddRead(0)
	tr.Streams[0].AddWrite(0)
	tr.Streams[0].AddBarrier()
	tr.Streams[1].AddCompute(1)
	tr.Streams[1].AddBarrier()

	sys, err := NewSystemOpts(smpConfig(2), SystemOptions{Protocol: ProtocolMESI})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SilentUpgrades != 1 {
		t.Errorf("silent upgrades = %d, want 1", res.Stats.SilentUpgrades)
	}
	if res.Stats.Upgrades != 0 {
		t.Errorf("MESI should not need a bus upgrade, got %d", res.Stats.Upgrades)
	}
}

func TestMSINeedsBusUpgrade(t *testing.T) {
	// Same sequence under MSI: the read fills Shared (even as sole copy),
	// so the write needs an upgrade transaction on a 2-processor SMP.
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
	if res.Stats.SilentUpgrades != 0 {
		t.Errorf("MSI should have no silent upgrades, got %d", res.Stats.SilentUpgrades)
	}
}

func TestMESIExclusiveDowngradedBySecondReader(t *testing.T) {
	// CPU0 reads (Exclusive), CPU1 reads the same line: served
	// cache-to-cache, and both copies end Shared — so CPU0's later write
	// needs a real upgrade.
	tr := trace.New(2)
	tr.Streams[0].AddRead(0)
	tr.Streams[1].AddCompute(5000)
	tr.Streams[1].AddRead(0)
	tr.Streams[0].AddBarrier()
	tr.Streams[1].AddBarrier()
	tr.Streams[0].AddWrite(0)
	tr.Streams[1].AddCompute(1)

	sys, err := NewSystemOpts(smpConfig(2), SystemOptions{Protocol: ProtocolMESI})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ClassCounts[ClassRemoteCache] != 1 {
		t.Errorf("second read should be a cache-to-cache transfer: %+v", res.Stats.ClassCounts)
	}
	if res.Stats.Upgrades != 1 {
		t.Errorf("write after sharing needs an upgrade, got %d", res.Stats.Upgrades)
	}
	if res.Stats.SilentUpgrades != 0 {
		t.Errorf("no silent upgrade possible after sharing, got %d", res.Stats.SilentUpgrades)
	}
}

// TestMESINeverSlower: on a private-data workload MESI eliminates upgrade
// transactions, so wall time is never worse than MSI.
func TestMESINeverSlower(t *testing.T) {
	w := workloads.NewLU(24, 4)
	cfg := smpConfig(4)
	tr, err := workloads.GenerateTrace(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	msi, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sysMESI, err := NewSystemOpts(cfg, SystemOptions{Protocol: ProtocolMESI})
	if err != nil {
		t.Fatal(err)
	}
	mesi, err := Run(tr, sysMESI)
	if err != nil {
		t.Fatal(err)
	}
	if mesi.WallCycles > msi.WallCycles {
		t.Errorf("MESI (%v cycles) slower than MSI (%v cycles)", mesi.WallCycles, msi.WallCycles)
	}
	if mesi.Stats.SilentUpgrades == 0 {
		t.Error("LU under MESI should produce silent upgrades")
	}
	// MESI must preserve the results' accounting invariants.
	var classTotal uint64
	for _, c := range mesi.Stats.ClassCounts {
		classTotal += c
	}
	if classTotal != mesi.Stats.Refs {
		t.Errorf("class counts %d != refs %d", classTotal, mesi.Stats.Refs)
	}
}

func TestMESIOnCluster(t *testing.T) {
	w := workloads.NewRadix(2000, 16)
	cfg := wsConfig(2, machine.NetBus100)
	tr, err := workloads.GenerateTrace(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemOpts(cfg, SystemOptions{Protocol: ProtocolMESI})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.WallCycles <= 0 || res.Stats.Refs == 0 {
		t.Errorf("degenerate MESI cluster run: %+v", res)
	}
}

// TestMESIDirtyEvictionKeepsExclusiveOwnership pins the directory rule for
// a node that writes back one line of a block while it still holds another
// line of that block Exclusive: the directory must keep the node as
// exclusive owner. Dropping to Shared would let a remote reader fetch the
// block from home beside the Exclusive copy, whose silent upgrade then
// leaves a Modified line next to a Shared one.
func TestMESIDirtyEvictionKeepsExclusiveOwnership(t *testing.T) {
	cfg := wsConfig(2, machine.NetBus100)
	cfg.CacheBytes = 256 // 2 sets x 2 ways of 64B
	tr := trace.New(2)
	s0, s1 := tr.Streams[0], tr.Streams[1]
	s0.AddRead(0)         // sole copy: Exclusive, directory owner node 0
	s0.AddWrite(64)       // same block, set 1: Modified
	s0.AddWrite(129 * 64) // set 1, another block
	s0.AddWrite(257 * 64) // set 1 — evicts line 64 with a write-back
	s0.AddBarrier()
	s1.AddBarrier()
	s1.AddRead(0) // must meet node 0's ownership, not a clean home copy
	s1.AddBarrier()
	s0.AddCompute(1 << 20)
	s0.AddBarrier()
	s0.AddWrite(0)
	s0.AddBarrier()
	s1.AddBarrier()

	sys, err := NewSystemOpts(cfg, SystemOptions{Protocol: ProtocolMESI})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ClassCounts[ClassRemoteDirty] != 1 {
		t.Errorf("remote read of the Exclusive line should take the owner path: %+v", res.Stats.ClassCounts)
	}
	if res.Stats.SilentUpgrades != 0 {
		t.Errorf("the downgraded line upgraded silently %d times", res.Stats.SilentUpgrades)
	}
	if err := sys.VerifyCoherence(); err != nil {
		t.Error(err)
	}
}

func TestProtocolString(t *testing.T) {
	if ProtocolMSI.String() != "MSI" || ProtocolMESI.String() != "MESI" {
		t.Error("protocol names wrong")
	}
	if !strings.Contains(Protocol(9).String(), "9") {
		t.Error("unknown protocol should include its value")
	}
}
