package netmodel

import (
	"math"
	"testing"

	"memhier/internal/machine"
)

// TestDerivedLatenciesMatchPaperTable: the first-principles model must
// reproduce the §5.1 constants at 200 MHz within one cycle.
func TestDerivedLatenciesMatchPaperTable(t *testing.T) {
	cases := []struct {
		link      Link
		wantNode  float64
		wantDirty float64
	}{
		{Ethernet10, 45075, 90150},
		{Ethernet100, 4575, 9150},
		{ATM155, 3275, 6550},
	}
	for _, tc := range cases {
		if got := tc.link.RemoteNodeCycles(200); math.Abs(got-tc.wantNode) > 1 {
			t.Errorf("%s remote-node = %v, want %v", tc.link.Name, got, tc.wantNode)
		}
		if got := tc.link.RemoteCachedCycles(200); math.Abs(got-tc.wantDirty) > 2 {
			t.Errorf("%s remote-cached = %v, want %v", tc.link.Name, got, tc.wantDirty)
		}
	}
}

func TestSerializationScalesWithBandwidthAndClock(t *testing.T) {
	// Ten times the bandwidth, a tenth of the wire time.
	s10 := Ethernet10.SerializationCycles(BlockBytes, 200)
	s100 := Ethernet100.SerializationCycles(BlockBytes, 200)
	if math.Abs(s10/s100-10) > 1e-9 {
		t.Errorf("bandwidth scaling wrong: %v vs %v", s10, s100)
	}
	// Twice the clock, twice the cycles for the same wall time.
	if got, want := Ethernet10.SerializationCycles(BlockBytes, 400), 2*s10; math.Abs(got-want) > 1e-9 {
		t.Errorf("clock scaling wrong: %v vs %v", got, want)
	}
}

// TestPaperLink: each of the paper's links is named, and it is switched
// exactly where its catalog network kind is not a bus.
func TestPaperLink(t *testing.T) {
	for kind, l := range map[machine.NetworkKind]Link{
		machine.NetBus10:     Ethernet10,
		machine.NetBus100:    Ethernet100,
		machine.NetSwitch155: ATM155,
	} {
		if l.Name == "" || l.Switched == kind.IsBus() {
			t.Errorf("%v: link %+v", kind, l)
		}
	}
}

func TestLatenciesTable(t *testing.T) {
	lat := Latencies(machine.ClusterWS, Gigabit, 200)
	if lat.LocalMemory != 50 || lat.LocalDisk != 2000 {
		t.Errorf("base latencies lost: %+v", lat)
	}
	rn := lat.RemoteNode[machine.NetSwitch155]
	if rn <= 0 || rn >= Ethernet100.RemoteNodeCycles(200) {
		t.Errorf("gigabit remote-node %v should be far below 100Mb's %v", rn, Ethernet100.RemoteNodeCycles(200))
	}
	if got := lat.RemoteCached[machine.NetSwitch155]; math.Abs(got-2*rn) > 1e-9 {
		t.Errorf("three-hop %v should be twice two-hop %v", got, rn)
	}
	// Cluster-of-SMPs adds the 3-cycle intra-node arbitration.
	csmp := Latencies(machine.ClusterSMP, Gigabit, 200)
	if got := csmp.RemoteNode[machine.NetSwitch155]; math.Abs(got-(rn+3)) > 1e-9 {
		t.Errorf("cluster-of-SMPs remote-node %v, want %v", got, rn+3)
	}
}

func TestNetKind(t *testing.T) {
	if Ethernet10.NetKind() != machine.NetBus100 {
		t.Error("bus link should map to a bus kind")
	}
	if !Gigabit.Switched || Gigabit.NetKind() != machine.NetSwitch155 {
		t.Error("switched link should map to the switch kind")
	}
}

func TestModernLinksAreFaster(t *testing.T) {
	if Gigabit.RemoteNodeCycles(200) >= ATM155.RemoteNodeCycles(200) {
		t.Error("gigabit should beat ATM")
	}
	if SAN2G.RemoteNodeCycles(200) >= Gigabit.RemoteNodeCycles(200) {
		t.Error("SAN should beat gigabit")
	}
	// A SAN remote access approaches local-memory cost territory (within
	// one order of magnitude of 50 cycles at year-2000 clocks).
	if rn := SAN2G.RemoteNodeCycles(200); rn > 500 {
		t.Errorf("SAN remote access %v cycles implausibly slow", rn)
	}
}
