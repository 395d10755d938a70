// Package netmodel derives the paper's §5.1 remote-access latencies from
// first principles — the serialization time of one DSM block over the link
// plus a per-technology software/protocol overhead — and extrapolates them
// to networks the paper could not evaluate in 1999.
//
// The reverse engineering: at 200 MHz, one 256-byte block costs
// 256·8 bits / bandwidth in serialization cycles; the paper's constants
// then imply fixed overheads of 4115 cycles for 10 Mb Ethernet (CSMA/CD
// arbitration and a heavy software stack), 479 for 100 Mb Ethernet, and
// 633 for the 155 Mb ATM switch (SAR segmentation). A three-hop transfer
// of remotely cached data costs exactly twice a two-hop one, as in the
// paper's table.
//
//chc:deterministic
package netmodel

import "memhier/internal/machine"

// Link is an interconnect technology.
type Link struct {
	Name           string
	BandwidthMbps  float64
	OverheadCycles float64 // fixed per-transfer cost at 200 MHz
	Switched       bool    // per-port switching vs a shared bus
}

// BlockBytes is the DSM transfer granule of the paper's directory protocol.
const BlockBytes = 256

// SerializationCycles returns the pure wire time of payloadBytes at the
// given clock.
func (l Link) SerializationCycles(payloadBytes int, clockMHz float64) float64 {
	return float64(payloadBytes*8) / (l.BandwidthMbps * 1e6) * clockMHz * 1e6
}

// RemoteNodeCycles returns the two-hop "cache miss to a remote node" cost:
// block serialization plus the technology's fixed overhead.
func (l Link) RemoteNodeCycles(clockMHz float64) float64 {
	return l.SerializationCycles(BlockBytes, clockMHz) + l.OverheadCycles
}

// RemoteCachedCycles returns the three-hop "cache miss to remotely cached
// data" cost, twice the two-hop cost as in the paper's table.
func (l Link) RemoteCachedCycles(clockMHz float64) float64 {
	return 2 * l.RemoteNodeCycles(clockMHz)
}

// The paper's three networks with their reverse-engineered overheads: these
// reproduce the §5.1 table exactly at 200 MHz (see the package test).
var (
	Ethernet10  = Link{Name: "10Mb Ethernet", BandwidthMbps: 10, OverheadCycles: 4115}
	Ethernet100 = Link{Name: "100Mb Ethernet", BandwidthMbps: 100, OverheadCycles: 479}
	ATM155      = Link{Name: "155Mb ATM", BandwidthMbps: 155, OverheadCycles: 633.35, Switched: true}
)

// Post-1999 technologies for the extension experiments. Overheads reflect
// kernel-bypass trends: Gigabit Ethernet with a conventional stack, and a
// SAN-class switched fabric with microsecond software cost.
var (
	Gigabit = Link{Name: "1Gb Ethernet", BandwidthMbps: 1000, OverheadCycles: 400, Switched: true}
	SAN2G   = Link{Name: "2Gb SAN", BandwidthMbps: 2000, OverheadCycles: 60, Switched: true}
)

// Latencies builds a full §5.1-style latency table for the platform kind
// with the link's derived remote costs, so hypothetical networks can feed
// core.Options.Latencies. The cluster-of-SMPs variant adds the paper's
// 3-cycle intra-node arbitration to both remote costs.
func Latencies(kind machine.PlatformKind, l Link, clockMHz float64) machine.Latencies {
	lat := machine.DefaultLatencies(kind)
	rn := l.RemoteNodeCycles(clockMHz)
	rc := l.RemoteCachedCycles(clockMHz)
	if kind == machine.ClusterSMP {
		rn += 3
		rc += 3
	}
	// The derived link stands in for whichever catalog kind the caller
	// uses; populate all three so any Config.Net picks it up.
	lat.RemoteNode = map[machine.NetworkKind]float64{
		machine.NetBus10: rn, machine.NetBus100: rn, machine.NetSwitch155: rn,
	}
	lat.RemoteCached = map[machine.NetworkKind]float64{
		machine.NetBus10: rc, machine.NetBus100: rc, machine.NetSwitch155: rc,
	}
	return lat
}

// NetKind returns the catalog network kind whose contention topology (bus
// or switch) matches the link.
func (l Link) NetKind() machine.NetworkKind {
	if l.Switched {
		return machine.NetSwitch155
	}
	return machine.NetBus100
}
