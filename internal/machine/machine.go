// Package machine defines the cluster platform descriptions of the paper:
// the three platform classes (a single SMP, a cluster of workstations, a
// cluster of SMPs), the two cluster network families (bus-based Ethernet
// and a switch-based ATM), the configuration catalogs C1–C15 of Tables 3–5,
// and the memory-hierarchy latency table of §5.1 (all in CPU cycles of a
// 200 MHz processor).
package machine

import (
	"fmt"
	"strings"
)

// PlatformKind classifies the three parallel systems of Table 1.
type PlatformKind int

// The platform classes.
const (
	SMP        PlatformKind = iota // a single bus-based SMP (gray block A)
	ClusterWS                      // a cluster of workstations (blocks B, C)
	ClusterSMP                     // a cluster of SMPs (blocks A, B, C)
)

// String returns the paper's name for the platform class.
func (k PlatformKind) String() string {
	switch k {
	case SMP:
		return "SMP"
	case ClusterWS:
		return "cluster of workstations"
	case ClusterSMP:
		return "cluster of SMPs"
	}
	return fmt.Sprintf("PlatformKind(%d)", int(k))
}

// MarshalText encodes the platform kind as its short CLI/API spelling
// ("smp", "ws", "csmp"), so machine.Config JSON stays human-readable.
func (k PlatformKind) MarshalText() ([]byte, error) {
	switch k {
	case SMP:
		return []byte("smp"), nil
	case ClusterWS:
		return []byte("ws"), nil
	case ClusterSMP:
		return []byte("csmp"), nil
	}
	return nil, fmt.Errorf("machine: unknown platform kind %d", int(k))
}

// UnmarshalText parses a platform kind via ParsePlatformKind.
func (k *PlatformKind) UnmarshalText(text []byte) error {
	v, err := ParsePlatformKind(string(text))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// ParsePlatformKind parses the CLI/API spellings of the platform classes:
// "smp", "ws" (cluster of workstations), "csmp" (cluster of SMPs).
func ParsePlatformKind(s string) (PlatformKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "smp":
		return SMP, nil
	case "ws", "cluster-ws", "workstations":
		return ClusterWS, nil
	case "csmp", "cluster-smp", "smp-cluster":
		return ClusterSMP, nil
	}
	return 0, fmt.Errorf("machine: unknown platform kind %q (want smp, ws, csmp)", s)
}

// ExtraLevels returns the additional memory-hierarchy levels (Table 1's
// gray blocks) the platform adds over a uniprocessor.
func (k PlatformKind) ExtraLevels() []string {
	switch k {
	case SMP:
		return []string{"A"}
	case ClusterWS:
		return []string{"B", "C"}
	case ClusterSMP:
		return []string{"A", "B", "C"}
	}
	return nil
}

// NetworkKind is the cluster interconnect family (Network 2/3 in Figure 1).
type NetworkKind int

// The cluster networks evaluated in the paper.
const (
	NetNone      NetworkKind = iota // single machine; no cluster network
	NetBus10                        // 10 Mb Ethernet (bus)
	NetBus100                       // 100 Mb Fast Ethernet (bus)
	NetSwitch155                    // 155 Mb ATM (switch)
)

// String returns a short label for the network.
func (n NetworkKind) String() string {
	switch n {
	case NetNone:
		return "none"
	case NetBus10:
		return "10Mb bus"
	case NetBus100:
		return "100Mb bus"
	case NetSwitch155:
		return "155Mb switch"
	}
	return fmt.Sprintf("NetworkKind(%d)", int(n))
}

// IsBus reports whether the network is bus-based (a single shared medium).
func (n NetworkKind) IsBus() bool { return n == NetBus10 || n == NetBus100 }

// MarshalText encodes the network as its short CLI/API spelling ("none",
// "10mb", "100mb", "atm").
func (n NetworkKind) MarshalText() ([]byte, error) {
	switch n {
	case NetNone:
		return []byte("none"), nil
	case NetBus10:
		return []byte("10mb"), nil
	case NetBus100:
		return []byte("100mb"), nil
	case NetSwitch155:
		return []byte("atm"), nil
	}
	return nil, fmt.Errorf("machine: unknown network kind %d", int(n))
}

// UnmarshalText parses a network via ParseNetwork.
func (n *NetworkKind) UnmarshalText(text []byte) error {
	v, err := ParseNetwork(string(text))
	if err != nil {
		return err
	}
	*n = v
	return nil
}

// ParseNetwork parses the CLI/API spellings of the cluster networks: "10"
// or "10mb" (Ethernet bus), "100" or "100mb" (Fast Ethernet bus), "155",
// "atm" or "switch" (the ATM switch), and "" or "none" for no network.
func ParseNetwork(s string) (NetworkKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
		return NetNone, nil
	case "10", "10mb", "ethernet":
		return NetBus10, nil
	case "100", "100mb", "fast-ethernet":
		return NetBus100, nil
	case "155", "155mb", "atm", "switch":
		return NetSwitch155, nil
	}
	return 0, fmt.Errorf("machine: unknown network %q (want 10, 100, atm)", s)
}

// CacheLevel describes one level of a per-processor cache hierarchy.
type CacheLevel struct {
	// Bytes is the level's capacity.
	Bytes int64 `json:"bytes"`
	// LatencyCycles is the level's access latency in CPU cycles. Zero on
	// the first level means the §5.1 default (one cycle); deeper levels
	// normally set it explicitly. Deep cache levels are on-package SRAM
	// that tracks the core, so — like the L1 hit cost — their cycle
	// latencies do not scale with the clock.
	LatencyCycles float64 `json:"latency_cycles,omitempty"`
}

// MaxCacheLevels bounds the hierarchy depth: L1, L2, L3. Every platform the
// predictor targets fits in three levels, and the simulator's access-class
// accounting enumerates them.
const MaxCacheLevels = 3

// Config is one cluster platform configuration. The JSON encoding is part
// of the chc-serve API surface: kinds and networks serialize as their short
// text spellings via the TextMarshaler implementations above.
type Config struct {
	Name  string       `json:"name"`
	Kind  PlatformKind `json:"kind"`
	N     int          `json:"machines"` // machines in the cluster
	Procs int          `json:"procs"`    // processors per machine (n)
	// CacheBytes is the per-processor level-1 cache capacity. It predates
	// Levels and remains the canonical spelling for one-level platforms
	// (every C1–C15 catalog entry): a config with an empty Levels list
	// means a single cache level of CacheBytes at the default hit latency,
	// and marshals byte-identically to the pre-Levels encoding.
	CacheBytes  int64 `json:"cache_bytes"`  // per-processor L1 capacity (deprecated alias, see Levels)
	MemoryBytes int64 `json:"memory_bytes"` // per-machine memory capacity
	// Levels is the ordered per-processor cache hierarchy, innermost
	// first. Empty means the one-level hierarchy [{Bytes: CacheBytes}].
	// When non-empty, Levels[0].Bytes and CacheBytes must agree (Canonical
	// repairs a zero CacheBytes).
	Levels   []CacheLevel `json:"cache_levels,omitempty"`
	Net      NetworkKind  `json:"net"`
	ClockMHz float64      `json:"clock_mhz"` // processor clock; instruction rate is 1/cycle
}

// TotalProcs returns n·N, the processor count of the whole platform.
func (c Config) TotalProcs() int { return c.N * c.Procs }

// CacheLevels returns the per-processor hierarchy in canonical expanded
// form, innermost first: the explicit Levels list, or the one-level
// hierarchy the legacy CacheBytes field describes.
func (c Config) CacheLevels() []CacheLevel {
	if len(c.Levels) > 0 {
		return c.Levels
	}
	return []CacheLevel{{Bytes: c.CacheBytes}}
}

// LastCacheBytes returns the capacity of the outermost cache level: the
// boundary at which references spill to memory.
func (c Config) LastCacheBytes() int64 {
	if n := len(c.Levels); n > 0 {
		return c.Levels[n-1].Bytes
	}
	return c.CacheBytes
}

// L1Latency returns the level-1 access latency, or def where the config
// leaves it at the default.
func (c Config) L1Latency(def float64) float64 {
	if len(c.Levels) > 0 && c.Levels[0].LatencyCycles > 0 {
		return c.Levels[0].LatencyCycles
	}
	return def
}

// Canonical returns the configuration in canonical form: a one-element
// Levels list at the default latency folds back into the legacy
// CacheBytes-only spelling (so the two spellings are one platform, with
// one JSON encoding and one server cache key), and a multi-level config
// has CacheBytes pinned to its first level. Validate accepts exactly the
// configurations whose Canonical form it accepts.
func (c Config) Canonical() Config {
	switch {
	case len(c.Levels) == 0:
		return c
	case len(c.Levels) == 1 && c.Levels[0].LatencyCycles == 0:
		c.CacheBytes = c.Levels[0].Bytes
		c.Levels = nil
	default:
		levels := make([]CacheLevel, len(c.Levels))
		copy(levels, c.Levels)
		c.Levels = levels
		c.CacheBytes = c.Levels[0].Bytes
	}
	return c
}

// validateLevels checks the explicit hierarchy: capacities positive and
// non-decreasing inward-out, latencies non-negative, depth bounded, and
// the deprecated CacheBytes alias in agreement when set.
func (c Config) validateLevels() error {
	if len(c.Levels) == 0 {
		return nil
	}
	if len(c.Levels) > MaxCacheLevels {
		return fmt.Errorf("machine: %s: at most %d cache levels supported, got %d",
			c.Name, MaxCacheLevels, len(c.Levels))
	}
	for i, lv := range c.Levels {
		if lv.Bytes <= 0 {
			return fmt.Errorf("machine: %s: cache level %d size must be positive, got %d",
				c.Name, i+1, lv.Bytes)
		}
		if lv.LatencyCycles < 0 {
			return fmt.Errorf("machine: %s: cache level %d latency must be non-negative, got %v",
				c.Name, i+1, lv.LatencyCycles)
		}
		if i > 0 && lv.Bytes < c.Levels[i-1].Bytes {
			return fmt.Errorf("machine: %s: cache level %d (%d bytes) smaller than level %d (%d bytes)",
				c.Name, i+1, lv.Bytes, i, c.Levels[i-1].Bytes)
		}
	}
	if c.CacheBytes != 0 && c.CacheBytes != c.Levels[0].Bytes {
		return fmt.Errorf("machine: %s: cache_bytes (%d) disagrees with cache level 1 (%d bytes)",
			c.Name, c.CacheBytes, c.Levels[0].Bytes)
	}
	return nil
}

// Validate checks structural consistency.
func (c Config) Validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("machine: %s: need at least one machine, got %d", c.Name, c.N)
	case c.Procs < 1:
		return fmt.Errorf("machine: %s: need at least one processor per machine, got %d", c.Name, c.Procs)
	case len(c.Levels) == 0 && c.CacheBytes <= 0:
		return fmt.Errorf("machine: %s: cache size must be positive, got %d", c.Name, c.CacheBytes)
	case c.MemoryBytes <= 0:
		return fmt.Errorf("machine: %s: memory size must be positive, got %d", c.Name, c.MemoryBytes)
	case c.ClockMHz <= 0:
		return fmt.Errorf("machine: %s: clock must be positive, got %v", c.Name, c.ClockMHz)
	}
	if err := c.validateLevels(); err != nil {
		return err
	}
	switch c.Kind {
	case SMP:
		if c.N != 1 {
			return fmt.Errorf("machine: %s: a single SMP has N=1, got %d", c.Name, c.N)
		}
	case ClusterWS:
		if c.Procs != 1 {
			return fmt.Errorf("machine: %s: workstations are uniprocessors, got n=%d", c.Name, c.Procs)
		}
		if c.N > 1 && c.Net == NetNone {
			return fmt.Errorf("machine: %s: a cluster needs a network", c.Name)
		}
	case ClusterSMP:
		if c.N > 1 && c.Net == NetNone {
			return fmt.Errorf("machine: %s: a cluster needs a network", c.Name)
		}
	default:
		return fmt.Errorf("machine: %s: unknown platform kind %d", c.Name, int(c.Kind))
	}
	return nil
}

// Scaled returns a copy with cache and memory capacities divided by factor
// (at least one byte each). The validation experiments use scaled-down
// capacities together with scaled-down problem sizes so that every
// hierarchy level carries real traffic while runs stay fast.
//
// factor == 1 is the identity; factor < 1 (including zero and negative
// divisors) is an error rather than a silent no-op, so a miswired
// `-divisor 0` fails loudly instead of running unscaled.
func (c Config) Scaled(factor int) (Config, error) {
	if factor < 1 {
		return Config{}, fmt.Errorf("machine: %s: capacity divisor must be >= 1, got %d", c.Name, factor)
	}
	if factor == 1 {
		return c, nil
	}
	s := c
	s.Name = fmt.Sprintf("%s/%d", c.Name, factor)
	s.CacheBytes = maxInt64(1, c.CacheBytes/int64(factor))
	s.MemoryBytes = maxInt64(1, c.MemoryBytes/int64(factor))
	if len(c.Levels) > 0 {
		s.Levels = make([]CacheLevel, len(c.Levels))
		for i, lv := range c.Levels {
			lv.Bytes = maxInt64(1, lv.Bytes/int64(factor))
			s.Levels[i] = lv
		}
		s.CacheBytes = s.Levels[0].Bytes
	}
	return s, nil
}

// CacheDesc renders the cache hierarchy for human-readable output. A
// one-level config keeps the historical "%dKB" form (part of the rendered
// byte-identity contract); multi-level configs list every level, e.g.
// "32KB+1MB+4MB".
func (c Config) CacheDesc() string {
	if len(c.Levels) == 0 {
		return fmt.Sprintf("%dKB", c.CacheBytes/kb)
	}
	parts := make([]string, len(c.Levels))
	for i, lv := range c.Levels {
		parts[i] = sizeDesc(lv.Bytes)
	}
	return strings.Join(parts, "+")
}

// sizeDesc formats a capacity with the largest exact binary unit.
func sizeDesc(b int64) string {
	switch {
	case b >= mb && b%mb == 0:
		return fmt.Sprintf("%dMB", b/mb)
	case b >= kb && b%kb == 0:
		return fmt.Sprintf("%dKB", b/kb)
	}
	return fmt.Sprintf("%dB", b)
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

const (
	kb = 1 << 10
	mb = 1 << 20
)

// SMPCatalog returns Table 3: the six SMP configurations C1–C6
// (200 MHz CPUs).
func SMPCatalog() []Config {
	mk := func(name string, n int, cache, mem int64) Config {
		return Config{Name: name, Kind: SMP, N: 1, Procs: n,
			CacheBytes: cache, MemoryBytes: mem, Net: NetNone, ClockMHz: 200}
	}
	return []Config{
		mk("C1", 2, 256*kb, 64*mb),
		mk("C2", 2, 512*kb, 64*mb),
		mk("C3", 2, 256*kb, 128*mb),
		mk("C4", 2, 512*kb, 128*mb),
		mk("C5", 4, 256*kb, 128*mb),
		mk("C6", 4, 512*kb, 128*mb),
	}
}

// WSCatalog returns Table 4: the five cluster-of-workstations
// configurations C7–C11 (200 MHz CPUs).
func WSCatalog() []Config {
	mk := func(name string, n int, cache, mem int64, net NetworkKind) Config {
		return Config{Name: name, Kind: ClusterWS, N: n, Procs: 1,
			CacheBytes: cache, MemoryBytes: mem, Net: net, ClockMHz: 200}
	}
	return []Config{
		mk("C7", 2, 256*kb, 32*mb, NetBus10),
		mk("C8", 4, 256*kb, 64*mb, NetBus100),
		mk("C9", 4, 512*kb, 64*mb, NetBus100),
		mk("C10", 4, 256*kb, 64*mb, NetSwitch155),
		mk("C11", 8, 512*kb, 64*mb, NetSwitch155),
	}
}

// SMPClusterCatalog returns Table 5: the four cluster-of-SMPs
// configurations C12–C15 (200 MHz CPUs).
func SMPClusterCatalog() []Config {
	mk := func(name string, n, N int, cache, mem int64, net NetworkKind) Config {
		return Config{Name: name, Kind: ClusterSMP, N: N, Procs: n,
			CacheBytes: cache, MemoryBytes: mem, Net: net, ClockMHz: 200}
	}
	return []Config{
		mk("C12", 2, 2, 256*kb, 64*mb, NetBus10),
		mk("C13", 2, 2, 256*kb, 128*mb, NetBus100),
		mk("C14", 4, 2, 256*kb, 128*mb, NetBus100),
		mk("C15", 4, 2, 256*kb, 128*mb, NetSwitch155),
	}
}

// Catalog returns all fifteen paper configurations C1–C15 in order.
func Catalog() []Config {
	all := SMPCatalog()
	all = append(all, WSCatalog()...)
	all = append(all, SMPClusterCatalog()...)
	return all
}

const gb = 1 << 30

// ModernCatalog returns present-day platform descriptions alongside the
// paper's 1999 tables: multi-level cache hierarchies and the clock speeds
// the paper's "speed gap" conclusion predicted. Clocks are exact multiples
// of the 200 MHz reference so every scaled latency stays an integral cycle
// count and the simulator keeps its exact integer-clock engine.
//
// These live in their own catalog — ByName resolves them, but Catalog()
// still returns exactly C1–C15, so the paper-reproduction tables and
// golden artifacts are untouched.
func ModernCatalog() []Config {
	return []Config{
		{
			// A two-socket server: 2×8 cores sharing one memory system.
			// Per-core L1/L2 plus a per-core share of a socket-level L3.
			Name: "modern-2s-server", Kind: SMP, N: 1, Procs: 16,
			CacheBytes: 32 * kb,
			Levels: []CacheLevel{
				{Bytes: 32 * kb, LatencyCycles: 4},
				{Bytes: 1 * mb, LatencyCycles: 14},
				{Bytes: 4 * mb, LatencyCycles: 44},
			},
			MemoryBytes: 64 * gb, Net: NetNone, ClockMHz: 3000,
		},
		{
			// A general-purpose 8-vCPU cloud instance.
			Name: "cloud-vm-8", Kind: SMP, N: 1, Procs: 8,
			CacheBytes: 32 * kb,
			Levels: []CacheLevel{
				{Bytes: 32 * kb, LatencyCycles: 4},
				{Bytes: 512 * kb, LatencyCycles: 12},
				{Bytes: 2 * mb, LatencyCycles: 40},
			},
			MemoryBytes: 32 * gb, Net: NetNone, ClockMHz: 2600,
		},
	}
}

// presets is every configuration ByName resolves, built once in its search
// order: the paper catalog, then the modern platforms.
var presets = append(Catalog(), ModernCatalog()...)

// ByName returns the named configuration: a paper catalog entry (C1–C15)
// or a modern-platform entry (modern-2s-server, cloud-vm-8). The name is
// matched case-insensitively after trimming spaces. The result is the
// caller's own copy: a preset's Levels list is cloned, so mutating it
// cannot reach the next lookup.
func ByName(name string) (Config, error) {
	name = strings.TrimSpace(name)
	for _, c := range presets {
		if strings.EqualFold(c.Name, name) {
			if c.Levels != nil {
				c.Levels = append([]CacheLevel(nil), c.Levels...)
			}
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("machine: no catalog configuration %q", name)
}

// Latencies is the §5.1 latency table, in CPU cycles. Remote latencies are
// per-network.
type Latencies struct {
	Instruction float64 // one instruction execution
	CacheHit    float64 // level-1 access
	LocalMemory float64 // cache miss to local memory
	LocalDisk   float64 // memory miss to local disk
	RemoteCache float64 // cache miss to a remote cache within an SMP

	RemoteNode   map[NetworkKind]float64 // cache miss to a remote node
	RemoteCached map[NetworkKind]float64 // cache miss to remotely cached data
}

// ReferenceClockMHz is the clock at which the §5.1 latency table is quoted.
const ReferenceClockMHz = 200

// LatenciesAt returns the latency table for a processor running at the
// given clock: memory, disk, and network are wall-time devices (their §5.1
// cycle counts are 200 MHz measurements, so their cycle cost scales with
// the clock), while instruction execution and the on-chip cache track the
// core. This is the "speed gap" of the paper's conclusions — the faster
// the processor, the more cycles every hierarchy level beyond the cache
// costs.
func LatenciesAt(kind PlatformKind, clockMHz float64) Latencies {
	l := DefaultLatencies(kind)
	if clockMHz <= 0 || clockMHz == ReferenceClockMHz {
		return l
	}
	f := clockMHz / ReferenceClockMHz
	l.LocalMemory *= f
	l.LocalDisk *= f
	l.RemoteCache *= f // a neighbour's cache is reached over the machine bus
	rn := make(map[NetworkKind]float64, len(l.RemoteNode))
	rc := make(map[NetworkKind]float64, len(l.RemoteCached))
	for k, v := range l.RemoteNode {
		rn[k] = v * f
	}
	for k, v := range l.RemoteCached {
		rc[k] = v * f
	}
	l.RemoteNode, l.RemoteCached = rn, rc
	return l
}

// The reference-clock remote-latency tables, built once: a simulator is
// constructed per run (sweeps build thousands), and re-allocating identical
// maps on every construction showed up in the streaming engine's allocation
// budget. Callers must treat the maps as read-only; LatenciesAt copies them
// before scaling.
var (
	csmpRemoteNode   = map[NetworkKind]float64{NetBus10: 45078, NetBus100: 4578, NetSwitch155: 3278}
	csmpRemoteCached = map[NetworkKind]float64{NetBus10: 90153, NetBus100: 9153, NetSwitch155: 6553}
	wsRemoteNode     = map[NetworkKind]float64{NetBus10: 45075, NetBus100: 4575, NetSwitch155: 3275}
	wsRemoteCached   = map[NetworkKind]float64{NetBus10: 90150, NetBus100: 9150, NetSwitch155: 6550}
)

// DefaultLatencies returns the paper's §5.1 values for the given platform
// kind, quoted at the 200 MHz reference clock. The cluster-of-SMPs remote
// latencies are three cycles higher than the workstation-cluster ones,
// exactly as listed. The RemoteNode and RemoteCached maps are shared across
// calls and must not be mutated.
func DefaultLatencies(kind PlatformKind) Latencies {
	l := Latencies{
		Instruction: 1,
		CacheHit:    1,
		LocalMemory: 50,
		LocalDisk:   2000,
		RemoteCache: 15,
	}
	switch kind {
	case ClusterSMP:
		l.RemoteNode, l.RemoteCached = csmpRemoteNode, csmpRemoteCached
	default:
		l.RemoteNode, l.RemoteCached = wsRemoteNode, wsRemoteCached
	}
	return l
}
