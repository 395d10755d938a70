// Package backend implements the execution-driven memory-hierarchy
// simulators that validate the analytical model — the counterpart of the
// paper's five MINT back-ends:
//
//   - an SMP with a snooping write-invalidate (MSI) protocol over a shared
//     memory bus (2-way set-associative 64-byte-line caches, §5.1),
//   - a cluster of workstations with a directory-based protocol over
//     256-byte blocks (states uncached/shared/exclusive) on a bus (10/100
//     Mb Ethernet) or switch (155 Mb ATM) network, and
//   - a cluster of SMPs with the hybrid protocol: snooping inside a node,
//     directory across nodes sharing the same block states.
//
// All five variants are parameterizations of one System; NewSystem selects
// the protocol combination from the machine configuration. Timing is in
// CPU cycles using the paper's latency table. Shared media (memory buses,
// the cluster network, I/O buses) are serially occupied resources, so
// contention emerges from the simulation rather than from a formula.
//
//chc:deterministic
package backend

import (
	"fmt"
	"math/bits"

	"memhier/internal/machine"
	"memhier/internal/sim/cache"
	"memhier/internal/sim/interconnect"
	"memhier/internal/sim/memory"
)

// Block geometry of the paper's protocols.
const (
	CacheLineSize = 64  // SMP snooping granularity (§5.1)
	CacheAssoc    = 2   // two-way set-associative (§5.1)
	DSMBlockSize  = 256 // directory protocol block size (§5.1)
)

// dirState is the directory state of a 256-byte block (paper §5.1: each
// block of the memory has three states).
type dirState uint8

const (
	dirUncached dirState = iota
	dirShared
	dirExclusive
)

// blockEnt is one 256-byte block's cluster-wide bookkeeping: its directory
// entry and its first-touch home node, combined so the cluster hot path
// resolves both with a single probe. A block with state dirUncached and no
// sharers is semantically identical to an absent directory entry; such
// entries exist only to remember the home assignment.
type blockEnt struct {
	block   uint64 // key; blockEmpty marks a free table slot
	sharers uint64 // bitmask of nodes with copies
	// dirty counts the block's Modified lines per node in 8-bit lanes
	// (lane = node index; maintained only when System.trackDirty). A block
	// has DSMBlockSize/CacheLineSize = 4 lines and the single-writer
	// invariant caps each at one Modified copy machine-wide, so a lane
	// never exceeds 4. It turns fill's keep-exclusive-while-dirty check
	// (nodeHoldsDirty) from a scan of every way of every cache in the
	// node into one load.
	dirty uint64
	home  int32 // first-touch home node
	owner int32 // valid when state == dirExclusive
	state dirState
}

// blockEmpty is the free-slot sentinel. Blocks are byte addresses divided
// by DSMBlockSize, so with addresses bounded by trace.MaxAddr (2^62-1) a
// real block key can never reach it.
const blockEmpty = ^uint64(0)

// blockTable maps block -> blockEnt with open addressing (linear probing,
// Fibonacci hashing). It replaces the previous dir/homes pair of Go maps:
// every cluster miss and write upgrade resolves a block, and the two map
// lookups dominated the cluster simulation profile.
type blockTable struct {
	slots []blockEnt
	shift uint // 64 - log2(len(slots)): Fibonacci hash to a slot index
	n     int  // occupied slots
	// One-entry memo for repeat resolutions of the same block — a miss
	// resolves its block in clusterMiss and again for the write-back in
	// fill, and the four lines of a block miss in bursts. The index (not a
	// pointer) stays valid until grow, which resets it.
	lastBlock uint64
	lastIdx   int32
}

// getOrCreate returns the entry for block, creating it (home = toucher,
// state dirUncached) on first touch. The returned pointer is invalidated
// by the next getOrCreate call, which may grow the table — callers must
// finish with an entry before resolving another block.
func (t *blockTable) getOrCreate(block uint64, toucher int) *blockEnt {
	if block == t.lastBlock && len(t.slots) > 0 {
		return &t.slots[t.lastIdx]
	}
	if t.n >= len(t.slots)-len(t.slots)/4 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := (block * 0x9E3779B97F4A7C15) >> t.shift
	for {
		s := &t.slots[i]
		if s.block == block {
			t.lastBlock, t.lastIdx = block, int32(i)
			return s
		}
		if s.block == blockEmpty {
			*s = blockEnt{block: block, home: int32(toucher), owner: -1}
			t.n++
			t.lastBlock, t.lastIdx = block, int32(i)
			return s
		}
		i = (i + 1) & mask
	}
}

func (t *blockTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = 1 << 10
	}
	t.slots = make([]blockEnt, size)
	for i := range t.slots {
		t.slots[i].block = blockEmpty
	}
	t.lastBlock = blockEmpty
	t.shift = uint(64 - bits.Len(uint(size-1)))
	mask := uint64(size - 1)
	for _, e := range old {
		if e.block == blockEmpty {
			continue
		}
		i := (e.block * 0x9E3779B97F4A7C15) >> t.shift
		for t.slots[i].block != blockEmpty {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// AccessClass classifies where a reference was served, mirroring the
// paper's memory-hierarchy levels (Figure 1).
type AccessClass int

// Access classes, cheapest first. ClassL2Cache and ClassL3Cache exist only
// on multi-level configurations (machine.Config.Levels); one-level runs
// never record them.
const (
	ClassCacheHit    AccessClass = iota // own L1 cache
	ClassL2Cache                        // own L2 cache (multi-level configs)
	ClassL3Cache                        // own L3 cache (multi-level configs)
	ClassRemoteCache                    // another cache in the same machine (15)
	ClassLocalMemory                    // the machine's memory (50)
	ClassRemoteClean                    // a remote node's memory (2-hop transfer)
	ClassRemoteDirty                    // remotely cached data (3-hop transfer)
	ClassDisk                           // page fault to disk (2000)
	numClasses
)

// DeepOnly reports whether the class can only appear on multi-level
// configurations; output layers skip zero-count deep classes so one-level
// runs keep their historical output bytes.
func (c AccessClass) DeepOnly() bool { return c == ClassL2Cache || c == ClassL3Cache }

// String names the class.
func (c AccessClass) String() string {
	switch c {
	case ClassCacheHit:
		return "cache"
	case ClassL2Cache:
		return "l2-cache"
	case ClassL3Cache:
		return "l3-cache"
	case ClassRemoteCache:
		return "remote-cache"
	case ClassLocalMemory:
		return "local-memory"
	case ClassRemoteClean:
		return "remote-node"
	case ClassRemoteDirty:
		return "remote-cached"
	case ClassDisk:
		return "disk"
	}
	return fmt.Sprintf("AccessClass(%d)", int(c))
}

// Protocol selects the cache-coherence state machine.
type Protocol int

// Protocols. The paper's simulators use write-invalidate MSI (§5.1); MESI
// is the simulator's extension for the protocol ablation: a sole clean copy
// is installed Exclusive and upgrades to Modified silently.
const (
	ProtocolMSI Protocol = iota
	ProtocolMESI
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtocolMSI:
		return "MSI"
	case ProtocolMESI:
		return "MESI"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// SystemOptions tunes simulator variants beyond the machine configuration.
type SystemOptions struct {
	Protocol Protocol // default ProtocolMSI (the paper's)
}

// System is one simulated platform instance. It is not safe for concurrent
// use; the engine drives it from a single goroutine in global time order.
type System struct {
	cfg  machine.Config
	lat  machine.Latencies
	opts SystemOptions

	nodes int // N
	perN  int // n

	caches []*cache.Cache // per cpu (level 1, the coherent level)
	// deep holds the private L2/L3 victim caches of multi-level configs:
	// deep[l][cpu] is processor cpu's level l+2 cache. nil on one-level
	// configs, which keeps every 1-level code path — including the
	// engines' packed fast path — structurally identical to the
	// pre-Levels simulator. Deep levels hold only clean lines a processor
	// evicted from the level above (an exclusive victim hierarchy), so
	// the coherence protocol still runs entirely between the L1s; writes
	// and cross-node invalidations additionally kill deep copies.
	deep    [][]*cache.Cache
	deepLat []float64 // access latency per deep level, in cycles
	// pres counts each node's deep copies by line hash (see
	// presenceFilter): the deep helpers return at once where it proves a
	// line absent. Empty on one-level configs.
	pres presenceFilter
	// hots holds the flattened fast-path views of every cache when the
	// geometry supports them (hotOK); the snoop and directory helpers then
	// probe with inlined loads instead of a call per line.
	hots  []cache.Hot
	hotOK bool
	// trackDirty enables the per-(node, block) Modified-line counters in
	// blockEnt.dirty: hot views available (every transition site can see
	// old states cheaply) and at most 8 nodes (one 8-bit lane each).
	// Otherwise nodeHoldsDirty falls back to scanning.
	trackDirty bool
	membus     []*interconnect.Resource // per node: memory/snoop bus
	iobus      []*interconnect.Resource // per node: I/O (disk) bus
	mems       []*memory.Memory         // per node: page residency

	netBus   *interconnect.Resource   // bus networks: one shared medium
	netPorts []*interconnect.Resource // switch networks: per-node port

	blocks blockTable // block -> directory entry + home node (clusters only)

	// Latency scalars hoisted out of the machine.Latencies maps: the map
	// lookups keyed by network kind were measurable on the cluster paths.
	latRemoteNode   float64
	latRemoteCached float64

	stats Stats
}

// Stats aggregates simulator-side measurements.
type Stats struct {
	Refs        uint64
	ClassCounts [numClasses]uint64
	ClassCycles [numClasses]float64

	Upgrades       uint64 // write hits on Shared lines
	SilentUpgrades uint64 // MESI Exclusive→Modified transitions (no traffic)
	InvalidateMsgs uint64 // cross-node invalidation transactions
	Writebacks     uint64 // dirty evictions pushed toward memory/home
	PageFaults     uint64

	CoherenceBusCycles float64 // membus cycles due to snoops/upgrades
	TotalBusCycles     float64 // all membus cycles
}

// Minus returns the counter deltas a − b (for per-phase accounting).
func (a Stats) Minus(b Stats) Stats {
	d := Stats{
		Refs:               a.Refs - b.Refs,
		Upgrades:           a.Upgrades - b.Upgrades,
		SilentUpgrades:     a.SilentUpgrades - b.SilentUpgrades,
		InvalidateMsgs:     a.InvalidateMsgs - b.InvalidateMsgs,
		Writebacks:         a.Writebacks - b.Writebacks,
		PageFaults:         a.PageFaults - b.PageFaults,
		CoherenceBusCycles: a.CoherenceBusCycles - b.CoherenceBusCycles,
		TotalBusCycles:     a.TotalBusCycles - b.TotalBusCycles,
	}
	for c := 0; c < int(numClasses); c++ {
		d.ClassCounts[c] = a.ClassCounts[c] - b.ClassCounts[c]
		d.ClassCycles[c] = a.ClassCycles[c] - b.ClassCycles[c]
	}
	return d
}

// NewSystem builds the simulator for a validated machine configuration,
// with the paper's protocol settings.
func NewSystem(cfg machine.Config) (*System, error) {
	return NewSystemOpts(cfg, SystemOptions{})
}

// NewSystemOpts builds the simulator with explicit variant options.
func NewSystemOpts(cfg machine.Config, opts SystemOptions) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:   cfg,
		lat:   machine.LatenciesAt(cfg.Kind, cfg.ClockMHz),
		opts:  opts,
		nodes: cfg.N,
		perN:  cfg.Procs,
	}
	if cfg.N > 64 {
		return nil, fmt.Errorf("backend: %s: directory sharer mask supports at most 64 nodes, got %d", cfg.Name, cfg.N)
	}
	// A multi-level config may pin its L1 hit latency; one-level configs
	// keep the §5.1 table value.
	s.lat.CacheHit = cfg.L1Latency(s.lat.CacheHit)
	levels := cfg.CacheLevels()
	s.caches = make([]*cache.Cache, 0, cfg.TotalProcs())
	for cpu := 0; cpu < cfg.TotalProcs(); cpu++ {
		s.caches = append(s.caches, cache.New(int(levels[0].Bytes), CacheLineSize, CacheAssoc))
	}
	deepLines := 0 // one processor's deep capacity, in lines
	for li := 1; li < len(levels); li++ {
		assoc, ok := deepAssoc(levels[li].Bytes)
		if !ok {
			return nil, fmt.Errorf("backend: %s: cache level %d size %d is not a power-of-two multiple of the %d-byte line",
				cfg.Name, li+1, levels[li].Bytes, CacheLineSize)
		}
		lvl := make([]*cache.Cache, cfg.TotalProcs())
		for cpu := range lvl {
			lvl[cpu] = cache.New(int(levels[li].Bytes), CacheLineSize, assoc)
		}
		s.deep = append(s.deep, lvl)
		s.deepLat = append(s.deepLat, levels[li].LatencyCycles)
		deepLines += int(levels[li].Bytes / CacheLineSize)
	}
	if s.deep != nil {
		s.pres = newPresenceFilter(cfg.N, cfg.Procs*deepLines)
	}
	s.hots = make([]cache.Hot, len(s.caches))
	s.hotOK = true
	for i, c := range s.caches {
		h, ok := c.Hot()
		if !ok {
			s.hots, s.hotOK = nil, false
			break
		}
		s.hots[i] = h
	}
	s.trackDirty = s.hotOK && s.nodes > 1 && s.nodes <= 8
	s.membus = make([]*interconnect.Resource, 0, cfg.N)
	s.iobus = make([]*interconnect.Resource, 0, cfg.N)
	s.mems = make([]*memory.Memory, 0, cfg.N)
	for node := 0; node < cfg.N; node++ {
		s.membus = append(s.membus, interconnect.NewResource(fmt.Sprintf("membus%d", node)))
		s.iobus = append(s.iobus, interconnect.NewResource(fmt.Sprintf("iobus%d", node)))
		s.mems = append(s.mems, memory.New(cfg.MemoryBytes))
	}
	if cfg.N > 1 {
		s.latRemoteNode = s.lat.RemoteNode[cfg.Net]
		s.latRemoteCached = s.lat.RemoteCached[cfg.Net]
		if cfg.Net.IsBus() {
			s.netBus = interconnect.NewResource("netbus")
		} else {
			for node := 0; node < cfg.N; node++ {
				s.netPorts = append(s.netPorts, interconnect.NewResource(fmt.Sprintf("port%d", node)))
			}
		}
	}
	return s, nil
}

// deepAssoc picks a deep level's associativity: the highest of 8/4/2/1
// whose set count comes out a power of two for the given capacity (the
// cache package's geometry requirement).
func deepAssoc(sizeBytes int64) (int, bool) {
	for _, assoc := range []int{8, 4, 2, 1} {
		way := int64(CacheLineSize * assoc)
		if sizeBytes%way == 0 {
			if sets := sizeBytes / way; sets > 0 && sets&(sets-1) == 0 {
				return assoc, true
			}
		}
	}
	return 0, false
}

// deepTake serves addr from cpu's private deep hierarchy if resident: the
// line is removed from the deep level (it moves up into the L1 on the
// caller's fill) and the level index (0 = L2) is returned. The hierarchy
// is exclusive — a line sits in at most one of a processor's levels — so
// the first copy found is the only one.
func (s *System) deepTake(cpu int, addr uint64) (int, bool) {
	i := s.pres.slot(s.node(cpu), addr)
	if s.pres.counts[i] == 0 {
		return 0, false
	}
	for li := range s.deep {
		if s.deep[li][cpu].Take(addr) {
			s.pres.remove(i)
			return li, true
		}
	}
	return 0, false
}

// deepClass maps a deep level index to its access class.
func deepClass(li int) AccessClass { return ClassL2Cache + AccessClass(li) }

// deepInstall pushes a line evicted from the L1 into the deep hierarchy:
// install clean at L2, cascading each level's victim into the next (an
// exclusive victim hierarchy). Deep lines are always clean — a dirty
// victim's write-back has already been charged by fill.
func (s *System) deepInstall(cpu int, addr uint64) {
	node := s.node(cpu)
	s.pres.add(s.pres.slot(node, addr))
	for li := range s.deep {
		evAddr, _, evicted := s.deep[li][cpu].Fill(addr, cache.Shared)
		if !evicted {
			return
		}
		addr = evAddr
	}
	// The last level's victim has left the node's deep hierarchies.
	s.pres.remove(s.pres.slot(node, addr))
}

// deepHeldElsewhere reports whether any other processor of cpu's node
// holds addr in its deep hierarchy (a MESI Exclusive grant must see no
// other copy in the machine, deep levels included).
func (s *System) deepHeldElsewhere(cpu int, addr uint64) bool {
	myNode := s.node(cpu)
	if s.pres.counts[s.pres.slot(myNode, addr)] == 0 {
		return false
	}
	for p := 0; p < s.perN; p++ {
		other := myNode*s.perN + p
		if other == cpu {
			continue
		}
		for li := range s.deep {
			if _, ok := s.deep[li][other].Probe(addr); ok {
				return true
			}
		}
	}
	return false
}

// deepInvalidateOthers kills addr in the deep hierarchies of cpu's node
// siblings — every write that takes ownership of a line must also
// invalidate the clean deep copies the L1 snoop cannot see. The sweep ends
// as soon as the line's counter drops to zero: no copy is left to find.
func (s *System) deepInvalidateOthers(cpu int, addr uint64) {
	myNode := s.node(cpu)
	i := s.pres.slot(myNode, addr)
	if s.pres.counts[i] == 0 {
		return
	}
	for p := 0; p < s.perN; p++ {
		other := myNode*s.perN + p
		if other == cpu {
			continue
		}
		for li := range s.deep {
			if s.deep[li][other].Take(addr) {
				s.pres.remove(i)
				if s.pres.counts[i] == 0 {
					return
				}
			}
		}
	}
}

// deepInvalidateBlock kills every line of the block in every deep cache of
// the node (the deep complement of invalidateNode's L1 sweep), returning
// the number of lines dropped. Each line's sweep ends once its counter
// drops to zero.
func (s *System) deepInvalidateBlock(node int, block uint64) int {
	killed := 0
	base := block * DSMBlockSize
	for off := uint64(0); off < DSMBlockSize; off += CacheLineSize {
		i := s.pres.slot(node, base+off)
		if s.pres.counts[i] == 0 {
			continue
		}
	sweep:
		for p := 0; p < s.perN; p++ {
			cpu := node*s.perN + p
			for li := range s.deep {
				if s.deep[li][cpu].Take(base + off) {
					s.pres.remove(i)
					killed++
					if s.pres.counts[i] == 0 {
						break sweep
					}
				}
			}
		}
	}
	return killed
}

// Config returns the simulated configuration.
func (s *System) Config() machine.Config { return s.cfg }

// Stats returns the aggregated counters.
func (s *System) Stats() Stats { return s.stats }

// exactLatencies reports whether every latency a run can charge is a
// non-negative integral number of cycles. Then every clock, wait, and cycle
// accumulator in a run holds exact integers (well below 2^53), float
// addition over them is associative, and the engines may defer or regroup
// commutative accounting without changing a single result bit. Scaled
// latency tables (machine.LatenciesAt with a non-divisor clock) can be
// fractional, which disables that.
func (s *System) exactLatencies() bool {
	//chc:allow floateq -- integrality test: v == trunc(v) is the predicate itself
	isInt := func(v float64) bool { return v >= 0 && v == float64(uint64(v)) }
	for _, d := range s.deepLat {
		if !isInt(d) {
			return false
		}
	}
	return isInt(s.lat.Instruction) && isInt(s.lat.CacheHit) &&
		isInt(s.lat.LocalMemory) && isInt(s.lat.LocalDisk) &&
		isInt(s.lat.RemoteCache) && isInt(s.latRemoteNode) && isInt(s.latRemoteCached)
}

// VerifyCoherence checks the protocol's single-writer invariant across all
// caches: a line held Modified (or Exclusive) by one processor must not be
// valid in any other cache. It returns the first violation found, or nil.
// Intended for tests and debugging; it scans every line of every cache.
func (s *System) VerifyCoherence() error {
	// owners[line] = cpu holding it Modified/Exclusive; sharers tracked to
	// cross-check.
	type holder struct {
		cpu int
		st  cache.State
	}
	held := make(map[uint64][]holder)
	for cpu := range s.caches {
		cpu := cpu
		s.caches[cpu].Lines(func(lineAddr uint64, st cache.State) {
			held[lineAddr] = append(held[lineAddr], holder{cpu: cpu, st: st})
		})
	}
	for line, hs := range held {
		exclusive := -1
		for _, h := range hs {
			if h.st == cache.Modified || h.st == cache.Exclusive {
				exclusive = h.cpu
			}
		}
		if exclusive >= 0 && len(hs) > 1 {
			return fmt.Errorf("backend: line %#x held %v by cpu %d but valid in %d caches",
				line*CacheLineSize, cache.Modified, exclusive, len(hs))
		}
	}
	// Deep levels hold only clean victims: no line may sit there
	// Modified/Exclusive, and a line owned by any L1 must have no deep copy
	// anywhere (every ownership grant sweeps the deep hierarchies).
	for li := range s.deep {
		for cpu := range s.deep[li] {
			var deepErr error
			s.deep[li][cpu].Lines(func(lineAddr uint64, st cache.State) {
				if deepErr != nil {
					return
				}
				if st == cache.Modified || st == cache.Exclusive {
					deepErr = fmt.Errorf("backend: line %#x held %v in cpu %d L%d (deep levels must stay clean)",
						lineAddr*CacheLineSize, st, cpu, li+2)
					return
				}
				for _, h := range held[lineAddr] {
					if h.st == cache.Modified || h.st == cache.Exclusive {
						deepErr = fmt.Errorf("backend: line %#x owned %v by cpu %d L1 but cached in cpu %d L%d",
							lineAddr*CacheLineSize, h.st, h.cpu, cpu, li+2)
						return
					}
				}
			})
			if deepErr != nil {
				return deepErr
			}
		}
	}
	if err := s.verifyPresence(); err != nil {
		return err
	}
	// Cross-check the Modified-line lanes against a full scan: every test
	// that exercises the counters through randomized traffic also verifies
	// them here.
	if s.trackDirty {
		for i := range s.blocks.slots {
			e := &s.blocks.slots[i]
			if e.block == blockEmpty {
				continue
			}
			base := e.block * DSMBlockSize
			for node := 0; node < s.nodes; node++ {
				n := 0
				for p := 0; p < s.perN; p++ {
					c := s.caches[node*s.perN+p]
					for off := uint64(0); off < DSMBlockSize; off += CacheLineSize {
						if st, ok := c.Probe(base + off); ok && st == cache.Modified {
							n++
						}
					}
				}
				if got := int(e.dirty >> (8 * uint(node)) & 0xff); got != n {
					return fmt.Errorf("backend: block %#x node %d: dirty lane says %d Modified lines, scan finds %d",
						e.block, node, got, n)
				}
			}
		}
	}
	return nil
}

// verifyPresence checks the deep-presence filter's soundness: every counter
// must be at least the number of resident deep lines of its node that hash
// to it. A copy of the counters is drained by the lines actually resident;
// a counter that runs dry was an under-count. Saturated counters, whose
// true count is unknown by design, are exempt.
func (s *System) verifyPresence() error {
	left := append([]uint8(nil), s.pres.counts...)
	for li := range s.deep {
		for cpu := range s.deep[li] {
			node := s.node(cpu)
			var err error
			s.deep[li][cpu].Lines(func(lineAddr uint64, _ cache.State) {
				i := s.pres.slot(node, lineAddr*CacheLineSize)
				switch {
				case err != nil || s.pres.counts[i] == presenceSaturated:
				case left[i] == 0:
					err = fmt.Errorf("backend: node %d presence counter %d is %d, below the resident deep lines hashing to it (line %#x in cpu %d L%d)",
						node, i-node<<s.pres.bits, s.pres.counts[i], lineAddr*CacheLineSize, cpu, li+2)
				default:
					left[i]--
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// CacheStats returns the per-processor cache counters.
func (s *System) CacheStats() []cache.Stats {
	out := make([]cache.Stats, len(s.caches))
	for i, c := range s.caches {
		out[i] = c.Stats()
	}
	return out
}

func (s *System) node(cpu int) int         { return cpu / s.perN }
func (s *System) block(addr uint64) uint64 { return addr / DSMBlockSize }

// entry returns the block's combined directory/home entry, assigning the
// home on first touch — which reproduces the paper's "contiguous subset
// allocated in its local memory" placement, since each process initializes
// its own partition first.
func (s *System) entry(block uint64, toucher int) *blockEnt {
	return s.blocks.getOrCreate(block, toucher)
}

// invalidateNode kills every cache line of the block in every cache of the
// node, returning how many lines were dropped.
func (s *System) invalidateNode(node int, block uint64) int {
	killed := 0
	base := block * DSMBlockSize
	if s.hotOK {
		// Fused probe+invalidate per the Hot contract: xor-ing a way with
		// tag<<3 leaves (on a tag match) just the MRU and state bits, so
		// "residue&^4 in 1..3" is "valid line with this tag" in one
		// compare. Invalidation clears only the state bits; the MRU bit
		// survives, as with Cache.SetState.
		dirtyKilled := 0
		for p := 0; p < s.perN; p++ {
			h := &s.hots[node*s.perN+p]
			for off := uint64(0); off < DSMBlockSize; off += CacheLineSize {
				tag := (base + off) >> h.Shift
				b := (tag & h.Mask) << 1
				if r := (h.Ways[b] ^ (tag << 3)) &^ 4; r-1 < 3 {
					if r == 3 {
						dirtyKilled++
					}
					h.Ways[b] &^= 3
					killed++
					*h.Invalidates++
				} else if r := (h.Ways[b+1] ^ (tag << 3)) &^ 4; r-1 < 3 {
					if r == 3 {
						dirtyKilled++
					}
					h.Ways[b+1] &^= 3
					killed++
					*h.Invalidates++
				}
			}
		}
		if s.trackDirty && dirtyKilled > 0 {
			s.dirtyAdd(node, block, -dirtyKilled)
		}
		if s.deep != nil {
			killed += s.deepInvalidateBlock(node, block)
		}
		return killed
	}
	for p := 0; p < s.perN; p++ {
		c := s.caches[node*s.perN+p]
		for off := uint64(0); off < DSMBlockSize; off += CacheLineSize {
			if _, ok := c.Probe(base + off); ok {
				c.SetState(base+off, cache.Invalid)
				killed++
			}
		}
	}
	if s.deep != nil {
		killed += s.deepInvalidateBlock(node, block)
	}
	return killed
}

// downgradeNode moves every Modified or Exclusive line of the block in the
// node's caches to Shared (a remote read of a dirty block).
func (s *System) downgradeNode(node int, block uint64) {
	base := block * DSMBlockSize
	if s.hotOK {
		// Fused probe+downgrade: residue&^4 of way^tag<<3 is the state on a
		// tag match; 2..3 (Exclusive, Modified) in one compare.
		downgraded := 0
		for p := 0; p < s.perN; p++ {
			h := &s.hots[node*s.perN+p]
			for off := uint64(0); off < DSMBlockSize; off += CacheLineSize {
				tag := (base + off) >> h.Shift
				b := (tag & h.Mask) << 1
				if r := (h.Ways[b] ^ (tag << 3)) &^ 4; r-2 < 2 {
					if r == 3 {
						downgraded++
					}
					h.Ways[b] = h.Ways[b]&^3 | uint64(cache.Shared)
				} else if r := (h.Ways[b+1] ^ (tag << 3)) &^ 4; r-2 < 2 {
					if r == 3 {
						downgraded++
					}
					h.Ways[b+1] = h.Ways[b+1]&^3 | uint64(cache.Shared)
				}
			}
		}
		if s.trackDirty && downgraded > 0 {
			s.dirtyAdd(node, block, -downgraded)
		}
		return
	}
	for p := 0; p < s.perN; p++ {
		c := s.caches[node*s.perN+p]
		for off := uint64(0); off < DSMBlockSize; off += CacheLineSize {
			if st, ok := c.Probe(base + off); ok && st != cache.Shared {
				c.SetState(base+off, cache.Shared)
			}
		}
	}
}

// dirtyAdd adjusts the block's Modified-line lane for node. Callers guard
// with s.trackDirty and only decrement lanes a prior increment made
// non-zero (the counters mirror real state transitions), so lanes cannot
// underflow into their neighbors.
func (s *System) dirtyAdd(node int, block uint64, delta int) {
	e := s.entry(block, node)
	if delta >= 0 {
		e.dirty += uint64(delta) << (8 * uint(node))
	} else {
		e.dirty -= uint64(-delta) << (8 * uint(node))
	}
}

// dirtyRefill adjusts the lane when a fill overwrites a resident copy:
// old is the displaced way's packed word, st the installed state.
func (s *System) dirtyRefill(cpu int, addr uint64, old uint64, st cache.State) {
	wasM := old&3 == 3
	isM := st == cache.Modified
	if isM && !wasM {
		s.dirtyAdd(s.node(cpu), s.block(addr), 1)
	} else if wasM && !isM {
		s.dirtyAdd(s.node(cpu), s.block(addr), -1)
	}
}

// nodeHoldsDirty reports whether any cache of the node holds a Modified
// line of the block.
func (s *System) nodeHoldsDirty(node int, block uint64) bool {
	if s.trackDirty {
		return s.entry(block, node).dirty>>(8*uint(node))&0xff != 0
	}
	base := block * DSMBlockSize
	if s.hotOK {
		// Fused probe+state test: residue&^4 of way^tag<<3 equals 3 exactly
		// when the way holds this tag in Modified — one compare per way.
		// base is DSMBlockSize-aligned, so the block's line tags are the
		// consecutive run t0, t0+1, … (every cache shares one geometry).
		t0 := base >> s.hots[node*s.perN].Shift
		for p := 0; p < s.perN; p++ {
			h := &s.hots[node*s.perN+p]
			for k := uint64(0); k < DSMBlockSize/CacheLineSize; k++ {
				tag := t0 + k
				b := (tag & h.Mask) << 1
				if (h.Ways[b]^(tag<<3))&^4 == 3 || (h.Ways[b+1]^(tag<<3))&^4 == 3 {
					return true
				}
			}
		}
		return false
	}
	for p := 0; p < s.perN; p++ {
		c := s.caches[node*s.perN+p]
		for off := uint64(0); off < DSMBlockSize; off += CacheLineSize {
			if st, ok := c.Probe(base + off); ok && st == cache.Modified {
				return true
			}
		}
	}
	return false
}

// nodeHoldsExclusive reports whether any cache of the node holds a line of
// the block in the MESI Exclusive state.
func (s *System) nodeHoldsExclusive(node int, block uint64) bool {
	base := block * DSMBlockSize
	for p := 0; p < s.perN; p++ {
		c := s.caches[node*s.perN+p]
		for off := uint64(0); off < DSMBlockSize; off += CacheLineSize {
			if st, ok := c.Probe(base + off); ok && st == cache.Exclusive {
				return true
			}
		}
	}
	return false
}

// netAcquire occupies the cluster network for one transfer whose
// destination is the home node, returning the completion time.
func (s *System) netAcquire(home int, now, dur float64) float64 {
	if s.netBus != nil {
		return s.netBus.Acquire(now, dur)
	}
	return s.netPorts[home].Acquire(now, dur)
}

// memTouch charges the node's memory for holding addr's page, adding a
// disk transfer on a page fault (and a posted disk write when the evicted
// page was dirty — it occupies the I/O bus without stalling the
// requester). It returns the completion time.
func (s *System) memTouch(node int, addr uint64, write bool, now float64) (float64, bool) {
	resident, evictedDirty := s.mems[node].TouchW(addr, write)
	if resident {
		return now, false
	}
	s.stats.PageFaults++
	done := s.iobus[node].Acquire(now, s.lat.LocalDisk)
	if evictedDirty {
		s.iobus[node].Acquire(done, s.lat.LocalDisk)
	}
	return done, true
}

// Access simulates one reference by cpu at time now and returns its
// completion time. The classification of where it was served is recorded
// in the statistics.
func (s *System) Access(cpu int, addr uint64, write bool, now float64) float64 {
	s.stats.Refs++

	// Private-hit fast path, ahead of all coherence machinery: a read hit
	// in any state and a write hit on an already-Modified line need no
	// protocol action — this is the overwhelming majority of references.
	// The engines inline this same check (see runSeq) and fall through to
	// accessRest only on the slow path.
	st, hit := s.caches[cpu].Lookup(addr)
	if hit && (!write || st == cache.Modified) {
		return s.finish(ClassCacheHit, now, now+s.lat.CacheHit)
	}
	return s.accessRest(cpu, addr, write, now, st, hit)
}

// accessRest runs the coherence machinery for a reference that failed the
// private-hit fast path: st/hit are the requester's own-cache lookup result
// (already performed and counted by the caller).
func (s *System) accessRest(cpu int, addr uint64, write bool, now float64, st cache.State, hit bool) float64 {
	myCache := s.caches[cpu]
	myNode := s.node(cpu)

	if hit {
		if st == cache.Exclusive {
			// MESI: the sole clean copy becomes Modified with no
			// coherence transaction.
			myCache.SetState(addr, cache.Modified)
			if s.trackDirty {
				s.dirtyAdd(myNode, s.block(addr), 1)
			}
			s.stats.SilentUpgrades++
			return s.finish(ClassCacheHit, now, now+s.lat.CacheHit)
		}
		// Write hit on a Shared line: upgrade via invalidation.
		s.stats.Upgrades++
		done := now + s.lat.CacheHit
		// Intra-node: a snooping upgrade transaction on the memory bus.
		if s.perN > 1 {
			t := s.membus[myNode].Acquire(now, s.lat.RemoteCache)
			s.stats.CoherenceBusCycles += s.lat.RemoteCache
			s.stats.TotalBusCycles += s.lat.RemoteCache
			for p := 0; p < s.perN; p++ {
				other := myNode*s.perN + p
				if other == cpu {
					continue
				}
				if s.hotOK {
					s.hots[other].Set(addr, cache.Invalid)
				} else {
					s.caches[other].SetState(addr, cache.Invalid)
				}
			}
			if t > done {
				done = t
			}
		}
		if s.deep != nil {
			// The write takes ownership: sibling deep copies are clean
			// spill-overs the L1 snoop cannot see — kill them too.
			s.deepInvalidateOthers(cpu, addr)
		}
		// Cross-node: invalidate sharer nodes through the directory.
		if s.nodes > 1 {
			done = s.dirUpgrade(cpu, addr, now, done)
		}
		myCache.SetState(addr, cache.Modified)
		if s.trackDirty {
			// The requester held the line Shared, so no copy anywhere was
			// Modified; the upgrade adds exactly one (sibling-line kills in
			// other nodes are counted inside invalidateNode).
			s.dirtyAdd(myNode, s.block(addr), 1)
		}
		return s.finish(ClassCacheHit, now, done)
	}

	// Miss: try a cache-to-cache transfer within the machine first.
	if s.perN > 1 {
		for p := 0; p < s.perN; p++ {
			other := myNode*s.perN + p
			if other == cpu {
				continue
			}
			var ost cache.State
			var ok bool
			if s.hotOK {
				ost, ok = s.hots[other].Probe(addr)
			} else {
				ost, ok = s.caches[other].Probe(addr)
			}
			if ok {
				done := s.membus[myNode].Acquire(now, s.lat.RemoteCache)
				s.stats.CoherenceBusCycles += s.lat.RemoteCache
				s.stats.TotalBusCycles += s.lat.RemoteCache
				if write {
					// Take ownership; kill the other intra-node copies.
					for q := 0; q < s.perN; q++ {
						oc := myNode*s.perN + q
						if oc == cpu {
							continue
						}
						if s.hotOK {
							s.hots[oc].Set(addr, cache.Invalid)
						} else {
							s.caches[oc].SetState(addr, cache.Invalid)
						}
					}
					if s.trackDirty && ost == cache.Modified {
						// The snooped owner's Modified copy died; the
						// requester's fill below re-adds one.
						s.dirtyAdd(myNode, s.block(addr), -1)
					}
					if s.nodes > 1 {
						done = s.dirUpgrade(cpu, addr, now, done)
					}
				} else if ost == cache.Modified || ost == cache.Exclusive {
					if s.hotOK {
						s.hots[other].Set(addr, cache.Shared)
					} else {
						s.caches[other].SetState(addr, cache.Shared)
					}
					if s.trackDirty && ost == cache.Modified {
						s.dirtyAdd(myNode, s.block(addr), -1)
					}
				}
				if s.deep != nil {
					// The line moved into the requester's L1 without a deep
					// probe: drop any stale own deep copy, and on a write
					// kill the siblings' clean deep copies as well.
					s.deepTake(cpu, addr)
					if write {
						s.deepInvalidateOthers(cpu, addr)
					}
				}
				s.fill(cpu, addr, write, false, now)
				return s.finish(ClassRemoteCache, now, done)
			}
		}
	}

	// Own deep hierarchy (L2/L3), probed after the snoop: a sibling's
	// Modified copy must intervene first, and every write that takes
	// ownership kills deep copies, so a resident deep line is always
	// clean and current.
	if s.deep != nil {
		if li, ok := s.deepTake(cpu, addr); ok {
			if write {
				s.deepInvalidateOthers(cpu, addr)
				if s.nodes > 1 {
					return s.deepClusterServe(cpu, addr, write, now, li)
				}
			}
			s.fill(cpu, addr, write, false, now)
			return s.finish(deepClass(li), now, now+s.deepLat[li])
		}
	}

	if s.nodes == 1 {
		// Single SMP: fetch from the machine's memory over the bus.
		done := s.membus[myNode].Acquire(now, s.lat.LocalMemory)
		s.stats.TotalBusCycles += s.lat.LocalMemory
		class := ClassLocalMemory
		if t, faulted := s.memTouch(myNode, addr, write, done); faulted {
			done = t
			class = ClassDisk
		}
		// No other L1 in the machine holds the line (the snoop above would
		// have served it), so a MESI read fill may go Exclusive — unless a
		// sibling's deep hierarchy still holds a clean copy.
		sole := true
		if s.deep != nil && !write && s.opts.Protocol == ProtocolMESI {
			sole = !s.deepHeldElsewhere(cpu, addr)
		}
		if s.deep != nil && write {
			// The write takes ownership: clean spill-overs in sibling deep
			// hierarchies must die with it.
			s.deepInvalidateOthers(cpu, addr)
		}
		s.fill(cpu, addr, write, sole, now)
		return s.finish(class, now, done)
	}
	return s.clusterMiss(cpu, addr, write, now)
}

// deepClusterServe completes a write served from the processor's own deep
// hierarchy on a cluster: the line is clean and current (remote exclusivity
// would have invalidated it), so no data moves — but the directory must
// still take ownership for the writer's node, invalidating the other
// sharer nodes exactly as a write upgrade does.
func (s *System) deepClusterServe(cpu int, addr uint64, write bool, now float64, li int) float64 {
	done := s.dirUpgrade(cpu, addr, now, now+s.deepLat[li])
	s.fill(cpu, addr, write, false, now)
	return s.finish(deepClass(li), now, done)
}

// dirUpgrade acquires exclusive ownership of addr's block for cpu's node,
// invalidating other sharer nodes. It returns the new completion time.
func (s *System) dirUpgrade(cpu int, addr uint64, now, done float64) float64 {
	myNode := s.node(cpu)
	b := s.block(addr)
	e := s.entry(b, myNode)
	others := e.sharers &^ (1 << uint(myNode))
	if e.state == dirExclusive && int(e.owner) != myNode {
		others |= 1 << uint(e.owner)
	}
	if others != 0 {
		// One invalidation transaction on the network (broadcast on a bus;
		// the switch serializes through the home port).
		s.stats.InvalidateMsgs++
		t := s.netAcquire(int(e.home), now, s.latRemoteNode)
		if t > done {
			done = t
		}
		for node := 0; node < s.nodes; node++ {
			if others&(1<<uint(node)) != 0 {
				s.invalidateNode(node, b)
			}
		}
	}
	e.state = dirExclusive
	e.owner = int32(myNode)
	e.sharers = 1 << uint(myNode)
	return done
}

// clusterMiss serves a cache miss through the directory protocol.
func (s *System) clusterMiss(cpu int, addr uint64, write bool, now float64) float64 {
	myNode := s.node(cpu)
	b := s.block(addr)
	e := s.entry(b, myNode)
	home := int(e.home)

	dirtyRemote := e.state == dirExclusive && int(e.owner) != myNode
	// Sole copy in the system: no other node shares the block (and the
	// intra-node snoop already came up empty before reaching this path).
	sole := !dirtyRemote && e.sharers&^(1<<uint(myNode)) == 0
	if sole && s.deep != nil && !write && s.opts.Protocol == ProtocolMESI &&
		s.deepHeldElsewhere(cpu, addr) {
		// A sibling's deep hierarchy still holds a clean copy: the MESI
		// Exclusive grant below must not happen.
		sole = false
	}

	var done float64
	var class AccessClass
	switch {
	case home == myNode && !dirtyRemote:
		// Served by the local memory.
		done = s.membus[myNode].Acquire(now, s.lat.LocalMemory)
		s.stats.TotalBusCycles += s.lat.LocalMemory
		class = ClassLocalMemory
		if t, faulted := s.memTouch(myNode, addr, write, done); faulted {
			done = t
			class = ClassDisk
		}
	case dirtyRemote:
		// Remotely cached data: three-hop transfer.
		done = s.netAcquire(home, now, s.latRemoteCached)
		class = ClassRemoteDirty
		if t, faulted := s.memTouch(home, addr, write, done); faulted {
			done = t
			class = ClassDisk
		}
		if write {
			s.invalidateNode(int(e.owner), b)
		} else {
			s.downgradeNode(int(e.owner), b)
		}
	default:
		// Clean remote fetch: two-hop transfer from the home memory.
		done = s.netAcquire(home, now, s.latRemoteNode)
		class = ClassRemoteClean
		if t, faulted := s.memTouch(home, addr, write, done); faulted {
			done = t
			class = ClassDisk
		}
	}

	// Directory update.
	if write {
		if s.deep != nil {
			// Sibling deep copies within the writer's node are outside the
			// directory's cross-node sweep below.
			s.deepInvalidateOthers(cpu, addr)
		}
		others := e.sharers &^ (1 << uint(myNode))
		if dirtyRemote {
			others |= 1 << uint(e.owner)
		}
		if others != 0 && class != ClassRemoteDirty {
			// Invalidate other sharers (the dirty-remote path already
			// handled the owner above).
			s.stats.InvalidateMsgs++
			for node := 0; node < s.nodes; node++ {
				if others&(1<<uint(node)) != 0 {
					s.invalidateNode(node, b)
				}
			}
		}
		e.state = dirExclusive
		e.owner = int32(myNode)
		e.sharers = 1 << uint(myNode)
	} else if sole && s.opts.Protocol == ProtocolMESI {
		// MESI: the directory grants exclusivity with the clean fill, so
		// the later silent Exclusive→Modified upgrade stays coherent —
		// remote readers will take the owner-intervention path.
		e.state = dirExclusive
		e.owner = int32(myNode)
		e.sharers = 1 << uint(myNode)
	} else {
		if dirtyRemote {
			e.state = dirShared
			e.owner = -1
		}
		if e.state == dirUncached {
			e.state = dirShared
		}
		e.sharers |= 1 << uint(myNode)
	}

	s.fill(cpu, addr, write, sole, now)
	return s.finish(class, now, done)
}

// fill installs the line in cpu's cache, pushing a posted write-back toward
// memory or the home node when a dirty line is displaced (the write-back
// occupies the medium but does not stall the processor).
func (s *System) fill(cpu int, addr uint64, write, sole bool, now float64) {
	st := cache.Shared
	switch {
	case write:
		st = cache.Modified
	case sole && s.opts.Protocol == ProtocolMESI:
		// MESI: the only copy in the system is installed Exclusive and can
		// later upgrade silently.
		st = cache.Exclusive
	}
	var evAddr uint64
	var writeback bool
	if s.hotOK {
		// Cache.Fill's two-way path inlined through the Hot view (the call
		// is on every miss and doesn't inline itself); victim choice, MRU
		// update, and counters mirror it word for word.
		h := &s.hots[cpu]
		tag := addr >> h.Shift
		base := (tag & h.Mask) << 1
		w0 := h.Ways[base]
		w1 := h.Ways[base+1]
		packed := tag<<3 | uint64(st)
		switch {
		case w0&3 != 0 && w0>>3 == tag:
			// Refill of a resident line: new state, way 0 becomes MRU.
			h.Ways[base] = packed
			if s.trackDirty {
				s.dirtyRefill(cpu, addr, w0, st)
			}
			return
		case w1&3 != 0 && w1>>3 == tag:
			h.Ways[base+1] = packed
			h.Ways[base] = w0 | 4
			if s.trackDirty {
				s.dirtyRefill(cpu, addr, w1, st)
			}
			return
		case w0&3 == 0:
			h.Ways[base] = packed
			if s.trackDirty && st == cache.Modified {
				s.dirtyAdd(s.node(cpu), s.block(addr), 1)
			}
			return
		case w1&3 == 0:
			h.Ways[base+1] = packed
			h.Ways[base] = w0 | 4
			if s.trackDirty && st == cache.Modified {
				s.dirtyAdd(s.node(cpu), s.block(addr), 1)
			}
			return
		}
		// Both ways valid: evict the not-most-recently-used way.
		*h.Evictions++
		if w0&4 == 0 {
			if w1&3 == 3 {
				writeback = true
			}
			evAddr = w1 >> 3 << h.Shift
			h.Ways[base+1] = packed
			h.Ways[base] = w0 | 4
		} else {
			if w0&3 == 3 {
				writeback = true
			}
			evAddr = w0 >> 3 << h.Shift
			h.Ways[base] = packed
		}
		if s.trackDirty {
			// The installed line was not resident (the refill cases above
			// would have matched), and a write-back means the victim was
			// Modified. The victim lane must drop before the ownership
			// drop-check below reads it.
			if st == cache.Modified {
				s.dirtyAdd(s.node(cpu), s.block(addr), 1)
			}
			if writeback {
				s.dirtyAdd(s.node(cpu), s.block(evAddr), -1)
			}
		}
		if writeback {
			*h.Writebacks++
		}
		if s.deep != nil {
			// The victim spills into the deep hierarchy (clean: a dirty
			// victim's data is written back below, the tags stay).
			s.deepInstall(cpu, evAddr)
		}
		if !writeback {
			return
		}
	} else {
		var evicted bool
		evAddr, writeback, evicted = s.caches[cpu].Fill(addr, st)
		if evicted && s.deep != nil {
			s.deepInstall(cpu, evAddr)
		}
		if !writeback {
			return
		}
	}
	s.stats.Writebacks++
	node := s.node(cpu)
	if s.nodes == 1 {
		s.membus[node].Acquire(now, s.lat.LocalMemory)
		s.stats.TotalBusCycles += s.lat.LocalMemory
		return
	}
	evBlock := s.block(evAddr)
	e := s.entry(evBlock, node)
	// The evicted line is clean at home now, but the node keeps exclusive
	// ownership of the block while any sibling line remains Modified in its
	// caches — dropping it early would let another node fetch a stale
	// sibling line from the home memory — or, under MESI, Exclusive: that
	// line's later silent upgrade relies on the directory's record.
	if e.state == dirExclusive && int(e.owner) == node &&
		!s.nodeHoldsDirty(node, evBlock) &&
		(s.opts.Protocol != ProtocolMESI || !s.nodeHoldsExclusive(node, evBlock)) {
		e.state = dirShared
		e.owner = -1
	}
	if int(e.home) == node {
		s.membus[node].Acquire(now, s.lat.LocalMemory)
		s.stats.TotalBusCycles += s.lat.LocalMemory
		return
	}
	s.netAcquire(int(e.home), now, s.latRemoteNode)
}

// finish records an access and returns its completion time.
func (s *System) finish(class AccessClass, start, done float64) float64 {
	s.stats.ClassCounts[class]++
	s.stats.ClassCycles[class] += done - start
	return done
}
