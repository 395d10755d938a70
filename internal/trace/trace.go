// Package trace defines per-processor memory-reference streams: the
// interface between the instrumented SPMD workloads (the repository's
// MINT-substitute front-end) and both the stack-distance analyzer and the
// execution-driven memory-hierarchy simulators.
//
// A stream is a sequence of events: memory reads and writes (byte
// addresses), compute gaps (instruction counts with no memory reference),
// and barrier crossings. Every memory reference itself also counts as one
// instruction, matching the paper's accounting where a program consists of
// m non-referencing and M referencing instructions.
//
//chc:deterministic
package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Kind discriminates trace events.
type Kind uint8

// Event kinds.
const (
	Read    Kind = iota // memory load; Addr is a byte address
	Write               // memory store; Addr is a byte address
	Compute             // N instructions with no memory reference
	Barrier             // global barrier crossing
)

// String returns a short mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	case Compute:
		return "C"
	case Barrier:
		return "B"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one entry of a processor's reference stream.
type Event struct {
	Kind Kind
	Addr uint64 // byte address (Read/Write)
	N    uint64 // instruction count (Compute)
}

// Stream is the event sequence of a single logical processor.
type Stream struct {
	CPU    int
	Events []Event

	reads    uint64
	writes   uint64
	computes uint64 // total instructions inside Compute events
	barriers uint64
	maxAddr  uint64 // largest byte address referenced (Validate bound check)

	opsMu  sync.Mutex // guards ops, opsErr, opsLen
	ops    []Op       // guarded by opsMu: compiled form of Events
	opsErr error      // guarded by opsMu: compile failure (unknown event kind)
	opsLen int        // guarded by opsMu: len(Events) the ops were compiled from
}

// NewStream returns an empty stream for the given logical CPU.
func NewStream(cpu int) *Stream { return &Stream{CPU: cpu} }

// Reserve grows the stream's event capacity to hold at least n more events
// without reallocation. Under-reserving is safe (appends grow as usual);
// it only forgoes part of the saving.
func (s *Stream) Reserve(n int) {
	if free := cap(s.Events) - len(s.Events); free < n {
		grown := make([]Event, len(s.Events), len(s.Events)+n)
		copy(grown, s.Events)
		s.Events = grown
	}
}

// AddRead appends a load of the given byte address.
func (s *Stream) AddRead(addr uint64) {
	s.Events = append(s.Events, Event{Kind: Read, Addr: addr})
	s.reads++
	if addr > s.maxAddr {
		s.maxAddr = addr
	}
}

// AddWrite appends a store to the given byte address.
func (s *Stream) AddWrite(addr uint64) {
	s.Events = append(s.Events, Event{Kind: Write, Addr: addr})
	s.writes++
	if addr > s.maxAddr {
		s.maxAddr = addr
	}
}

// AddCompute appends n non-referencing instructions. Consecutive compute
// gaps are coalesced. n <= 0 is a no-op.
func (s *Stream) AddCompute(n uint64) {
	if n == 0 {
		return
	}
	s.computes += n
	if last := len(s.Events) - 1; last >= 0 && s.Events[last].Kind == Compute {
		s.Events[last].N += n
		return
	}
	s.Events = append(s.Events, Event{Kind: Compute, N: n})
}

// AddBarrier appends a barrier crossing.
func (s *Stream) AddBarrier() {
	s.Events = append(s.Events, Event{Kind: Barrier})
	s.barriers++
}

// MemoryRefs returns M: the number of referencing instructions.
func (s *Stream) MemoryRefs() uint64 { return s.reads + s.writes }

// Reads returns the number of load events.
func (s *Stream) Reads() uint64 { return s.reads }

// Writes returns the number of store events.
func (s *Stream) Writes() uint64 { return s.writes }

// ComputeInstrs returns m: the number of non-referencing instructions.
func (s *Stream) ComputeInstrs() uint64 { return s.computes }

// Barriers returns the number of barrier crossings.
func (s *Stream) Barriers() uint64 { return s.barriers }

// Instructions returns m + M, the total instruction count of the stream.
func (s *Stream) Instructions() uint64 { return s.computes + s.MemoryRefs() }

// Gamma returns γ = M/(m+M) for this stream, or 0 for an empty stream.
func (s *Stream) Gamma() float64 {
	total := s.Instructions()
	if total == 0 {
		return 0
	}
	return float64(s.MemoryRefs()) / float64(total)
}

// Trace is the collection of per-processor streams of one SPMD execution.
type Trace struct {
	Streams []*Stream
}

// New returns a Trace with nproc empty streams.
func New(nproc int) *Trace {
	t := &Trace{Streams: make([]*Stream, nproc)}
	for i := range t.Streams {
		t.Streams[i] = NewStream(i)
	}
	return t
}

// NumCPU returns the number of processor streams.
func (t *Trace) NumCPU() int { return len(t.Streams) }

// Reserve pre-sizes every stream for about perCPU further events, so a
// producer that knows its event count up front (see workloads.EventHinter)
// skips the append growth chain — the dominant allocation cost of trace
// generation.
func (t *Trace) Reserve(perCPU int) {
	for _, s := range t.Streams {
		s.Reserve(perCPU)
	}
}

// MemoryRefs returns the total M across all streams.
func (t *Trace) MemoryRefs() uint64 {
	var s uint64
	for _, st := range t.Streams {
		s += st.MemoryRefs()
	}
	return s
}

// Instructions returns the total m+M across all streams.
func (t *Trace) Instructions() uint64 {
	var s uint64
	for _, st := range t.Streams {
		s += st.Instructions()
	}
	return s
}

// Gamma returns the aggregate γ = M/(m+M) over all streams.
func (t *Trace) Gamma() float64 {
	total := t.Instructions()
	if total == 0 {
		return 0
	}
	return float64(t.MemoryRefs()) / float64(total)
}

// Validate checks cross-stream consistency: every stream must cross the
// same number of barriers (the bulk-synchronous structure the simulators
// rely on).
func (t *Trace) Validate() error {
	if len(t.Streams) == 0 {
		return errors.New("trace: no streams")
	}
	want := t.Streams[0].Barriers()
	for _, s := range t.Streams[1:] {
		if s.Barriers() != want {
			return fmt.Errorf("trace: cpu %d crossed %d barriers, cpu %d crossed %d",
				s.CPU, s.Barriers(), t.Streams[0].CPU, want)
		}
	}
	for _, s := range t.Streams {
		if s.maxAddr > MaxAddr {
			return fmt.Errorf("trace: cpu %d references address %#x beyond the simulable range (%#x)",
				s.CPU, s.maxAddr, MaxAddr)
		}
	}
	return nil
}

// MaxAddr bounds simulable byte addresses: compiled ops pack the address
// and the action kind into one word (see Op), reserving the top two bits.
// Four exabytes of address space leaves every realistic workload untouched;
// Validate rejects streams beyond it so the engine never sees one.
const MaxAddr = uint64(1)<<62 - 1

// Op is one step of a stream's compiled form: a compute gap of N
// instructions followed by at most one action. The simulator engine runs on
// ops instead of raw events — the dominant compute-then-reference pattern
// costs one loop iteration instead of two, and an op is 16 bytes against an
// Event's 24.
//
// Compilation preserves simulation semantics bit-for-bit: each op performs
// the same clock arithmetic, in the same order, as replaying its source
// events one by one. Adjacent Compute events (possible in deserialized
// traces, which must not coalesce — see readPlain) compile to separate
// OpNone ops so the engine issues the same two floating-point advances the
// event form would.
type Op struct {
	// N is the compute instruction count executed before the action. Kept
	// integral for the integer-clock advance (clock += N*latInstr in
	// uint64); float clocks convert, which is exact — counts are far below
	// 2^53.
	N   uint64
	Arg uint64 // Addr<<2 | kind (OpNone, OpRead, OpWrite, OpBarrier)
}

// Op action kinds, stored in the low two bits of Op.Arg.
const (
	OpNone    uint64 = iota // compute gap only, no action
	OpRead                  // memory load at Addr
	OpWrite                 // memory store at Addr
	OpBarrier               // global barrier crossing
)

// Kind returns the op's action kind.
func (o Op) Kind() uint64 { return o.Arg & 3 }

// Addr returns the op's byte address (OpRead/OpWrite).
func (o Op) Addr() uint64 { return o.Arg >> 2 }

// Ops returns the stream's compiled form, building it on first use and
// rebuilding it if events were appended since. The compiled slice is cached,
// so simulating the same immutable trace repeatedly (or concurrently, as the
// experiment pipeline does) compiles each stream exactly once. Callers must
// not mutate the returned slice. An event with an unknown kind fails the
// compile.
func (s *Stream) Ops() ([]Op, error) {
	s.opsMu.Lock()
	if (s.ops == nil && s.opsErr == nil) || s.opsLen != len(s.Events) {
		s.ops, s.opsErr = compileEvents(s.Events)
		s.opsLen = len(s.Events)
	}
	ops, err := s.ops, s.opsErr
	s.opsMu.Unlock()
	return ops, err
}

// compileEvents compiles a whole stream.
func compileEvents(events []Event) ([]Op, error) {
	c := OpCompiler{Ops: make([]Op, 0, len(events))}
	for _, e := range events {
		if err := c.Add(e); err != nil {
			return nil, err
		}
	}
	c.Flush()
	return c.Ops, nil
}

// OpCompiler compiles events into ops one at a time, fusing each compute
// gap with the action that follows it. Stream.Ops compiles whole streams
// through it and the streaming simulator compiles barrier-delimited chunks
// through it, so both apply one fusion rule. A barrier consumes the pending
// gap, so chunks that each end at a barrier concatenate to the whole-stream
// compile.
type OpCompiler struct {
	Ops         []Op // the ops compiled so far
	pending     uint64
	havePending bool
}

// Add compiles one event. An unknown kind, or a reference beyond MaxAddr
// (which the packed op cannot hold), is an error and leaves the compiler
// unchanged.
func (c *OpCompiler) Add(e Event) error {
	var arg uint64
	switch e.Kind {
	case Compute:
		// Two computes in a row stay two ops: fusing them into one N1+N2
		// advance would change the float arithmetic sequence.
		c.Flush()
		c.pending, c.havePending = e.N, true
		return nil
	case Read:
		arg = e.Addr<<2 | OpRead
	case Write:
		arg = e.Addr<<2 | OpWrite
	case Barrier:
		arg = OpBarrier
	default:
		return fmt.Errorf("trace: unknown event kind %d", e.Kind)
	}
	if e.Addr > MaxAddr && e.Kind != Barrier {
		return fmt.Errorf("trace: address %#x beyond the simulable range (%#x)", e.Addr, MaxAddr)
	}
	c.Ops = append(c.Ops, Op{N: c.pending, Arg: arg})
	c.pending, c.havePending = 0, false
	return nil
}

// Flush emits a trailing compute gap as its own OpNone op.
func (c *OpCompiler) Flush() {
	if c.havePending {
		c.Ops = append(c.Ops, Op{N: c.pending, Arg: OpNone})
		c.pending, c.havePending = 0, false
	}
}

const (
	magic   = uint32(0x4d485452) // "MHTR"
	version = uint32(1)
)

// WriteTo serializes the trace in a compact varint framing.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	put := func(v uint64) error {
		var buf [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(buf[:], v)
		m, err := bw.Write(buf[:k])
		n += int64(m)
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	m, err := bw.Write(hdr[:])
	n += int64(m)
	if err != nil {
		return n, err
	}
	if err := put(uint64(len(t.Streams))); err != nil {
		return n, err
	}
	for _, s := range t.Streams {
		if err := put(uint64(s.CPU)); err != nil {
			return n, err
		}
		if err := put(uint64(len(s.Events))); err != nil {
			return n, err
		}
		for _, e := range s.Events {
			if err := put(uint64(e.Kind)); err != nil {
				return n, err
			}
			switch e.Kind {
			case Read, Write:
				if err := put(e.Addr); err != nil {
					return n, err
				}
			case Compute:
				if err := put(e.N); err != nil {
					return n, err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	return n, nil
}

// WriteGzip serializes the trace as WriteTo does, gzip-compressed. Traces
// compress well (addresses are clustered and compute gaps repeat); archived
// paper-scale traces shrink by roughly an order of magnitude.
func (t *Trace) WriteGzip(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	gz := gzip.NewWriter(cw)
	if _, err := t.WriteTo(gz); err != nil {
		gz.Close()
		return cw.n, err
	}
	if err := gz.Close(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadFrom deserializes a trace written by WriteTo or WriteGzip (detected
// by the gzip magic), replacing the receiver's contents.
func (t *Trace) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		cr0 := &countingReader{r: br}
		gz, err := gzip.NewReader(cr0)
		if err != nil {
			return cr0.n, fmt.Errorf("trace: opening gzip stream: %w", err)
		}
		defer gz.Close()
		if _, err := t.readPlain(bufio.NewReader(gz)); err != nil {
			return cr0.n, err
		}
		return cr0.n, nil
	}
	return t.readPlain(br)
}

func (t *Trace) readPlain(br *bufio.Reader) (int64, error) {
	cr := &countingReader{r: br}
	var hdr [8]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return cr.n, fmt.Errorf("trace: reading header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != magic {
		return cr.n, fmt.Errorf("trace: bad magic %#x", got)
	}
	if got := binary.LittleEndian.Uint32(hdr[4:]); got != version {
		return cr.n, fmt.Errorf("trace: unsupported version %d", got)
	}
	get := func() (uint64, error) { return binary.ReadUvarint(cr) }
	nStreams, err := get()
	if err != nil {
		return cr.n, err
	}
	const maxStreams = 1 << 20
	if nStreams > maxStreams {
		return cr.n, fmt.Errorf("trace: implausible stream count %d", nStreams)
	}
	t.Streams = make([]*Stream, 0, nStreams)
	for i := uint64(0); i < nStreams; i++ {
		cpu, err := get()
		if err != nil {
			return cr.n, err
		}
		nEvents, err := get()
		if err != nil {
			return cr.n, err
		}
		s := NewStream(int(cpu))
		if nEvents > 0 {
			s.Events = make([]Event, 0, min(nEvents, 1<<20))
		}
		for j := uint64(0); j < nEvents; j++ {
			kindRaw, err := get()
			if err != nil {
				return cr.n, err
			}
			switch Kind(kindRaw) {
			case Read:
				a, err := get()
				if err != nil {
					return cr.n, err
				}
				s.AddRead(a)
			case Write:
				a, err := get()
				if err != nil {
					return cr.n, err
				}
				s.AddWrite(a)
			case Compute:
				v, err := get()
				if err != nil {
					return cr.n, err
				}
				// Append directly: AddCompute would coalesce and change the
				// event count, breaking the framing contract.
				s.Events = append(s.Events, Event{Kind: Compute, N: v})
				s.computes += v
			case Barrier:
				s.AddBarrier()
			default:
				return cr.n, fmt.Errorf("trace: unknown event kind %d", kindRaw)
			}
		}
		t.Streams = append(t.Streams, s)
	}
	return cr.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countingReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func min(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
