package trace

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{Read, "R"}, {Write, "W"}, {Compute, "C"}, {Barrier, "B"}, {Kind(9), "Kind(9)"},
	}
	for _, tc := range tests {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tc.k, got, tc.want)
		}
	}
}

func TestStreamCounters(t *testing.T) {
	s := NewStream(3)
	s.AddRead(100)
	s.AddWrite(200)
	s.AddRead(100)
	s.AddCompute(10)
	s.AddCompute(5)
	s.AddBarrier()
	s.AddCompute(0) // no-op

	if s.CPU != 3 {
		t.Errorf("CPU = %d", s.CPU)
	}
	if s.Reads() != 2 || s.Writes() != 1 || s.MemoryRefs() != 3 {
		t.Errorf("refs: R=%d W=%d M=%d", s.Reads(), s.Writes(), s.MemoryRefs())
	}
	if s.ComputeInstrs() != 15 {
		t.Errorf("ComputeInstrs = %d, want 15", s.ComputeInstrs())
	}
	if s.Barriers() != 1 {
		t.Errorf("Barriers = %d, want 1", s.Barriers())
	}
	if s.Instructions() != 18 {
		t.Errorf("Instructions = %d, want 18", s.Instructions())
	}
	if got, want := s.Gamma(), 3.0/18; math.Abs(got-want) > 1e-12 {
		t.Errorf("Gamma = %v, want %v", got, want)
	}
}

func TestComputeCoalescing(t *testing.T) {
	s := NewStream(0)
	s.AddCompute(3)
	s.AddCompute(4)
	if len(s.Events) != 1 || s.Events[0].N != 7 {
		t.Fatalf("consecutive computes not coalesced: %+v", s.Events)
	}
	s.AddRead(8)
	s.AddCompute(2)
	if len(s.Events) != 3 {
		t.Fatalf("compute after read should not coalesce: %+v", s.Events)
	}
}

func TestGammaEmpty(t *testing.T) {
	s := NewStream(0)
	if s.Gamma() != 0 {
		t.Error("empty stream Gamma should be 0")
	}
	tr := New(0)
	if tr.Gamma() != 0 {
		t.Error("empty trace Gamma should be 0")
	}
}

func TestTraceAggregates(t *testing.T) {
	tr := New(2)
	tr.Streams[0].AddRead(1)
	tr.Streams[0].AddCompute(9)
	tr.Streams[1].AddWrite(2)
	tr.Streams[1].AddCompute(4)
	if tr.NumCPU() != 2 {
		t.Errorf("NumCPU = %d", tr.NumCPU())
	}
	if tr.MemoryRefs() != 2 {
		t.Errorf("MemoryRefs = %d", tr.MemoryRefs())
	}
	if tr.Instructions() != 15 {
		t.Errorf("Instructions = %d", tr.Instructions())
	}
	if got, want := tr.Gamma(), 2.0/15; math.Abs(got-want) > 1e-12 {
		t.Errorf("Gamma = %v, want %v", got, want)
	}
}

func TestValidateBarrierMismatch(t *testing.T) {
	tr := New(2)
	tr.Streams[0].AddBarrier()
	if err := tr.Validate(); err == nil {
		t.Error("barrier mismatch not detected")
	}
	tr.Streams[1].AddBarrier()
	if err := tr.Validate(); err != nil {
		t.Errorf("balanced barriers rejected: %v", err)
	}
	empty := &Trace{}
	if err := empty.Validate(); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tr := New(3)
	tr.Streams[0].AddRead(0xdeadbeef)
	tr.Streams[0].AddCompute(1000)
	tr.Streams[0].AddBarrier()
	tr.Streams[1].AddWrite(42)
	tr.Streams[1].AddBarrier()
	tr.Streams[2].AddBarrier()

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var got Trace
	if _, err := got.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if len(got.Streams) != 3 {
		t.Fatalf("got %d streams", len(got.Streams))
	}
	for i := range tr.Streams {
		a, b := tr.Streams[i], got.Streams[i]
		if a.CPU != b.CPU || !reflect.DeepEqual(a.Events, b.Events) {
			t.Errorf("stream %d mismatch:\n%+v\n%+v", i, a.Events, b.Events)
		}
		if a.MemoryRefs() != b.MemoryRefs() || a.ComputeInstrs() != b.ComputeInstrs() ||
			a.Barriers() != b.Barriers() {
			t.Errorf("stream %d counters mismatch", i)
		}
	}
}

// TestAddComputeCoalesces pins the coalescing contract: consecutive
// AddCompute calls merge into the preceding Compute event, the instruction
// counters stay consistent with the merged events, Validate accepts the
// result, and the coalesced form survives a serialization round trip.
func TestAddComputeCoalesces(t *testing.T) {
	tr := New(1)
	s := tr.Streams[0]
	s.AddCompute(3)
	s.AddCompute(0) // no-op, must not break the run
	s.AddCompute(4)
	s.AddRead(64)
	s.AddCompute(5)
	s.AddCompute(6)
	s.AddBarrier()
	s.AddCompute(2) // after a barrier: a fresh Compute event

	want := []Event{
		{Kind: Compute, N: 7},
		{Kind: Read, Addr: 64},
		{Kind: Compute, N: 11},
		{Kind: Barrier},
		{Kind: Compute, N: 2},
	}
	if !reflect.DeepEqual(s.Events, want) {
		t.Fatalf("coalesced events:\n got %+v\nwant %+v", s.Events, want)
	}
	if s.ComputeInstrs() != 20 {
		t.Errorf("ComputeInstrs = %d, want 20", s.ComputeInstrs())
	}
	if s.Instructions() != 21 {
		t.Errorf("Instructions = %d, want 21", s.Instructions())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var got Trace
	if _, err := got.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	rs := got.Streams[0]
	if !reflect.DeepEqual(rs.Events, want) {
		t.Errorf("round-tripped events:\n got %+v\nwant %+v", rs.Events, want)
	}
	if rs.ComputeInstrs() != s.ComputeInstrs() || rs.Instructions() != s.Instructions() ||
		rs.Barriers() != s.Barriers() {
		t.Errorf("round-tripped counters mismatch: %+v vs %+v", rs, s)
	}
}

func TestSerializationPropertyRoundTrip(t *testing.T) {
	f := func(ops []uint32) bool {
		tr := New(1)
		s := tr.Streams[0]
		for _, op := range ops {
			switch op % 4 {
			case 0:
				s.AddRead(uint64(op))
			case 1:
				s.AddWrite(uint64(op) * 3)
			case 2:
				s.AddCompute(uint64(op%1000) + 1)
			case 3:
				s.AddBarrier()
			}
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		var got Trace
		if _, err := got.ReadFrom(&buf); err != nil {
			return false
		}
		return reflect.DeepEqual(got.Streams[0].Events, s.Events) &&
			got.Streams[0].Gamma() == s.Gamma()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGzipRoundTrip(t *testing.T) {
	tr := New(2)
	for i := 0; i < 500; i++ {
		tr.Streams[0].AddRead(uint64(i * 64))
		tr.Streams[1].AddWrite(uint64(i * 8))
		tr.Streams[0].AddCompute(uint64(i%7 + 1))
	}
	tr.Streams[0].AddBarrier()
	tr.Streams[1].AddBarrier()

	var plain, packed bytes.Buffer
	if _, err := tr.WriteTo(&plain); err != nil {
		t.Fatal(err)
	}
	n, err := tr.WriteGzip(&packed)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(packed.Len()) {
		t.Errorf("WriteGzip reported %d bytes, buffer has %d", n, packed.Len())
	}
	if packed.Len() >= plain.Len() {
		t.Errorf("gzip did not compress: %d vs %d", packed.Len(), plain.Len())
	}
	// ReadFrom auto-detects compression.
	var got Trace
	if _, err := got.ReadFrom(bytes.NewReader(packed.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Streams[0].Events, tr.Streams[0].Events) ||
		!reflect.DeepEqual(got.Streams[1].Events, tr.Streams[1].Events) {
		t.Error("gzip round trip lost events")
	}
	// And still reads plain traces.
	var gotPlain Trace
	if _, err := gotPlain.ReadFrom(bytes.NewReader(plain.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPlain.Streams[0].Events, tr.Streams[0].Events) {
		t.Error("plain round trip lost events")
	}
}

func TestGzipCorruptRejected(t *testing.T) {
	var tr Trace
	// Valid gzip magic, garbage stream.
	if _, err := tr.ReadFrom(bytes.NewReader([]byte{0x1f, 0x8b, 0xff, 0x00, 0x01})); err == nil {
		t.Error("corrupt gzip accepted")
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	var tr Trace
	if _, err := tr.ReadFrom(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := tr.ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Correct magic, wrong version.
	bad := []byte{0x52, 0x54, 0x48, 0x4d, 0xff, 0, 0, 0}
	if _, err := tr.ReadFrom(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
}

func TestAddressSpaceAlloc(t *testing.T) {
	as := NewAddressSpace()
	r1 := as.Alloc("a", 100, 64)
	r2 := as.Alloc("b", 50, 64)
	if r1.Base%64 != 0 || r2.Base%64 != 0 {
		t.Errorf("misaligned: %d %d", r1.Base, r2.Base)
	}
	if r1.Base+r1.Size > r2.Base {
		t.Errorf("overlap: %+v %+v", r1, r2)
	}
	if as.Footprint() != 150 {
		t.Errorf("Footprint = %d", as.Footprint())
	}
	if len(as.Regions()) != 2 {
		t.Errorf("Regions = %v", as.Regions())
	}
	if !r1.Contains(r1.Base) || r1.Contains(r1.Base+r1.Size) {
		t.Error("Contains wrong at boundaries")
	}
	if got := r1.Index(3, 8); got != r1.Base+24 {
		t.Errorf("Index = %d", got)
	}
}

func TestAddressSpacePanics(t *testing.T) {
	as := NewAddressSpace()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero size", func() { as.Alloc("z", 0, 8) })
	mustPanic("bad align", func() { as.Alloc("a", 8, 3) })
}

func TestAddressSpaceNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		as := NewAddressSpace()
		var regs []Region
		for i, sz := range sizes {
			if sz == 0 {
				continue
			}
			regs = append(regs, as.Alloc("r", uint64(sz), 8))
			_ = i
		}
		for i := 0; i < len(regs); i++ {
			for j := i + 1; j < len(regs); j++ {
				a, b := regs[i], regs[j]
				if a.Base < b.Base+b.Size && b.Base < a.Base+a.Size {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWriteTo(b *testing.B) {
	tr := New(4)
	for cpu := 0; cpu < 4; cpu++ {
		for i := 0; i < 10000; i++ {
			tr.Streams[cpu].AddRead(uint64(i * 64))
			tr.Streams[cpu].AddCompute(5)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFrom(b *testing.B) {
	tr := New(4)
	for cpu := 0; cpu < 4; cpu++ {
		for i := 0; i < 10000; i++ {
			tr.Streams[cpu].AddRead(uint64(i * 64))
			tr.Streams[cpu].AddCompute(5)
		}
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got Trace
		if _, err := got.ReadFrom(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
