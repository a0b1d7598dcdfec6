package trace

import "testing"

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Errorf("Op strings: got %q, %q", Read.String(), Write.String())
	}
	if got := Op(9).String(); got != "Op(9)" {
		t.Errorf("unknown op string = %q", got)
	}
}

func TestSliceSource(t *testing.T) {
	s := NewSliceSource(
		[]Ref{{Read, 0}, {Write, 64}},
		[]Ref{{Read, 128}},
	)
	if s.CPUs() != 2 {
		t.Fatalf("CPUs = %d, want 2", s.CPUs())
	}
	r, ok := s.Next(0)
	if !ok || r != (Ref{Read, 0}) {
		t.Fatalf("cpu0 first = %v,%v", r, ok)
	}
	r, ok = s.Next(1)
	if !ok || r != (Ref{Read, 128}) {
		t.Fatalf("cpu1 first = %v,%v", r, ok)
	}
	if _, ok := s.Next(1); ok {
		t.Error("cpu1 should be exhausted")
	}
	r, ok = s.Next(0)
	if !ok || r != (Ref{Write, 64}) {
		t.Fatalf("cpu0 second = %v,%v", r, ok)
	}
	if _, ok := s.Next(0); ok {
		t.Error("cpu0 should be exhausted")
	}
}

func TestRoundRobinInterleavesAndStops(t *testing.T) {
	rr := NewRoundRobin(NewSliceSource(
		[]Ref{{Op: Read, Addr: 0}, {Op: Read, Addr: 32}},
		[]Ref{{Op: Read, Addr: 4096}},
		nil,
		nil,
	))
	dst := make([]Rec, 8)
	n := rr.Fill(dst)
	if n != 3 {
		t.Fatalf("Fill wrote %d records, want 3", n)
	}
	want := []Rec{{Addr: 0, CPU: 0}, {Addr: 4096, CPU: 1}, {Addr: 32, CPU: 0}}
	for i, w := range want {
		if dst[i] != w {
			t.Errorf("record %d = %+v, want %+v", i, dst[i], w)
		}
	}
	if n := rr.Fill(dst); n != 0 {
		t.Errorf("Fill after exhaustion wrote %d records", n)
	}
}

func TestRoundRobinHonorsMaxRefs(t *testing.T) {
	i := uint64(0)
	rr := NewRoundRobin(&FuncSource{NumCPUs: 4, Fn: func(cpu int) (Ref, bool) {
		i++
		return Ref{Op: Read, Addr: i * 32}, true
	}})
	dst := make([]Rec, 100)
	if n := rr.Fill(dst); n != 100 {
		t.Errorf("Fill wrote %d, want 100", n)
	}
	if i != 100 {
		t.Errorf("Fill took %d references for 100 records", i)
	}
	// The next call resumes the rotation where the last one stopped.
	if rr.Fill(dst[:1]); dst[0].CPU != 0 || dst[0].Addr != 101*32 {
		t.Errorf("resumed with %+v, want cpu 0's record at %d", dst[0], 101*32)
	}
}

// TestRoundRobinSkipsExhaustedStreams: a stream that reported
// exhaustion is never asked again, even if it would produce more.
func TestRoundRobinSkipsExhaustedStreams(t *testing.T) {
	calls := make([]int, 2)
	rr := NewRoundRobin(&FuncSource{NumCPUs: 2, Fn: func(cpu int) (Ref, bool) {
		calls[cpu]++
		return Ref{}, cpu == 0 || calls[cpu] != 2
	}})
	dst := make([]Rec, 6)
	rr.Fill(dst)
	if calls[1] != 2 {
		t.Errorf("an exhausted stream was asked %d times, want 2", calls[1])
	}
	if dst[5].CPU != 0 || dst[1].CPU != 1 {
		t.Errorf("records %+v: want cpu 1 only in slot 1", dst)
	}
}
