package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomStreams builds deterministic pseudo-random per-CPU streams.
func randomStreams(seed int64, cpus, perCPU int) [][]Ref {
	r := rand.New(rand.NewSource(seed))
	streams := make([][]Ref, cpus)
	for c := range streams {
		base := uint64(c) << 30
		for i := 0; i < perCPU; i++ {
			op := Read
			if r.Intn(3) == 0 {
				op = Write
			}
			addr := base + uint64(r.Intn(1<<20))
			if r.Intn(16) == 0 { // occasional far jumps exercise big deltas
				addr = r.Uint64()
			}
			streams[c] = append(streams[c], Ref{Op: op, Addr: addr})
		}
	}
	return streams
}

// replayAll reads a trace back in recorded order, split per CPU.
func replayAll(t *testing.T, rd *Reader, cpus int) [][]Ref {
	t.Helper()
	got := make([][]Ref, cpus)
	for {
		cpu, r, err := rd.Read()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
		got[cpu] = append(got[cpu], r)
	}
}

func TestRoundTrip(t *testing.T) {
	// Writer→Reader must be lossless for arbitrary record streams, for
	// every combination of compression and chunking (including chunk
	// sizes that split the stream mid-cycle).
	for _, tc := range []struct {
		name string
		opts WriterOptions
	}{
		{"plain", WriterOptions{}},
		{"gzip", WriterOptions{Compress: true}},
		{"tiny-chunks", WriterOptions{ChunkRecords: 7}},
		{"gzip-tiny-chunks", WriterOptions{Compress: true, ChunkRecords: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const cpus, perCPU = 4, 500
			streams := randomStreams(42, cpus, perCPU)
			var buf bytes.Buffer
			n, err := Record(&buf, NewSliceSource(streams...), 0, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if n != cpus*perCPU {
				t.Fatalf("recorded %d refs, want %d", n, cpus*perCPU)
			}

			rd, err := NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if rd.CPUs() != cpus {
				t.Fatalf("CPUs = %d", rd.CPUs())
			}
			if rd.Compressed() != tc.opts.Compress {
				t.Fatalf("Compressed = %v", rd.Compressed())
			}
			got := replayAll(t, rd, cpus)
			for c := range streams {
				if len(got[c]) != perCPU {
					t.Fatalf("cpu%d: replayed %d refs, want %d", c, len(got[c]), perCPU)
				}
				for i := range streams[c] {
					if got[c][i] != streams[c][i] {
						t.Fatalf("cpu%d ref %d: %v != %v", c, i, got[c][i], streams[c][i])
					}
				}
			}
			if rd.Records() != uint64(cpus*perCPU) {
				t.Fatalf("Records = %d", rd.Records())
			}
		})
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: for random streams, random chunking and either
	// compression mode, sequential Read returns exactly the written
	// sequence.
	f := func(seed int64, rawCPUs uint8, rawChunk uint16, compress bool) bool {
		cpus := int(rawCPUs%8) + 1
		perCPU := 50
		opts := WriterOptions{Compress: compress, ChunkRecords: int(rawChunk%97) + 1}
		streams := randomStreams(seed, cpus, perCPU)

		var buf bytes.Buffer
		w, err := NewWriter(&buf, cpus, opts)
		if err != nil {
			return false
		}
		type rec struct {
			cpu int
			r   Ref
		}
		var wrote []rec
		// Interleave writes in a seed-dependent order, not round-robin.
		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		pos := make([]int, cpus)
		for remaining := cpus * perCPU; remaining > 0; remaining-- {
			cpu := r.Intn(cpus)
			for pos[cpu] >= perCPU {
				cpu = (cpu + 1) % cpus
			}
			ref := streams[cpu][pos[cpu]]
			pos[cpu]++
			if err := w.Write(cpu, ref); err != nil {
				return false
			}
			wrote = append(wrote, rec{cpu, ref})
		}
		if err := w.Close(); err != nil {
			return false
		}

		rd, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		for _, want := range wrote {
			cpu, got, err := rd.Read()
			if err != nil || cpu != want.cpu || got != want.r {
				return false
			}
		}
		_, _, err = rd.Read()
		return err == io.EOF && rd.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMetaRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	meta := Meta{App: "Ocean", Note: "unit test"}
	w, err := NewWriter(&buf, 2, WriterOptions{Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(1, Ref{Op: Write, Addr: 4096}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Meta() != meta {
		t.Fatalf("meta %+v, want %+v", rd.Meta(), meta)
	}
}

// TestRecordTotalCount: n bounds the records written in all, not per
// CPU. A count that ends mid-round and mid-batch writes exactly the
// first n records RoundRobin yields; a source exhausted before n ends
// the trace early; n = 0 drains every stream.
func TestRecordTotalCount(t *testing.T) {
	streams := randomStreams(7, 3, 400)
	for _, tc := range []struct {
		name    string
		n, want uint64
	}{
		{"mid-round", 1100, 1100},
		{"exhausted", 5000, 1200},
		{"zero", 0, 1200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			n, err := Record(&buf, NewSliceSource(streams...), tc.n, WriterOptions{ChunkRecords: 100})
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.want {
				t.Fatalf("recorded %d, want %d", n, tc.want)
			}
			want := make([]Rec, tc.want)
			if k := NewRoundRobin(NewSliceSource(streams...)).Fill(want); uint64(k) != tc.want {
				t.Fatalf("the interleaver yields %d records, want %d", k, tc.want)
			}
			rd, err := NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				cpu, r, err := rd.Read()
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if got := (Rec{Addr: r.Addr, CPU: int32(cpu), Op: r.Op}); got != w {
					t.Fatalf("record %d = %+v, want %+v", i, got, w)
				}
			}
			if _, _, err := rd.Read(); err != io.EOF {
				t.Fatalf("after %d records: %v, want EOF", tc.want, err)
			}
		})
	}
}

func TestSequentialStreamCompressesWell(t *testing.T) {
	// Delta encoding: a sequential walk costs ~2 bytes per record plain,
	// and well under 1 byte with gzip.
	refs := make([]Ref, 10000)
	for i := range refs {
		refs[i] = Ref{Op: Read, Addr: uint64(i) * 32}
	}
	var plain, packed bytes.Buffer
	if _, err := Record(&plain, NewSliceSource(refs), 0, WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Record(&packed, NewSliceSource(refs), 0, WriterOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}
	if perRef := float64(plain.Len()) / float64(len(refs)); perRef > 2.5 {
		t.Errorf("sequential encoding costs %.2f bytes/ref, want <= 2.5", perRef)
	}
	if perRef := float64(packed.Len()) / float64(len(refs)); perRef > 1 {
		t.Errorf("gzipped sequential encoding costs %.2f bytes/ref, want <= 1", perRef)
	}
}

func TestSummarize(t *testing.T) {
	streams := randomStreams(11, 4, 250)
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		opts := WriterOptions{Compress: compress, ChunkRecords: 100, Meta: Meta{App: "Barnes"}}
		if _, err := Record(&buf, NewSliceSource(streams...), 0, opts); err != nil {
			t.Fatal(err)
		}
		s, err := Summarize(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if s.CPUs != 4 || s.Records != 1000 || s.Chunks != 10 {
			t.Fatalf("summary %+v, want 4 cpus, 1000 records, 10 chunks", s)
		}
		if s.Meta.App != "Barnes" || s.Compressed != compress {
			t.Fatalf("summary %+v: bad meta/compression", s)
		}
	}
}

func TestAppendConvertAndMerge(t *testing.T) {
	streams := randomStreams(13, 2, 120)
	var orig bytes.Buffer
	if _, err := Record(&orig, NewSliceSource(streams...), 0, WriterOptions{Compress: true, ChunkRecords: 9}); err != nil {
		t.Fatal(err)
	}

	// Convert: gzip/9 → plain/50; the record sequence must survive.
	var conv bytes.Buffer
	src, err := NewReader(bytes.NewReader(orig.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewWriter(&conv, src.CPUs(), WriterOptions{ChunkRecords: 50, Meta: src.Meta()})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Append(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 240 {
		t.Fatalf("converted %d records, want 240", n)
	}

	// Merge: converted + original = the sequence twice over.
	var merged bytes.Buffer
	out, err := NewWriter(&merged, 2, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []*bytes.Buffer{&conv, &orig} {
		r, err := NewReader(bytes.NewReader(in.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Append(out, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(merged.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, rd, 2)
	for c := range streams {
		want := append(append([]Ref{}, streams[c]...), streams[c]...)
		if len(got[c]) != len(want) {
			t.Fatalf("cpu%d: merged %d refs, want %d", c, len(got[c]), len(want))
		}
		for i := range want {
			if got[c][i] != want[i] {
				t.Fatalf("cpu%d ref %d: %v != %v", c, i, got[c][i], want[i])
			}
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 2, WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(0, Ref{Op: Write, Addr: 12345}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"future version", func(b []byte) []byte { b[4] = 9; return b }},
		{"unknown flag", func(b []byte) []byte { b[5] |= 0x80; return b }},
		{"zero cpus", func(b []byte) []byte { b[6], b[7] = 0, 0; return b }},
		{"excess cpus", func(b []byte) []byte { b[6], b[7] = 0xFF, 0x00; return b }},
		{"empty", func(b []byte) []byte { return nil }},
		{"header only", func(b []byte) []byte { return b[:9] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mangle(append([]byte(nil), valid...))
			rd, err := NewReader(bytes.NewReader(b))
			if err != nil {
				return // rejected at open: good
			}
			if _, _, err := rd.Read(); err == nil || err == io.EOF {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
}

func TestReaderTruncatedAndMiscounted(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Write(0, Ref{Op: Write, Addr: uint64(i) * 999}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Chop the end marker off: the reader must report corruption, not EOF.
	rd, err := NewReader(bytes.NewReader(full[:len(full)-2]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err := rd.Read(); err != nil {
			break
		}
	}
	if rd.Err() == nil {
		t.Error("truncation not reported")
	}

	// Lie in the end marker's total: must be caught.
	lied := append([]byte(nil), full...)
	lied[len(lied)-1] = 7 // declared total (was 5)
	rd, err = NewReader(bytes.NewReader(lied))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err := rd.Read(); err != nil {
			break
		}
	}
	if rd.Err() == nil {
		t.Error("end-marker count mismatch not reported")
	}
	if _, err := Summarize(bytes.NewReader(lied)); err == nil {
		t.Error("Summarize missed the end-marker count mismatch")
	}
}

func TestWriterRejectsBadInputs(t *testing.T) {
	if _, err := NewWriter(io.Discard, 0, WriterOptions{}); err == nil {
		t.Error("0 cpus accepted")
	}
	if _, err := NewWriter(io.Discard, 1000, WriterOptions{}); err == nil {
		t.Error("1000 cpus accepted")
	}
	w, err := NewWriter(io.Discard, 2, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(5, Ref{}); err == nil {
		t.Error("out-of-range cpu accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(0, Ref{}); err == nil {
		t.Error("write after Close accepted")
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
		if unzigzag(zigzag(v)) != v {
			t.Errorf("zigzag round trip failed for %d", v)
		}
	}
}

func TestDigestIsStable(t *testing.T) {
	d1, err := Digest(bytes.NewReader([]byte("abc")))
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := Digest(bytes.NewReader([]byte("abc")))
	d3, _ := Digest(bytes.NewReader([]byte("abd")))
	if d1 != d2 || d1 == d3 {
		t.Fatalf("digests: %s %s %s", d1, d2, d3)
	}
	if len(d1) != 64 {
		t.Fatalf("digest length %d, want 64 hex chars", len(d1))
	}
}

func ExampleWriter() {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2, WriterOptions{Meta: Meta{App: "demo"}})
	w.Write(0, Ref{Op: Read, Addr: 0x1000})
	w.Write(1, Ref{Op: Write, Addr: 0x2000})
	w.Write(0, Ref{Op: Read, Addr: 0x1040})
	w.Close()

	rd, _ := NewReader(bytes.NewReader(buf.Bytes()))
	for {
		cpu, r, err := rd.Read()
		if err != nil {
			break
		}
		fmt.Printf("cpu%d %s %#x\n", cpu, r.Op, r.Addr)
	}
	// Output:
	// cpu0 R 0x1000
	// cpu1 W 0x2000
	// cpu0 R 0x1040
}
