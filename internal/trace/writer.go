package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// WriterOptions configures a trace Writer.
type WriterOptions struct {
	// Compress gzips every chunk payload (flag bit0).
	Compress bool
	// ChunkRecords is how many records accumulate before a chunk is
	// framed and flushed; it is the Writer's (and every Reader's) memory
	// footprint. 0 means DefaultChunkRecords.
	ChunkRecords int
	// Meta is stored in the header.
	Meta Meta
}

// Writer encodes a reference stream to the JTRC v1 format, buffering one
// chunk at a time: memory use is O(ChunkRecords) regardless of trace
// length, so arbitrarily long streams can be written to a pipe.
type Writer struct {
	w            *bufio.Writer
	cpus         int
	compress     bool
	chunkRecords int

	buf   bytes.Buffer // encoded records of the open chunk
	gzBuf bytes.Buffer // scratch for the compressed payload
	gz    *gzip.Writer
	n     int      // records in the open chunk
	last  []uint64 // per-CPU delta state, reset at each chunk boundary
	total uint64

	closed bool
	err    error
}

// NewWriter writes a JTRC header for an nCPU trace and returns the
// Writer. Close it to frame the final chunk and the end marker.
func NewWriter(w io.Writer, cpus int, opts WriterOptions) (*Writer, error) {
	if cpus < 1 || cpus > MaxCPUs {
		return nil, fmt.Errorf("trace: %d cpus out of range 1..%d", cpus, MaxCPUs)
	}
	chunk := opts.ChunkRecords
	if chunk <= 0 {
		chunk = DefaultChunkRecords
	}
	if chunk > maxChunkRecords {
		chunk = maxChunkRecords
	}
	meta, err := json.Marshal(opts.Meta)
	if err != nil {
		return nil, fmt.Errorf("trace: encoding meta: %w", err)
	}
	if len(meta) > maxMetaBytes {
		return nil, fmt.Errorf("trace: meta blob %d bytes exceeds %d", len(meta), maxMetaBytes)
	}

	bw := bufio.NewWriter(w)
	var flags byte
	if opts.Compress {
		flags |= flagGzip
	}
	hdr := make([]byte, 0, 8+len(meta)+binary.MaxVarintLen64)
	hdr = append(hdr, Magic...)
	hdr = append(hdr, Version, flags)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(cpus))
	hdr = binary.AppendUvarint(hdr, uint64(len(meta)))
	hdr = append(hdr, meta...)
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	t := &Writer{
		w:            bw,
		cpus:         cpus,
		compress:     opts.Compress,
		chunkRecords: chunk,
		last:         make([]uint64, cpus),
	}
	if opts.Compress {
		t.gz = gzip.NewWriter(&t.gzBuf)
	}
	return t, nil
}

// CPUs returns the trace's CPU count.
func (t *Writer) CPUs() int { return t.cpus }

// Records returns the number of records written so far.
func (t *Writer) Records() uint64 { return t.total }

// Write appends one reference to the trace.
func (t *Writer) Write(cpu int, r Ref) error {
	if t.err != nil {
		return t.err
	}
	if t.closed {
		return errors.New("trace: write on closed Writer")
	}
	if cpu < 0 || cpu >= t.cpus {
		return fmt.Errorf("trace: cpu %d out of range 0..%d", cpu, t.cpus-1)
	}
	head := byte(cpu << 1)
	if r.Op == Write {
		head |= 1
	}
	delta := int64(r.Addr) - int64(t.last[cpu])
	t.last[cpu] = r.Addr

	var rec [maxRecordBytes]byte
	rec[0] = head
	n := 1 + binary.PutUvarint(rec[1:], zigzag(delta))
	t.buf.Write(rec[:n])
	t.n++
	t.total++
	if t.n >= t.chunkRecords {
		if err := t.flushChunk(); err != nil {
			t.err = err
			return err
		}
	}
	return nil
}

// flushChunk frames and writes the open chunk, then resets the per-CPU
// delta state so the next chunk decodes independently.
func (t *Writer) flushChunk() error {
	if t.n == 0 {
		return nil
	}
	payload := t.buf.Bytes()
	if t.compress {
		t.gzBuf.Reset()
		t.gz.Reset(&t.gzBuf)
		if _, err := t.gz.Write(payload); err != nil {
			return err
		}
		if err := t.gz.Close(); err != nil {
			return err
		}
		payload = t.gzBuf.Bytes()
	}
	var frame [1 + 2*binary.MaxVarintLen64]byte
	frame[0] = chunkTag
	n := 1 + binary.PutUvarint(frame[1:], uint64(t.n))
	n += binary.PutUvarint(frame[n:], uint64(len(payload)))
	if _, err := t.w.Write(frame[:n]); err != nil {
		return err
	}
	if _, err := t.w.Write(payload); err != nil {
		return err
	}
	t.buf.Reset()
	t.n = 0
	for i := range t.last {
		t.last[i] = 0
	}
	return nil
}

// Close flushes the final chunk, writes the end marker (with the total
// record count as a redundancy check) and flushes the underlying writer.
// The Writer is unusable afterwards; Close is not idempotent-safe for
// error inspection but repeated calls are harmless no-ops.
func (t *Writer) Close() error {
	if t.err != nil {
		return t.err
	}
	if t.closed {
		return nil
	}
	t.closed = true
	if err := t.flushChunk(); err != nil {
		t.err = err
		return err
	}
	var frame [1 + binary.MaxVarintLen64]byte
	frame[0] = endTag
	n := 1 + binary.PutUvarint(frame[1:], t.total)
	if _, err := t.w.Write(frame[:n]); err != nil {
		t.err = err
		return err
	}
	if err := t.w.Flush(); err != nil {
		t.err = err
		return err
	}
	return nil
}

// Record drains src through the round-robin interleaver into a new
// trace written to w: the first n records RoundRobin yields (0 = until
// every stream is exhausted), in the order a run steps them. It returns
// the number of records written.
func Record(w io.Writer, src Source, n uint64, opts WriterOptions) (uint64, error) {
	tw, err := NewWriter(w, src.CPUs(), opts)
	if err != nil {
		return 0, err
	}
	rr := NewRoundRobin(src)
	var buf [1 << 10]Rec
	for {
		b := buf[:]
		if n > 0 {
			b = b[:min(uint64(len(b)), n-tw.Records())]
		}
		got := rr.Fill(b)
		for _, r := range b[:got] {
			if err := tw.Write(int(r.CPU), Ref{Op: r.Op, Addr: r.Addr}); err != nil {
				return tw.Records(), err
			}
		}
		if got < len(buf) {
			return tw.Records(), tw.Close()
		}
	}
}
