package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// Reader decodes a JTRC trace, loading one chunk at a time: memory use
// is O(chunk records) regardless of file size. Read and ReadBatch both
// return records in recorded order: one at a time for the tools, a
// buffer at a time for replay.
type Reader struct {
	r          *bufio.Reader
	cpus       int
	meta       Meta
	compressed bool

	raw   []byte // reused frame payload buffer
	dec   bytes.Buffer
	gz    *gzip.Reader
	chunk []byte   // decoded payload of the current chunk
	off   int      // decode offset into chunk
	left  uint64   // records remaining in the current chunk
	last  []uint64 // per-CPU delta state, reset at each chunk

	chunks uint64
	total  uint64 // records decoded so far
	done   bool
	err    error
}

// NewReader parses a JTRC header and returns a Reader positioned at the
// first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:4]) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q (not a JTRC trace)", hdr[:4])
	}
	if hdr[4] != Version {
		return nil, fmt.Errorf("trace: unsupported format version %d (this reader understands %d)", hdr[4], Version)
	}
	flags := hdr[5]
	if flags&^byte(knownFlags) != 0 {
		return nil, fmt.Errorf("trace: unknown flag bits %#02x", flags&^byte(knownFlags))
	}
	cpus := int(binary.LittleEndian.Uint16(hdr[6:8]))
	if cpus < 1 || cpus > MaxCPUs {
		return nil, fmt.Errorf("trace: %d cpus out of range 1..%d", cpus, MaxCPUs)
	}
	metaLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading meta length: %w", err)
	}
	if metaLen > maxMetaBytes {
		return nil, fmt.Errorf("trace: meta blob %d bytes exceeds %d", metaLen, maxMetaBytes)
	}
	metaRaw := make([]byte, metaLen)
	if _, err := io.ReadFull(br, metaRaw); err != nil {
		return nil, fmt.Errorf("trace: reading meta: %w", err)
	}
	var meta Meta
	if metaLen > 0 {
		if err := json.Unmarshal(metaRaw, &meta); err != nil {
			return nil, fmt.Errorf("trace: decoding meta: %w", err)
		}
	}
	return &Reader{
		r:          br,
		cpus:       cpus,
		meta:       meta,
		compressed: flags&flagGzip != 0,
		last:       make([]uint64, cpus),
	}, nil
}

// CPUs returns the header's CPU count.
func (t *Reader) CPUs() int { return t.cpus }

// Meta returns the header's metadata blob.
func (t *Reader) Meta() Meta { return t.meta }

// Compressed reports whether chunk payloads are gzip-compressed.
func (t *Reader) Compressed() bool { return t.compressed }

// Records returns the number of records decoded so far.
func (t *Reader) Records() uint64 { return t.total }

// Err returns the first decoding error encountered, if any (a clean end
// of trace is not an error).
func (t *Reader) Err() error { return t.err }

// Read returns the next record in recorded order: a one-record
// ReadBatch. It returns io.EOF at a clean end of trace and the decoding
// error otherwise (also retained in Err).
func (t *Reader) Read() (cpu int, r Ref, err error) {
	var one [1]Rec
	if n, err := t.ReadBatch(one[:]); n == 0 {
		return 0, Ref{}, err
	}
	return int(one[0].CPU), Ref{Op: one[0].Op, Addr: one[0].Addr}, nil
}

// ReadBatch decodes up to len(dst) records into dst, in recorded order,
// and returns how many it wrote. It returns io.EOF (possibly alongside
// n > 0 decoded records) at a clean end of trace and the decoding error
// otherwise. It is the Reader's only decoder: the replay hot path
// fills one reusable buffer per chunk instead of making a call per
// record.
func (t *Reader) ReadBatch(dst []Rec) (int, error) {
	if t.err != nil {
		return 0, t.err
	}
	n := 0
	for n < len(dst) {
		// Decode straight from the current chunk while records remain;
		// this inner loop is the allocation-free fast path.
		for t.left > 0 && n < len(dst) {
			if t.off >= len(t.chunk) {
				return n, t.corrupt("chunk payload ends before its %d records do", t.left)
			}
			head := t.chunk[t.off]
			t.off++
			cpu := int(head >> 1)
			if cpu >= t.cpus {
				return n, t.corrupt("record for cpu %d beyond the header's %d", cpu, t.cpus)
			}
			u, un := binary.Uvarint(t.chunk[t.off:])
			if un <= 0 {
				return n, t.corrupt("truncated record varint")
			}
			t.off += un
			a := uint64(int64(t.last[cpu]) + unzigzag(u))
			t.last[cpu] = a
			op := Read
			if head&1 != 0 {
				op = Write
			}
			dst[n] = Rec{Addr: a, CPU: int32(cpu), Op: op}
			n++
			t.left--
			t.total++
		}
		if n == len(dst) {
			return n, nil
		}
		if t.err != nil {
			return n, t.err
		}
		if t.done {
			return n, io.EOF
		}
		if err := t.nextChunk(); err != nil {
			if err != io.EOF {
				t.err = err
			}
			return n, err
		}
	}
	return n, nil
}

// nextChunk loads and decodes the next frame. io.EOF signals a clean end
// marker; any other error is corruption.
func (t *Reader) nextChunk() error {
	if t.off != len(t.chunk) {
		return t.corrupt("%d payload bytes left over after the chunk's records", len(t.chunk)-t.off)
	}
	tag, err := t.r.ReadByte()
	if err != nil {
		return t.corrupt("missing end marker: %v", err)
	}
	switch tag {
	case endTag:
		declared, err := binary.ReadUvarint(t.r)
		if err != nil {
			return t.corrupt("truncated end marker: %v", err)
		}
		if declared != t.total {
			return t.corrupt("end marker declares %d records, decoded %d", declared, t.total)
		}
		t.done = true
		return io.EOF
	case chunkTag:
	default:
		return t.corrupt("unknown frame tag %#02x", tag)
	}

	n, err := binary.ReadUvarint(t.r)
	if err != nil {
		return t.corrupt("truncated chunk header: %v", err)
	}
	if n == 0 || n > maxChunkRecords {
		return t.corrupt("chunk record count %d out of range 1..%d", n, maxChunkRecords)
	}
	p, err := binary.ReadUvarint(t.r)
	if err != nil {
		return t.corrupt("truncated chunk header: %v", err)
	}
	if p > maxChunkPayloadLen {
		return t.corrupt("chunk payload length %d exceeds %d", p, maxChunkPayloadLen)
	}
	if uint64(cap(t.raw)) < p {
		t.raw = make([]byte, p)
	}
	t.raw = t.raw[:p]
	if _, err := io.ReadFull(t.r, t.raw); err != nil {
		return t.corrupt("truncated chunk payload: %v", err)
	}

	if t.compressed {
		if t.gz == nil {
			t.gz = new(gzip.Reader)
		}
		if err := t.gz.Reset(bytes.NewReader(t.raw)); err != nil {
			return t.corrupt("bad gzip chunk: %v", err)
		}
		t.dec.Reset()
		// A chunk of n records decompresses to at most n*maxRecordBytes;
		// anything larger is corrupt, and the bound caps the allocation.
		limit := int64(n) * maxRecordBytes
		copied, err := io.Copy(&t.dec, io.LimitReader(t.gz, limit+1))
		if err != nil {
			return t.corrupt("bad gzip chunk: %v", err)
		}
		if copied > limit {
			return t.corrupt("decompressed chunk exceeds %d bytes for %d records", limit, n)
		}
		if err := t.gz.Close(); err != nil {
			return t.corrupt("bad gzip chunk: %v", err)
		}
		t.chunk = t.dec.Bytes()
	} else {
		t.chunk = t.raw
	}
	t.off = 0
	t.left = n
	t.chunks++
	for i := range t.last {
		t.last[i] = 0
	}
	return nil
}

// corrupt records and returns a corruption error.
func (t *Reader) corrupt(format string, args ...any) error {
	err := fmt.Errorf("trace: corrupt file: "+format, args...)
	t.err = err
	return err
}

// Summary is the framing-level description of a trace file, computed
// without decoding any chunk payload.
type Summary struct {
	CPUs       int
	Meta       Meta
	Compressed bool
	Chunks     uint64
	Records    uint64
}

// Summarize scans a trace's header and chunk framing, skipping every
// payload, and verifies the end marker's record count. It is how
// `tracecat inspect` and the jettyd trace upload validate a file
// cheaply.
func Summarize(r io.Reader) (Summary, error) {
	rd, err := NewReader(r)
	if err != nil {
		return Summary{}, err
	}
	s := Summary{CPUs: rd.cpus, Meta: rd.meta, Compressed: rd.compressed}
	for {
		tag, err := rd.r.ReadByte()
		if err != nil {
			return s, rd.corrupt("missing end marker: %v", err)
		}
		if tag == endTag {
			declared, err := binary.ReadUvarint(rd.r)
			if err != nil {
				return s, rd.corrupt("truncated end marker: %v", err)
			}
			if declared != s.Records {
				return s, rd.corrupt("end marker declares %d records, framing sums to %d", declared, s.Records)
			}
			return s, nil
		}
		if tag != chunkTag {
			return s, rd.corrupt("unknown frame tag %#02x", tag)
		}
		n, err := binary.ReadUvarint(rd.r)
		if err != nil {
			return s, rd.corrupt("truncated chunk header: %v", err)
		}
		if n == 0 || n > maxChunkRecords {
			return s, rd.corrupt("chunk record count %d out of range 1..%d", n, maxChunkRecords)
		}
		p, err := binary.ReadUvarint(rd.r)
		if err != nil {
			return s, rd.corrupt("truncated chunk header: %v", err)
		}
		if p > maxChunkPayloadLen {
			return s, rd.corrupt("chunk payload length %d exceeds %d", p, maxChunkPayloadLen)
		}
		if _, err := io.CopyN(io.Discard, rd.r, int64(p)); err != nil {
			return s, rd.corrupt("truncated chunk payload: %v", err)
		}
		s.Chunks++
		s.Records += n
	}
}

// Append copies every record of src into dst in recorded order,
// re-encoding under dst's chunking and compression options. It returns
// the number of records copied. It is the engine behind `tracecat
// convert` and `tracecat merge`; dst must have at least as many CPUs as
// the records reference.
func Append(dst *Writer, src *Reader) (uint64, error) {
	var n uint64
	for {
		cpu, r, err := src.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := dst.Write(cpu, r); err != nil {
			return n, err
		}
		n++
	}
}

// Digest returns the content address of a trace: the hex SHA-256 of its
// raw file bytes. The engine's result cache keys replay runs on it.
func Digest(r io.Reader) (string, error) {
	h := sha256.New()
	if _, err := io.Copy(h, r); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
