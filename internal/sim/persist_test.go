package sim

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"jetty/internal/store"
	"jetty/internal/workload"
)

// persistTestResult computes one real sampled result with filters and a
// timeline attached — the richest AppResult shape the store carries.
func persistTestResult(t *testing.T) AppResult {
	t.Helper()
	sp, err := workload.Lookup("Lu")
	if err != nil {
		t.Fatal(err)
	}
	sp.Accesses = 120_000
	res, err := runSingle(context.Background(), Input{Spec: sp}, testConfig(4), Plan{Sample: SampleOptions{Interval: 1024}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResultCodecRoundTrip pins the codec contract the kill-and-restart
// differential test depends on: decode(encode(r)) is DeepEqual to r for
// a real computed result, including the per-filter slices and the full
// per-window timeline.
func TestResultCodecRoundTrip(t *testing.T) {
	res := persistTestResult(t)
	if res.Timeline == nil || len(res.FilterCounts) == 0 {
		t.Fatalf("test result not rich enough: %+v", res)
	}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Fatalf("codec round trip diverged:\n got  %+v\n want %+v", back, res)
	}

	// Re-encoding the decoded result must be byte-identical: the store
	// can overwrite an entry with a recomputed copy without churn.
	data2, err := EncodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data2) != string(data) {
		t.Fatalf("re-encode not byte-identical")
	}
}

// FuzzDecodeResult drives DecodeResult, which reads every stored cell
// back at boot. No input may panic, and an accepted input is a fixed
// point of decode→encode→decode: the re-decoded result is DeepEqual to
// the first and encodes to the same bytes. The seed corpus under
// testdata/fuzz/FuzzDecodeResult is EncodeResult of a small Lu run,
// with and without a timeline.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		enc, err := EncodeResult(r)
		if err != nil {
			t.Fatalf("a decoded result does not encode: %v", err)
		}
		back, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("an encoded result does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("decode→encode→decode diverged:\n got  %+v\n want %+v", back, r)
		}
		if again, _ := EncodeResult(back); !bytes.Equal(again, enc) {
			t.Fatalf("re-encode not byte-identical:\n%s\n%s", again, enc)
		}
	})
}

func TestDiskCacheRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dc := NewDiskCache(st)
	res := persistTestResult(t)

	dc.Store("k1", res)
	v, ok := dc.Load("k1")
	if !ok {
		t.Fatalf("Load after Store missed")
	}
	if !reflect.DeepEqual(v.(AppResult), res) {
		t.Fatalf("disk round trip diverged")
	}
	if _, ok := dc.Load("absent"); ok {
		t.Fatalf("Load(absent) hit")
	}

	// Non-AppResult values are silently not persisted.
	dc.Store("k2", "not a result")
	if _, ok := dc.Load("k2"); ok {
		t.Fatalf("non-result value persisted")
	}
}

func TestDiskCacheDiscardsUndecodableEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Valid JSON, but not a current AppResult (unknown field).
	if err := st.PutResult("stale", []byte(`{"NoSuchField":1}`)); err != nil {
		t.Fatal(err)
	}
	dc := NewDiskCache(st)
	if _, ok := dc.Load("stale"); ok {
		t.Fatalf("undecodable entry served")
	}
	if _, err := os.Stat(filepath.Join(dir, "results", "stale.json")); !os.IsNotExist(err) {
		t.Fatalf("undecodable entry not discarded (err=%v)", err)
	}
}
