package sweep

import (
	"bytes"
	"errors"
	"testing"

	"jetty/internal/sim"
)

// FuzzSpec drives DecodeSpec, the spec decoder of jettysweep and
// cmd/paper (jettyd's /v1/sweeps applies the same strict decode and
// Validate behind its body caps), then Expand against a stub trace
// store. No input may panic, and a spec DecodeSpec accepts must expand
// to at most MaxCells cells. The seed corpus under testdata/fuzz/FuzzSpec
// is cmd/paper's committed specs.
func FuzzSpec(f *testing.F) {
	f.Add([]byte(`{"workloads":["trace:0123abcd","Lu"],"machines":[{},{"cpus":2}],"filters":["EJ-32x4","IJ-8x4x7"],"filter_mode":"each","repeat":3,"scale":0.5,"interval":4096,"timelines":"first"}`))
	stored := sim.TraceInput{Name: "fuzz", Digest: "0123abcd", CPUs: 4, Records: 1 << 20}
	traces := func(digest string) (sim.TraceInput, error) {
		if digest != stored.Digest {
			return sim.TraceInput{}, errors.New("not uploaded")
		}
		return stored, nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		cells, err := spec.Expand(traces)
		if err == nil && len(cells) > MaxCells {
			t.Fatalf("a valid spec expanded to %d cells, cap %d: %s", len(cells), MaxCells, data)
		}
	})
}
