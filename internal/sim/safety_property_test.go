package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"jetty/internal/addr"
	"jetty/internal/jetty"
	"jetty/internal/smp"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// The paper's correctness condition (§3): a JETTY may fail to filter,
// but it must NEVER answer "not present" for a block that is actually
// cached — a wrong "absent" breaks coherence. The jetty package proves
// this per-filter against a model; this file proves it end to end:
// random operation streams driven through the full machine with every
// variant family attached at once, audited mid-run (not just at the
// end) by smp.CheckFilterSafety's sweep of the real cache contents.
// The CI race job runs it under -race like everything else.

// safetyBank returns every variant family, in geometries randomized per
// seed (all valid per jetty's Validate rules; the fixed paper
// geometries are covered by the figure-bank tests).
func safetyBank(r *rand.Rand) []jetty.Config {
	ej := &jetty.ExcludeConfig{Sets: 1 << (1 + r.Intn(6)), Ways: 1 + r.Intn(4), Vector: 1}
	vej := &jetty.ExcludeConfig{Sets: 1 << (1 + r.Intn(6)), Ways: 1 + r.Intn(4), Vector: 1 << (1 + r.Intn(3))}
	ij := &jetty.IncludeConfig{IndexBits: 4 + r.Intn(7), Arrays: 1 + r.Intn(5), SkipBits: 1 + r.Intn(8)}
	hij := &jetty.IncludeConfig{IndexBits: 4 + r.Intn(7), Arrays: 1 + r.Intn(5), SkipBits: 1 + r.Intn(8)}
	hej := &jetty.ExcludeConfig{Sets: 1 << (1 + r.Intn(6)), Ways: 1 + r.Intn(4), Vector: 1}
	return []jetty.Config{
		{Exclude: ej},
		{Exclude: vej},
		{Include: ij},
		{Include: hij, Exclude: hej},
	}
}

// randMachine perturbs the paper machine: width, L2 geometry,
// subblocking, write-buffer depth.
func randMachine(r *rand.Rand, filters []jetty.Config) (smp.Config, error) {
	cfg := smp.PaperConfig(1 + r.Intn(8)).WithFilters(filters...)
	cfg.L2.SizeBytes = (128 << 10) << r.Intn(4) // 128K..1M
	cfg.L2.Assoc = 1 << r.Intn(4)               // 1..8
	if r.Intn(2) == 0 {
		cfg.L2.Geom = addr.NonSubblocked
	}
	cfg.WBEntries = r.Intn(9)
	return cfg, cfg.Validate()
}

// auditChunks drives src through sys for total references, auditing the
// safety condition (and full MOESI coherence) every auditEvery
// references — violations must be caught when they happen, not only
// after the end-of-run drain.
func auditChunks(t *testing.T, sys *smp.System, src trace.Source, total, auditEvery uint64) {
	t.Helper()
	rr := trace.NewRoundRobin(src)
	var done uint64
	for done < total {
		n := auditEvery
		if rem := total - done; rem < n {
			n = rem
		}
		ran := stepRecords(sys, rr, n)
		done += ran
		if err := sys.CheckFilterSafety(); err != nil {
			t.Fatalf("after %d refs: %v", done, err)
		}
		if err := sys.CheckCoherence(); err != nil {
			t.Fatalf("after %d refs: %v", done, err)
		}
		if ran == 0 {
			return
		}
	}
	sys.DrainWriteBuffers()
	if err := sys.CheckFilterSafety(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

// TestFilterSafetyUnderRandomWorkloads: randomized workload signatures
// (random tier mix, sharing patterns, footprints) on randomized machines.
func TestFilterSafetyUnderRandomWorkloads(t *testing.T) {
	const rounds = 6
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("seed=%d", round), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(0x1E77 ^ int64(round)*2654435761))
			sp := randSpec(r, round)
			cfg, err := randMachine(r, safetyBank(r))
			if err != nil {
				t.Fatal(err)
			}
			sys := smp.New(cfg)
			defer sys.Close()
			auditChunks(t, sys, sp.Source(cfg.CPUs), 60_000, 6_000)
		})
	}
}

// randSpec builds a valid random workload spec: raw fractions drawn
// uniformly and normalized, geometries drawn from the ranges the library
// itself uses.
func randSpec(r *rand.Rand, i int) workload.Spec {
	frac := make([]float64, 7)
	sum := 0.0
	for j := range frac {
		frac[j] = r.Float64()
		sum += frac[j]
	}
	for j := range frac {
		frac[j] /= sum
	}
	sp := workload.Spec{
		Name: fmt.Sprintf("rand-%d", i), Abbrev: fmt.Sprintf("r%d", i),
		Accesses: 60_000, WriteFrac: r.Float64() * 0.6,
		Hot:    workload.Region{Frac: frac[0], Bytes: 4 << (10 + r.Intn(4))},
		Warm:   workload.Region{Frac: frac[1], Bytes: 64 << (10 + r.Intn(3)), Burst: r.Intn(8)},
		Stream: workload.Region{Frac: frac[2], Bytes: 1 << (20 + r.Intn(3)), Stride: 8 << r.Intn(3)},
		Pair: workload.PairSharing{Frac: frac[3], Bytes: 64 << 10,
			LagBytes: 1 << (10 + r.Intn(5)), Stride: 8 << r.Intn(3)},
		Mig:  workload.MigratorySharing{Frac: frac[4], Records: 1 + r.Intn(256), Hold: 1 + r.Intn(32)},
		Wide: workload.WideSharing{Frac: frac[5], Bytes: 4 << (10 + r.Intn(3)), WriteFrac: r.Float64() * 0.2},
		Zipf: workload.ZipfSharing{Frac: frac[6], Bytes: 64 << (10 + r.Intn(5)),
			S: 1.01 + r.Float64(), WriteFrac: r.Float64() * 0.5},
		Seed: int64(i)*7919 + 13,
	}
	if r.Intn(3) == 0 {
		sp.MigrationPeriod = uint64(1+r.Intn(20)) * 1000
	}
	return sp
}

// TestFilterSafetyUnderAdversarialStreams: raw random reference streams
// with no generator structure at all — uniformly random addresses in a
// window sized to force constant eviction and re-allocation, the churn
// that stresses the include counters and exclude learn/unlearn paths
// hardest.
func TestFilterSafetyUnderAdversarialStreams(t *testing.T) {
	cases := []struct {
		name   string
		window uint64 // address window
		writes float64
	}{
		{"l2-sized-churn", 2 << 20, 0.3},    // 2× the L2: heavy conflict misses
		{"tiny-hot-set", 8 << 10, 0.5},      // everything collides, many upgrades
		{"huge-sparse", 1 << 32, 0.1},       // compulsory misses, no reuse
		{"writeback-storm", 256 << 10, 0.9}, // dirty evictions dominate
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(len(tc.name)) * 1_000_003))
			cfg, err := randMachine(r, safetyBank(r))
			if err != nil {
				t.Fatal(err)
			}
			streams := make([]*rand.Rand, cfg.CPUs)
			for i := range streams {
				streams[i] = rand.New(rand.NewSource(int64(i) * 104_729))
			}
			src := &trace.FuncSource{
				NumCPUs: cfg.CPUs,
				Fn: func(cpu int) (trace.Ref, bool) {
					sr := streams[cpu]
					op := trace.Read
					if sr.Float64() < tc.writes {
						op = trace.Write
					}
					return trace.Ref{Op: op, Addr: sr.Uint64() % tc.window}, true
				},
			}
			sys := smp.New(cfg)
			defer sys.Close()
			auditChunks(t, sys, src, 50_000, 5_000)
		})
	}
}
