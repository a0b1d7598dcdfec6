package workload

// Specs returns the ten applications of the paper's Table 2 (SPLASH-2
// programs plus Em3d and Unstructured), as behavioral signatures
// calibrated against the paper's measured statistics: the L1/L2 local hit
// rates of Table 2 and the remote-hit distribution of Table 3. The access
// budgets are scaled down (the paper runs 60M–1.7B references; the
// signatures reproduce the *rates*, which is what every JETTY result is a
// function of). EXPERIMENTS.md records measured-vs-paper for every app.
func Specs() []Spec {
	return []Spec{
		{
			// Barnes-Hut N-body: tree walks over widely-read body data;
			// the widest sharing in the suite (Table 3: 47/28/15/10).
			Name: "Barnes", Abbrev: "ba", Accesses: 2_400_000, WriteFrac: 0.30,
			Hot:    Region{Frac: 0.945, Bytes: 16 << 10},
			Warm:   Region{Frac: 0.004, Bytes: 128 << 10, Burst: 6},
			Stream: Region{Frac: 0.024, Bytes: 12 << 20, Stride: 16},
			Pair:   PairSharing{Frac: 0.007, Bytes: 192 << 10, LagBytes: 4096, Stride: 16},
			Mig:    MigratorySharing{Frac: 0.003, Records: 64, Hold: 24},
			Wide:   WideSharing{Frac: 0.017, Bytes: 8 << 10, WriteFrac: 0.06},
			Seed:   101,
		},
		{
			// Cholesky factorization: supernodal panels, mostly private
			// with light producer/consumer hand-off (92/5/3/0).
			Name: "Cholesky", Abbrev: "ch", Accesses: 1_000_000, WriteFrac: 0.30,
			Hot:    Region{Frac: 0.8932, Bytes: 16 << 10},
			Warm:   Region{Frac: 0.100, Bytes: 128 << 10, Burst: 6},
			Stream: Region{Frac: 0.004, Bytes: 5 << 20, Stride: 16},
			Pair:   PairSharing{Frac: 0.0008, Bytes: 128 << 10, LagBytes: 4096, Stride: 16},
			Wide:   WideSharing{Frac: 0.002, Bytes: 8 << 10, WriteFrac: 0.05},
			Seed:   102,
		},
		{
			// Em3d: electromagnetic wave propagation on a bipartite graph;
			// streaming with the worst L1 behaviour in the suite (76.5%)
			// and snoops dominating all L2 accesses (69%).
			Name: "Em3d", Abbrev: "em", Accesses: 1_600_000, WriteFrac: 0.30,
			Hot:    Region{Frac: 0.630, Bytes: 16 << 10},
			Warm:   Region{Frac: 0.012, Bytes: 128 << 10, Burst: 6},
			Stream: Region{Frac: 0.300, Bytes: 8 << 20, Stride: 16},
			Pair:   PairSharing{Frac: 0.050, Bytes: 256 << 10, LagBytes: 8192, Stride: 16},
			Mig:    MigratorySharing{Frac: 0.008, Records: 32, Hold: 16},
			Seed:   103,
		},
		{
			// FFT: transpose-dominated all-to-all, but phases are long and
			// private (93/7/0/0); moderate L2 reuse (36.3%).
			Name: "Fft", Abbrev: "ff", Accesses: 800_000, WriteFrac: 0.30,
			Hot:    Region{Frac: 0.9390, Bytes: 16 << 10},
			Warm:   Region{Frac: 0.0220, Bytes: 128 << 10, Burst: 6},
			Stream: Region{Frac: 0.0340, Bytes: 6 << 20, Stride: 16},
			Pair:   PairSharing{Frac: 0.005, Bytes: 192 << 10, LagBytes: 8192, Stride: 16},
			Seed:   104,
		},
		{
			// FMM: adaptive fast multipole; the best L1 behaviour (99.6%)
			// and high L2 reuse (81.2%), light sharing (82/15/2/1).
			Name: "Fmm", Abbrev: "fm", Accesses: 3_000_000, WriteFrac: 0.25,
			Hot:    Region{Frac: 0.9626, Bytes: 16 << 10},
			Warm:   Region{Frac: 0.0360, Bytes: 96 << 10, Burst: 8},
			Stream: Region{Frac: 0.0002, Bytes: 8 << 20, Stride: 16},
			Pair:   PairSharing{Frac: 0.0004, Bytes: 128 << 10, LagBytes: 4096, Stride: 16},
			Mig:    MigratorySharing{Frac: 0.0002, Records: 16, Hold: 24},
			Wide:   WideSharing{Frac: 0.0004, Bytes: 8 << 10, WriteFrac: 0.03},
			Seed:   105,
		},
		{
			// LU decomposition: blocked panels; perimeter blocks hand off
			// pairwise (73/26/1/0), high L2 reuse (82.5%).
			Name: "Lu", Abbrev: "lu", Accesses: 1_000_000, WriteFrac: 0.30,
			Hot:    Region{Frac: 0.7275, Bytes: 16 << 10},
			Warm:   Region{Frac: 0.260, Bytes: 96 << 10, Burst: 8},
			Stream: Region{Frac: 0.0015, Bytes: 2 << 20, Stride: 16},
			Pair:   PairSharing{Frac: 0.010, Bytes: 160 << 10, LagBytes: 4096, Stride: 16},
			Mig:    MigratorySharing{Frac: 0.001, Records: 16, Hold: 24},
			Seed:   106,
		},
		{
			// Ocean: stencil sweeps over large grids; low L1 (83.5%) from
			// streaming, almost no sharing (97/3/0/0). The written streams
			// generate heavy L1-writeback traffic into the L2.
			Name: "Ocean", Abbrev: "oc", Accesses: 1_200_000, WriteFrac: 0.30,
			Hot:    Region{Frac: 0.588, Bytes: 16 << 10},
			Warm:   Region{Frac: 0.270, Bytes: 256 << 10, Burst: 6},
			Stream: Region{Frac: 0.140, Bytes: 10 << 20, Stride: 16},
			Pair:   PairSharing{Frac: 0.002, Bytes: 64 << 10, LagBytes: 4096, Stride: 16},
			Seed:   107,
		},
		{
			// Radix sort: key permutation streams, fully private between
			// barriers (100/0/0/0), good L2 reuse (79.4%).
			Name: "Radix", Abbrev: "ra", Accesses: 2_000_000, WriteFrac: 0.40,
			Hot:    Region{Frac: 0.797, Bytes: 16 << 10},
			Warm:   Region{Frac: 0.200, Bytes: 128 << 10, Burst: 8},
			Stream: Region{Frac: 0.003, Bytes: 20 << 20, Stride: 16},
			Seed:   108,
		},
		{
			// Raytrace: read-mostly scene traversal with a big footprint;
			// no remote hits at all (100/0/0/0), L2 46.6%.
			Name: "Raytrace", Abbrev: "rt", Accesses: 1_600_000, WriteFrac: 0.10,
			Hot:    Region{Frac: 0.9570, Bytes: 16 << 10},
			Warm:   Region{Frac: 0.0320, Bytes: 128 << 10, Burst: 6},
			Stream: Region{Frac: 0.0110, Bytes: 16 << 20, Stride: 16},
			Seed:   109,
		},
		{
			// Unstructured: CFD over an irregular mesh; the heaviest
			// pairwise sharing in the suite (33/55/4/8) — the one
			// application where most snoops *hit* remotely.
			Name: "Unstructured", Abbrev: "un", Accesses: 3_000_000, WriteFrac: 0.30,
			Hot:    Region{Frac: 0.7228, Bytes: 16 << 10},
			Warm:   Region{Frac: 0.180, Bytes: 96 << 10, Burst: 8},
			Stream: Region{Frac: 0.008, Bytes: 2 << 20, Stride: 16},
			Pair:   PairSharing{Frac: 0.072, Bytes: 192 << 10, LagBytes: 4096, Stride: 16},
			Mig:    MigratorySharing{Frac: 0.006, Records: 32, Hold: 16},
			Wide:   WideSharing{Frac: 0.0112, Bytes: 8 << 10, WriteFrac: 0.10},
			Seed:   110,
		},
	}
}

// Throughput returns a multiprogrammed "throughput engine" signature
// (paper §1: independent programs per CPU — JETTY's best case, where
// essentially every snoop misses).
func Throughput() Spec {
	return Spec{
		Name: "Throughput", Abbrev: "tp", Accesses: 1_000_000, WriteFrac: 0.30,
		Hot:    Region{Frac: 0.90, Bytes: 16 << 10},
		Warm:   Region{Frac: 0.06, Bytes: 384 << 10, Burst: 6},
		Stream: Region{Frac: 0.04, Bytes: 8 << 20, Stride: 16},
		Seed:   999,
	}
}

// MigratingThroughput returns the throughput-engine signature with OS
// process migration every period references per CPU (paper §2: for
// throughput workloads "the only L2 misses resulting in a snoop hit are
// due to highly infrequent activities such as process migration").
func MigratingThroughput(period uint64) Spec {
	sp := Throughput()
	sp.Name = "Throughput+migration"
	sp.Abbrev = "tm"
	sp.MigrationPeriod = period
	return sp
}

// Scale returns a copy of the spec with its access budget multiplied by
// factor (footprints are left intact: they are calibrated against the
// fixed 1 MB L2).
func (sp Spec) Scale(factor float64) Spec {
	if factor <= 0 {
		factor = 1
	}
	sp.Accesses = uint64(float64(sp.Accesses) * factor)
	if sp.Accesses == 0 {
		sp.Accesses = 1
	}
	return sp
}
