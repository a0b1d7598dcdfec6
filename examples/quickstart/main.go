// Quickstart: build the paper's 4-way SMP, attach a hybrid JETTY to every
// processor, run one of the benchmark workloads and print what the filter
// achieved. This is the smallest end-to-end use of the library.
package main

import (
	"fmt"
	"log"

	"jetty/internal/energy"
	"jetty/internal/jetty"
	"jetty/internal/sim"
	"jetty/internal/smp"
	"jetty/internal/workload"
)

func main() {
	// The machine of §4.1: four CPUs, 64KB direct-mapped L1s, 1MB 4-way
	// subblocked L2s, MOESI over a snoopy bus — with the paper's best
	// hybrid JETTY (a 4x1K-entry include part plus a 32x4 exclude part)
	// attached between each L2 and the bus.
	best := jetty.MustParse("HJ(IJ-10x4x7,EJ-32x4)")
	cfg := smp.PaperConfig(4).WithFilters(best)

	// One of the ten Table-2 workloads, shortened for a quick run.
	spec, err := workload.Lookup("Ocean")
	if err != nil {
		log.Fatal(err)
	}
	spec.Accesses = 400_000

	res, err := sim.RunApp(spec, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on a 4-way SMP: %d references\n", spec.Name, res.Refs)
	fmt.Printf("  snoop-induced L2 tag probes: %d (%.1f%% would miss)\n",
		res.Counts.Snoops, res.SnoopMissOfSnoops*100)

	cov, _ := res.CoverageOf(best.Name())
	fmt.Printf("  %s filtered %.1f%% of those would-miss probes\n", best.Name(), cov*100)

	red := sim.EnergyReductions(res, cfg, energy.Tech180(), energy.SerialTagData)[0]
	fmt.Printf("  L2 energy saved: %.1f%% of snoop-induced energy, %.1f%% of all L2 energy\n",
		red.OverSnoops*100, red.OverAll*100)
	fmt.Println("\nThe filter never lied: a JETTY may only say \"not cached\" when that is guaranteed.")
}
