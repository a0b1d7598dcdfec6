// Explorer: sweeps the JETTY design space beyond the paper's evaluated
// points — exclude geometries, include geometries, the include skip-bits
// (index overlap) ablation, and hybrid pairings — and prints a
// coverage-vs-storage-vs-energy table so a designer can pick a point on
// the Pareto front. All configurations are measured in one simulation
// pass per workload (filtering never changes protocol outcomes).
package main

import (
	"fmt"
	"log"
	"sort"

	"jetty/internal/energy"
	"jetty/internal/jetty"
	"jetty/internal/sim"
	"jetty/internal/smp"
	"jetty/internal/workload"
)

func main() {
	names := []string{
		// Exclude family.
		"EJ-8x2", "EJ-16x2", "EJ-32x4", "EJ-64x4",
		"VEJ-32x4-4", "VEJ-32x4-8",
		// Include family, including a skip-bits (overlap) ablation of
		// IJ-8x4xS: the paper asserts partially-overlapped indexes (S<E)
		// work better; measure it.
		"IJ-6x5x6", "IJ-8x4x4", "IJ-8x4x7", "IJ-8x4x8", "IJ-9x4x7", "IJ-10x4x7",
		// Hybrids around the paper's sweet spot.
		"HJ(IJ-8x4x7,EJ-16x2)", "HJ(IJ-9x4x7,EJ-32x4)", "HJ(IJ-10x4x7,EJ-32x4)",
	}
	configs, err := jetty.ParseAll(names)
	if err != nil {
		log.Fatal(err)
	}
	cfg := smp.PaperConfig(4).WithFilters(configs...)

	// A medium-sharing workload keeps both filter families honest.
	apps := []string{"Barnes", "Em3d", "Unstructured"}
	type point struct {
		name     string
		storage  int // bits
		coverage float64
		overAll  float64
	}
	points := make(map[string]*point)
	tech := energy.Tech180()

	for _, app := range apps {
		sp, err := workload.Lookup(app)
		if err != nil {
			log.Fatal(err)
		}
		sp.Accesses = 800_000
		res, err := sim.RunApp(sp, cfg)
		if err != nil {
			log.Fatal(err)
		}
		reds := sim.EnergyReductions(res, cfg, tech, energy.SerialTagData)
		for i, name := range res.FilterNames {
			p := points[name]
			if p == nil {
				p = &point{name: name, storage: storageBits(configs[i], cfg)}
				points[name] = p
			}
			p.coverage += res.Coverage[i] / float64(len(apps))
			p.overAll += reds[i].OverAll / float64(len(apps))
		}
	}

	list := make([]*point, 0, len(points))
	for _, p := range points {
		list = append(list, p)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].storage < list[j].storage })

	fmt.Printf("design-space sweep over %v (coverage/energy averaged)\n\n", apps)
	fmt.Printf("%-24s %10s %10s %12s %7s\n", "config", "bits", "coverage", "energy -%", "pareto")
	var bestCov float64
	for _, p := range list {
		pareto := ""
		if p.coverage > bestCov {
			bestCov = p.coverage
			pareto = "*"
		}
		fmt.Printf("%-24s %10d %9.1f%% %11.1f%% %6s\n", p.name, p.storage, p.coverage*100, p.overAll*100, pareto)
	}
	fmt.Println("\n'*' marks the coverage Pareto front in storage order. Note the skip-bits")
	fmt.Println("ablation IJ-8x4x{4,7,8}: the paper's partially-overlapped indexes (S=7 < E=8)")
	fmt.Println("versus aligned (S=8) and heavily-overlapped (S=4) index extraction.")
}

// storageBits returns the total storage of a configuration.
func storageBits(c jetty.Config, cfg smp.Config) int {
	bits := 0
	if c.Exclude != nil {
		org := c.Exclude.EnergyOrg(cfg.L2.Geom.UnitAddrBits())
		bits += org.Sets * org.Ways * (org.TagBits + org.VectorBits)
	}
	if c.Include != nil {
		row := c.Include.Storage(jetty.CntBitsFor(cfg.L2.Blocks()))
		bits += row.TotalBits
	}
	return bits
}
