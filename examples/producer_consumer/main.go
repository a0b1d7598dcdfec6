// Producer/consumer walkthrough: drives the simulator with a hand-built
// reference stream (no workload generator) to show, step by step, how the
// sharing pattern of §3.1 creates snoop locality and how the exclude-JETTY
// capitalizes on it. CPU 1 produces a buffer that CPU 2 consumes; CPUs 0
// and 3 never touch it — their JETTYs learn after one snoop miss each and
// filter everything that follows.
package main

import (
	"fmt"
	"log"

	"jetty/internal/jetty"
	"jetty/internal/smp"
	"jetty/internal/trace"
)

func main() {
	ej := jetty.MustParse("EJ-32x4")
	cfg := smp.PaperConfig(4).WithFilters(ej)
	cfg.WBEntries = 0 // act on every store immediately: clearer narration
	sys := smp.New(cfg)
	defer sys.Close()

	const bufBase = 0x10_0000
	const blocks = 16
	const rounds = 8

	produce := func(round int) {
		for b := 0; b < blocks; b++ {
			a := uint64(bufBase + b*64)
			sys.Step(1, trace.Ref{Op: trace.Write, Addr: a})      // subblock 0
			sys.Step(1, trace.Ref{Op: trace.Write, Addr: a + 32}) // subblock 1
		}
	}
	consume := func(round int) {
		for b := 0; b < blocks; b++ {
			a := uint64(bufBase + b*64)
			sys.Step(2, trace.Ref{Op: trace.Read, Addr: a})
			sys.Step(2, trace.Ref{Op: trace.Read, Addr: a + 32})
		}
	}

	report := func(tag string) {
		c := sys.EnergyCounts()
		fc := sys.FilterCounts(0)
		fmt.Printf("%-16s snoops %5d (miss %5d)   EJ filtered %5d (coverage %5.1f%%)\n",
			tag, c.Snoops, c.SnoopMisses, fc.Filtered,
			100*float64(fc.Filtered)/float64(max(c.SnoopMisses, 1)))
	}

	fmt.Println("producer/consumer sharing between CPU1 (writes) and CPU2 (reads);")
	fmt.Println("CPU0 and CPU3 are innocent bystanders whose L2 tags every snoop would probe.")
	fmt.Println()
	for round := 0; round < rounds; round++ {
		produce(round)
		consume(round)
		report(fmt.Sprintf("after round %d:", round+1))
	}

	if err := sys.CheckFilterSafety(); err != nil {
		log.Fatal(err)
	}
	if err := sys.CheckCoherence(); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("Every snoop probed CPU0/CPU3's filters; after the first round their EJs")
	fmt.Println("know the buffer is absent, so the bystanders' L2 tag arrays stay dark —")
	fmt.Println("that is the energy the paper saves. (Safety and MOESI invariants verified.)")
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
