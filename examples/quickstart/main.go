// Command quickstart is the smallest end-to-end use of the library: it
// constructs a gdp.Engine, builds a 2-core workload, attaches the GDP-O
// accounting technique and *streams* the shared-mode simulation — every
// measurement interval is printed the moment it completes, with the
// shared-mode CPI next to GDP-O's estimate of the interference-free CPI.
package main

import (
	"context"
	"fmt"
	"log"

	gdp "repro"
)

func main() {
	ctx := context.Background()
	engine, err := gdp.NewEngine()
	if err != nil {
		log.Fatal(err)
	}
	cfg := gdp.ScaledConfig(2)

	// Two memory-intensive benchmarks that fight for the shared LLC.
	omnetpp, err := gdp.BenchmarkByName("omnetpp")
	if err != nil {
		log.Fatal(err)
	}
	lbm, err := gdp.BenchmarkByName("lbm")
	if err != nil {
		log.Fatal(err)
	}
	wl := gdp.Workload{ID: "quickstart", Benchmarks: []gdp.Benchmark{omnetpp, lbm}}

	acct, err := gdp.NewGDPO(cfg.Cores, 32)
	if err != nil {
		log.Fatal(err)
	}

	// Stream the run: records arrive while the simulation advances, nothing
	// is accumulated in memory.
	fmt.Printf("%-6s %-10s %-12s %-12s %-8s %s\n", "core", "bench", "shared CPI", "GDP-O CPI", "CPL", "lambda")
	seq, result := engine.Stream(ctx, gdp.SimOptions{
		Config:              cfg,
		Workload:            wl,
		InstructionsPerCore: 10000,
		IntervalCycles:      5000,
		Seed:                1,
		Accountants:         []gdp.Accountant{acct},
	})
	for rec, err := range seq {
		if err != nil {
			log.Fatal(err)
		}
		if rec.Shared.Instructions == 0 {
			continue
		}
		est := rec.Estimates["GDP-O"]
		fmt.Printf("%-6d %-10s %-12.3f %-12.3f %-8d %.1f\n",
			rec.Core, wl.Benchmarks[rec.Core].Name, rec.Shared.CPI(), est.PrivateCPI, est.CPL, est.PrivateLatency)
	}
	res, err := result()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated %d cycles\n", res.Cycles)

	// Ground truth: run each benchmark alone and compare whole-sample CPIs.
	fmt.Println("\nwhole-sample comparison (shared vs actual private):")
	for core, bench := range wl.Benchmarks {
		priv, err := engine.RunPrivate(ctx, cfg, bench, res.SamplePoints[core], gdp.CoreSeed(1, core), 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s shared CPI=%.3f  private CPI=%.3f  slowdown=%.2fx\n",
			bench.Name, res.SampleStats[core].CPI(), priv.Total.CPI(),
			res.SampleStats[core].CPI()/priv.Total.CPI())
	}
}
