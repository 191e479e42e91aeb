// Command scenarios demonstrates the workload scenario subsystem: it lists
// the registry, runs one scenario through Engine.RunScenario, reruns it with
// the same seed and verifies the two results are byte-identical — every
// instruction stream is a pure function of (profile, seed), so a scenario
// name plus a seed is the whole reproducible artifact.
package main

import (
	"bytes"
	"context"
	"encoding/json"
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

	fmt.Println("scenario registry:")
	for _, sc := range engine.Scenarios() {
		fmt.Printf("  %-16s [%s] %s\n", sc.Name, sc.Class, sc.Description)
	}

	const name = "pointer-chase"
	opts := gdp.ScenarioRunOptions{
		Cores:               2,
		InstructionsPerCore: 3000,
		IntervalCycles:      2000,
		Seed:                7,
	}
	first, err := engine.RunScenario(ctx, name, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrun of %q (%d cores, %d cycles):\n", name, opts.Cores, first.Cycles)
	for _, ce := range first.Cores {
		fmt.Printf("  core %d (%s): shared CPI=%.3f  estimated private CPI=%.3f  slowdown=%.2fx\n",
			ce.Core, ce.Benchmark, ce.SharedCPI, ce.EstimatedPrivateCPI, ce.EstimatedSlowdown)
	}

	second, err := engine.RunScenario(ctx, name, opts)
	if err != nil {
		log.Fatal(err)
	}
	firstJSON, err := json.Marshal(first)
	if err != nil {
		log.Fatal(err)
	}
	secondJSON, err := json.Marshal(second)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(firstJSON, secondJSON) {
		log.Fatalf("rerun diverged:\nfirst:  %s\nsecond: %s", firstJSON, secondJSON)
	}
	fmt.Println("\nrerun with the same seed is byte-identical")
}
