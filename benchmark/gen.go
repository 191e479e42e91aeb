package main

import (
	"encoding/json"
	"math/rand"

	gdp "repro"
)

// The program under test only ever sees generated inputs. Everything random
// about them — trace seeds, workload draws, request order — derives from the
// run's -seed through deriveSeed, so the same seed gives the same inputs and
// a different seed gives different ones.

// Seed streams: one per use, so adding an operation to one workload never
// shifts the seeds of another.
const (
	streamSimOp = iota + 1
	streamServeBody
	streamServeOrder
	streamSweepGrid
	streamProbe
)

// deriveSeed mixes (seed, stream, index) with splitmix64 into a positive
// 31-bit seed (small enough that the simulator's per-core and per-cell seed
// arithmetic never overflows).
func deriveSeed(seed int64, stream, index int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9 + uint64(index)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x&0x7fffffff) + 1
}

var serveTechniques = []string{"GDP", "GDP-O", "ITCA", "PTCA", "ASM"}

// Sizes of one serve operation: small enough that the wrapper is a visible
// share of the round trip, large enough to run several accounting intervals.
const (
	serveCores        = 2
	serveInstructions = 1500
	serveInterval     = 1000
)

// estimateRequests generates n distinct estimate requests: the scenario
// rotates over the whole registry and the technique over all five (8 and 5
// are coprime, so 40 consecutive requests cover every pairing), each with its
// own trace seed, in a seed-derived order.
func estimateRequests(seed int64, n int) []gdp.EstimateRequest {
	scenarios := gdp.ScenarioNames()
	reqs := make([]gdp.EstimateRequest, n)
	for i := range reqs {
		reqs[i] = gdp.EstimateRequest{
			Cores:               serveCores,
			Scenario:            scenarios[i%len(scenarios)],
			Technique:           serveTechniques[i%len(serveTechniques)],
			InstructionsPerCore: serveInstructions,
			IntervalCycles:      serveInterval,
			Seed:                deriveSeed(seed, streamServeBody, i),
		}
	}
	rng := rand.New(rand.NewSource(deriveSeed(seed, streamServeOrder, 0)))
	rng.Shuffle(n, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// encodeBodies pre-encodes requests so that the timed path of a client is
// send, wait, read.
func encodeBodies(reqs []gdp.EstimateRequest) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i := range reqs {
		raw, err := json.Marshal(&reqs[i])
		if err != nil {
			return nil, err
		}
		out[i] = raw
	}
	return out, nil
}

// The sweep grid of sweep_cold and sweep_recall: 24 accuracy cells (cores x
// mixes x PRB sizes), 6 partitioning cells (cores x mixes) and 8 scenario
// cells (cores x bursty x PRB sizes) = 38 cells. Mixes is set explicitly: a
// grid that names scenarios gets no default mixes.
const (
	sweepInstructions = 1500
	sweepInterval     = 1000
	sweepWarmup       = 4
	sweepCells        = 38
)

func sweepGrid(seed int64) gdp.SweepOptions {
	return gdp.SweepOptions{
		CoreCounts:          []int{2, 4},
		Mixes:               []gdp.MixKind{gdp.MixH, gdp.MixM, gdp.MixL},
		PRBSizes:            []int{4, 8, 16, 32},
		Policies:            []string{"LRU", "UCP", "MCP"},
		Scenarios:           []string{"bursty"},
		Workloads:           1,
		InstructionsPerCore: sweepInstructions,
		IntervalCycles:      sweepInterval,
		Seed:                deriveSeed(seed, streamSweepGrid, 0),
		WarmupIntervals:     sweepWarmup,
	}
}
