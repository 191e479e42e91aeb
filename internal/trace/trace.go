// Package trace generates deterministic synthetic instruction streams that
// stand in for the SPEC CPU2000/2006 samples used in the GDP paper. Each
// stream is produced from a Params description that controls the instruction
// mix, the memory working sets, the dependency structure (and hence the
// memory-level parallelism and dataflow critical path) and phase behaviour.
package trace

import (
	"fmt"
	"math/rand"
	"slices"
)

// Kind enumerates the instruction classes the core model distinguishes.
type Kind uint8

const (
	// IntOp is a single-cycle integer ALU operation.
	IntOp Kind = iota
	// IntMul is a multi-cycle integer multiply/divide.
	IntMul
	// FPOp is a pipelined floating-point add/compare.
	FPOp
	// FPMul is a multi-cycle floating-point multiply/divide.
	FPMul
	// Load reads memory.
	Load
	// Store writes memory (retires through the store buffer).
	Store
	// Branch is a conditional branch; a fraction mispredict and flush.
	Branch
)

// String returns a short mnemonic for the instruction kind.
func (k Kind) String() string {
	switch k {
	case IntOp:
		return "int"
	case IntMul:
		return "imul"
	case FPOp:
		return "fp"
	case FPMul:
		return "fmul"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// IsMem reports whether the instruction accesses data memory.
func (k Kind) IsMem() bool { return k == Load || k == Store }

// Instruction is one element of a synthetic trace. Dependencies are encoded
// as backwards distances in program order; a distance of zero means "no
// dependency". Mispredicted carries the branch-predictor outcome so that the
// core model does not need its own predictor state.
type Instruction struct {
	Kind         Kind
	Addr         uint64
	Dep1         int32
	Dep2         int32
	Mispredicted bool
}

// Params describes the statistical properties of a synthetic benchmark.
// The zero value is not useful; use workload.Benchmark profiles or fill in
// every field. All fractions are in [0,1].
type Params struct {
	// Instruction mix.
	LoadFrac       float64
	StoreFrac      float64
	FPFrac         float64 // fraction of non-memory instructions that are FP
	FPMulFrac      float64 // fraction of FP instructions that are multiply/divide
	IntMulFrac     float64 // fraction of integer instructions that are multiply/divide
	BranchFrac     float64
	MispredictRate float64

	// Memory behaviour. Working-set sizes are in bytes; AccessProb gives the
	// probability that a data access falls in the corresponding working set.
	// The generator walks each working set with a mix of sequential and
	// random reuse so that stack-distance profiles are well defined.
	WorkingSets []WorkingSet

	// Dependency structure.
	// LoadDepFrac is the probability that a load's address depends on an
	// earlier load (pointer chasing); high values serialize loads and produce
	// a long dataflow critical path, low values produce high MLP.
	LoadDepFrac float64
	// DepDistanceMean is the mean backwards distance (in instructions) of
	// register dependencies.
	DepDistanceMean float64

	// Phase behaviour: when PhaseLength > 0 the generator alternates between
	// the nominal memory intensity and a compute-bound phase in which memory
	// instructions are suppressed by ComputePhaseScale.
	PhaseLength       int
	ComputePhaseScale float64

	// StoreBurst injects bursts of stores (facerec-like store-bound phases).
	StoreBurstLen int
	StoreBurstGap int
}

// WorkingSet describes one region of memory the benchmark touches.
type WorkingSet struct {
	Bytes      int
	AccessProb float64
	Stride     int  // access stride in bytes; 0 means random within the set
	Sequential bool // true: streaming walk; false: reuse with random offsets
}

// Validate reports the first inconsistency in the parameters.
func (p *Params) Validate() error {
	frac := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("trace: %s = %v out of [0,1]", name, v)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"LoadFrac", p.LoadFrac}, {"StoreFrac", p.StoreFrac}, {"FPFrac", p.FPFrac},
		{"FPMulFrac", p.FPMulFrac}, {"IntMulFrac", p.IntMulFrac},
		{"BranchFrac", p.BranchFrac}, {"MispredictRate", p.MispredictRate},
		{"LoadDepFrac", p.LoadDepFrac}, {"ComputePhaseScale", p.ComputePhaseScale},
	} {
		if err := frac(c.name, c.v); err != nil {
			return err
		}
	}
	if p.LoadFrac+p.StoreFrac+p.BranchFrac > 1 {
		return fmt.Errorf("trace: load+store+branch fractions exceed 1 (%v)",
			p.LoadFrac+p.StoreFrac+p.BranchFrac)
	}
	if len(p.WorkingSets) == 0 {
		return fmt.Errorf("trace: at least one working set is required")
	}
	var totalProb float64
	for i, ws := range p.WorkingSets {
		if ws.Bytes < 64 {
			return fmt.Errorf("trace: working set %d smaller than a cache line", i)
		}
		if ws.AccessProb < 0 {
			return fmt.Errorf("trace: working set %d has negative access probability", i)
		}
		totalProb += ws.AccessProb
	}
	if totalProb <= 0 {
		return fmt.Errorf("trace: working-set access probabilities sum to zero")
	}
	if p.DepDistanceMean < 1 {
		return fmt.Errorf("trace: DepDistanceMean must be at least 1")
	}
	return nil
}

// Generator produces an infinite deterministic instruction stream.
type Generator struct {
	params Params
	rng    *rand.Rand

	// cumulative access probabilities for the working sets
	cumProb []float64
	// per-working-set walk state
	cursor []uint64
	base   []uint64

	index        uint64 // instructions generated so far
	lastLoadDist uint64 // distance back to the most recent load
	storeBurst   int    // remaining instructions in the current store burst
	sinceBurst   int
}

// NewGenerator creates a generator for the given parameters and seed. The
// same (params, seed) pair always produces the same stream.
func NewGenerator(params Params, seed int64) (*Generator, error) {
	g := &Generator{rng: rand.New(rand.NewSource(seed))}
	if err := g.Reset(params, seed); err != nil {
		return nil, err
	}
	return g, nil
}

// Reset restarts g on the stream NewGenerator(params, seed) yields, reusing
// its random source (re-seeded in place) and its per-working-set slices. An
// invalid params leaves g as it was.
func (g *Generator) Reset(params Params, seed int64) error {
	if err := params.Validate(); err != nil {
		return err
	}
	n := len(params.WorkingSets)
	*g = Generator{
		params:  params,
		rng:     g.rng,
		cumProb: slices.Grow(g.cumProb[:0], n)[:n],
		cursor:  slices.Grow(g.cursor[:0], n)[:n],
		base:    slices.Grow(g.base[:0], n)[:n],
	}
	g.rng.Seed(seed)
	clear(g.cursor)
	var total float64
	for _, ws := range params.WorkingSets {
		total += ws.AccessProb
	}
	var cum float64
	for i, ws := range params.WorkingSets {
		cum += ws.AccessProb / total
		g.cumProb[i] = cum
		// Give each working set a distinct, widely separated base address so
		// regions never alias in the caches, and fold the seed into the base
		// so that traces generated with different seeds (different cores of a
		// multi-programmed workload) live in disjoint address spaces, as
		// separate processes would.
		g.base[i] = (uint64(i)+1)<<40 | uint64(uint16(seed))<<22
	}
	return nil
}

// inComputePhase reports whether the current index falls in a compute-bound
// phase of a phased benchmark.
func (g *Generator) inComputePhase() bool {
	if g.params.PhaseLength <= 0 {
		return false
	}
	return (g.index/uint64(g.params.PhaseLength))%2 == 1
}

// nextAddr picks the next data address.
func (g *Generator) nextAddr() uint64 {
	r := g.rng.Float64()
	idx := len(g.params.WorkingSets) - 1
	for i, c := range g.cumProb {
		if r <= c {
			idx = i
			break
		}
	}
	ws := &g.params.WorkingSets[idx]
	lines := uint64(ws.Bytes / 64)
	if lines == 0 {
		lines = 1
	}
	var line uint64
	if ws.Sequential {
		stride := uint64(1)
		if ws.Stride > 0 {
			stride = uint64(ws.Stride / 64)
			if stride == 0 {
				stride = 1
			}
		}
		g.cursor[idx] = (g.cursor[idx] + stride) % lines
		line = g.cursor[idx]
	} else {
		line = uint64(g.rng.Int63n(int64(lines)))
	}
	return g.base[idx] + line*64
}

// depDistance draws a register-dependency distance (>= 1).
func (g *Generator) depDistance() int32 {
	mean := g.params.DepDistanceMean
	d := 1 + int32(float64(g.rng.ExpFloat64()*(mean-1))+0.5) // rounded, not fused (make fma-check)
	if d < 1 {
		d = 1
	}
	if d > 64 {
		d = 64
	}
	return d
}

// Next returns the next instruction in the stream. The stream counters
// (index, sinceBurst, lastLoadDist) advance before the draws, which read the
// values from before this instruction; a load or a burst start restarts its
// counter at 1, counting itself.
func (g *Generator) Next() Instruction {
	p := &g.params
	loadFrac, storeFrac := p.LoadFrac, p.StoreFrac
	if g.inComputePhase() {
		loadFrac *= p.ComputePhaseScale
		storeFrac *= p.ComputePhaseScale
	}
	sinceBurst, lastLoadDist := g.sinceBurst, g.lastLoadDist
	g.index++
	g.sinceBurst++
	g.lastLoadDist++

	// Store bursts override the nominal mix.
	if p.StoreBurstLen > 0 {
		if g.storeBurst > 0 {
			g.storeBurst--
			return Instruction{Kind: Store, Addr: g.nextAddr(), Dep1: g.depDistance()}
		}
		if sinceBurst >= p.StoreBurstGap && p.StoreBurstGap > 0 {
			g.sinceBurst = 1
			g.storeBurst = p.StoreBurstLen - 1
			return Instruction{Kind: Store, Addr: g.nextAddr(), Dep1: g.depDistance()}
		}
	}

	r := g.rng.Float64()
	switch {
	case r < loadFrac:
		inst := Instruction{Kind: Load, Addr: g.nextAddr()}
		if g.rng.Float64() < p.LoadDepFrac && lastLoadDist > 0 && lastLoadDist <= 64 {
			// Pointer-chasing: the load's address depends on the previous load.
			inst.Dep1 = int32(lastLoadDist)
		} else {
			inst.Dep1 = g.depDistance()
		}
		g.lastLoadDist = 1
		return inst
	case r < loadFrac+storeFrac:
		return Instruction{Kind: Store, Addr: g.nextAddr(), Dep1: g.depDistance(), Dep2: g.depDistance()}
	case r < loadFrac+storeFrac+p.BranchFrac:
		return Instruction{
			Kind:         Branch,
			Dep1:         g.depDistance(),
			Mispredicted: g.rng.Float64() < p.MispredictRate,
		}
	default:
		kind := IntOp
		if g.rng.Float64() < p.FPFrac {
			kind = FPOp
			if g.rng.Float64() < p.FPMulFrac {
				kind = FPMul
			}
		} else if g.rng.Float64() < p.IntMulFrac {
			kind = IntMul
		}
		return Instruction{Kind: kind, Dep1: g.depDistance(), Dep2: g.depDistance()}
	}
}

// Generate returns the next n instructions as a slice.
func (g *Generator) Generate(n int) []Instruction {
	out := make([]Instruction, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// execLatency is ExecLatency's table. A lookup, not a switch: the
// instruction mix makes a switch's branches unpredictable.
var execLatency = [...]uint8{
	IntOp: 1, Branch: 1,
	IntMul: 6,
	FPOp:   3,
	FPMul:  8,
	Load:   1, Store: 1, // address generation; memory latency is added by the memory system
}

// ExecLatency returns the execution latency in cycles of an instruction kind
// on the modeled functional units (1 for an unknown kind).
func ExecLatency(k Kind) int {
	if int(k) < len(execLatency) {
		return int(execLatency[k])
	}
	return 1
}
