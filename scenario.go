package gdp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TraceInstruction is one element of an instruction stream.
type TraceInstruction = trace.Instruction

// CoreSeed derives the per-core trace seed Engine.Run uses for core i of a
// run with the given base seed: a benchmark generator built with it yields
// exactly the stream the run feeds that core.
func CoreSeed(seed int64, core int) int64 { return sim.CoreSeed(seed, core) }

// RecordTrace writes the next n instructions of gen to w as fixed-size
// little-endian records, one per instruction. name only labels errors.
//
// Deprecated: trace record/replay was removed. A generator's stream is a pure
// function of (profile, seed), so a recording holds nothing the seed does not;
// rebuild the generator instead. RecordTrace and NewTraceReplayer remain only
// for the benchmark ledger.
func RecordTrace(w io.Writer, name string, gen *trace.Generator, n int) error {
	if n < 1 {
		return fmt.Errorf("gdp: cannot record %d instructions", n)
	}
	if err := binary.Write(w, binary.LittleEndian, gen.Generate(n)); err != nil {
		return fmt.Errorf("gdp: recording trace %q: %w", name, err)
	}
	return nil
}

// TraceReplayer plays back a RecordTrace recording, wrapping at its end.
//
// Deprecated: see RecordTrace.
type TraceReplayer struct {
	insts []TraceInstruction
	pos   int
}

// NewTraceReplayer reads a complete RecordTrace recording from r. An empty
// input, or one that is not a whole number of records, is an error.
//
// Deprecated: see RecordTrace.
func NewTraceReplayer(r io.Reader) (*TraceReplayer, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("gdp: reading trace: %w", err)
	}
	size := binary.Size(TraceInstruction{})
	if len(data) == 0 || len(data)%size != 0 {
		return nil, fmt.Errorf("gdp: trace of %d bytes is not a whole number of %d-byte records", len(data), size)
	}
	insts := make([]TraceInstruction, len(data)/size)
	if err := binary.Read(bytes.NewReader(data), binary.LittleEndian, insts); err != nil {
		return nil, fmt.Errorf("gdp: decoding trace: %w", err)
	}
	return &TraceReplayer{insts: insts}, nil
}

// Next returns the next recorded instruction, wrapping at the end.
func (p *TraceReplayer) Next() TraceInstruction {
	if p.pos == len(p.insts) {
		p.pos = 0
	}
	inst := p.insts[p.pos]
	p.pos++
	return inst
}

// Scenario types. Scenarios are named workload patterns beyond the paper's
// H/M/L mixes, assembled deterministically from purpose-built trace profiles.
type (
	// Scenario is one named workload pattern from the registry.
	Scenario = workload.Scenario
	// UnknownScenarioError reports a scenario name missing from the registry;
	// the HTTP layer surfaces it as 400.
	UnknownScenarioError = workload.UnknownScenarioError
)

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string { return workload.ScenarioNames() }

// ScenarioByName returns the named scenario, or an *UnknownScenarioError.
func ScenarioByName(name string) (Scenario, error) { return workload.ScenarioByName(name) }

// Scenarios returns the scenario registry, sorted by name.
func (e *Engine) Scenarios() []Scenario { return workload.Scenarios() }
