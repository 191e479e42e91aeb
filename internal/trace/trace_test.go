package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func validParams() Params {
	return Params{
		LoadFrac:        0.25,
		StoreFrac:       0.1,
		FPFrac:          0.2,
		FPMulFrac:       0.3,
		IntMulFrac:      0.05,
		BranchFrac:      0.1,
		MispredictRate:  0.02,
		LoadDepFrac:     0.3,
		DepDistanceMean: 4,
		WorkingSets: []WorkingSet{
			{Bytes: 4 << 10, AccessProb: 0.6, Sequential: false},
			{Bytes: 256 << 10, AccessProb: 0.4, Sequential: true, Stride: 64},
		},
	}
}

func TestValidateAcceptsGoodParams(t *testing.T) {
	p := validParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"negative load frac", func(p *Params) { p.LoadFrac = -0.1 }},
		{"load frac > 1", func(p *Params) { p.LoadFrac = 1.5 }},
		{"mix exceeds 1", func(p *Params) { p.LoadFrac, p.StoreFrac, p.BranchFrac = 0.5, 0.4, 0.3 }},
		{"no working sets", func(p *Params) { p.WorkingSets = nil }},
		{"tiny working set", func(p *Params) { p.WorkingSets[0].Bytes = 8 }},
		{"negative ws prob", func(p *Params) { p.WorkingSets[0].AccessProb = -1 }},
		{"zero total prob", func(p *Params) {
			for i := range p.WorkingSets {
				p.WorkingSets[i].AccessProb = 0
			}
		}},
		{"dep distance < 1", func(p *Params) { p.DepDistanceMean = 0 }},
		{"bad mispredict rate", func(p *Params) { p.MispredictRate = 2 }},
		{"compute phase scale above one", func(p *Params) { p.PhaseLength, p.ComputePhaseScale = 1000, 3 }},
		{"negative compute phase scale", func(p *Params) { p.PhaseLength, p.ComputePhaseScale = 1000, -0.5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validParams()
			tc.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate accepted %s", tc.name)
			}
		})
	}
}

func TestNewGeneratorRejectsInvalid(t *testing.T) {
	p := validParams()
	p.LoadFrac = 7
	if _, err := NewGenerator(p, 1); err == nil {
		t.Error("NewGenerator accepted invalid params")
	}
}

func TestDeterminism(t *testing.T) {
	g1, err := NewGenerator(validParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(validParams(), 42)
	a := g1.Generate(5000)
	b := g2.Generate(5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	g1, _ := NewGenerator(validParams(), 1)
	g2, _ := NewGenerator(validParams(), 2)
	a := g1.Generate(2000)
	b := g2.Generate(2000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}

func TestInstructionMixApproximatesParams(t *testing.T) {
	p := validParams()
	g, _ := NewGenerator(p, 7)
	const n = 50000
	counts := map[Kind]int{}
	for i := 0; i < n; i++ {
		counts[g.Next().Kind]++
	}
	loadFrac := float64(counts[Load]) / n
	if math.Abs(loadFrac-p.LoadFrac) > 0.05 {
		t.Errorf("load fraction = %v, want about %v", loadFrac, p.LoadFrac)
	}
	branchFrac := float64(counts[Branch]) / n
	if math.Abs(branchFrac-p.BranchFrac) > 0.05 {
		t.Errorf("branch fraction = %v, want about %v", branchFrac, p.BranchFrac)
	}
	if counts[FPOp]+counts[FPMul] == 0 {
		t.Error("expected some FP instructions")
	}
}

func TestAddressesStayInWorkingSets(t *testing.T) {
	p := validParams()
	g, _ := NewGenerator(p, 3)
	for i := 0; i < 20000; i++ {
		inst := g.Next()
		if !inst.Kind.IsMem() {
			continue
		}
		region := inst.Addr >> 40
		if region == 0 || region > uint64(len(p.WorkingSets)) {
			t.Fatalf("address %#x outside any working-set region", inst.Addr)
		}
		offset := inst.Addr & ((1 << 22) - 1)
		ws := p.WorkingSets[region-1]
		if offset >= uint64(ws.Bytes) {
			t.Fatalf("address %#x beyond working set %d size %d", inst.Addr, region-1, ws.Bytes)
		}
	}
}

func TestAddressesAreLineAligned(t *testing.T) {
	g, _ := NewGenerator(validParams(), 9)
	for i := 0; i < 5000; i++ {
		inst := g.Next()
		if inst.Kind.IsMem() && inst.Addr%64 != 0 {
			t.Fatalf("address %#x not line aligned", inst.Addr)
		}
	}
}

func TestDependencyDistancesPositiveAndBounded(t *testing.T) {
	g, _ := NewGenerator(validParams(), 11)
	for i := 0; i < 20000; i++ {
		inst := g.Next()
		if inst.Dep1 < 0 || inst.Dep1 > 64 || inst.Dep2 < 0 || inst.Dep2 > 64 {
			t.Fatalf("dependency distance out of range: %+v", inst)
		}
	}
}

func TestPointerChasingIncreasesLoadDependencies(t *testing.T) {
	chase := validParams()
	chase.LoadDepFrac = 0.95
	indep := validParams()
	indep.LoadDepFrac = 0.0

	depFrac := func(p Params) float64 {
		g, _ := NewGenerator(p, 21)
		insts := g.Generate(30000)
		loads, depOnLoad := 0, 0
		for i, inst := range insts {
			if inst.Kind != Load {
				continue
			}
			loads++
			d := int(inst.Dep1)
			if d > 0 && i-d >= 0 && insts[i-d].Kind == Load {
				depOnLoad++
			}
		}
		if loads == 0 {
			return 0
		}
		return float64(depOnLoad) / float64(loads)
	}
	if chaseFrac, indepFrac := depFrac(chase), depFrac(indep); chaseFrac <= indepFrac+0.2 {
		t.Errorf("pointer chasing params should yield many load->load deps: chase=%v indep=%v", chaseFrac, indepFrac)
	}
}

func TestComputePhaseSuppressesMemory(t *testing.T) {
	p := validParams()
	p.PhaseLength = 5000
	p.ComputePhaseScale = 0.05
	g, _ := NewGenerator(p, 5)
	memByPhase := [2]int{}
	totalByPhase := [2]int{}
	for i := 0; i < 40000; i++ {
		phase := (i / 5000) % 2
		inst := g.Next()
		totalByPhase[phase]++
		if inst.Kind.IsMem() {
			memByPhase[phase]++
		}
	}
	memFrac0 := float64(memByPhase[0]) / float64(totalByPhase[0])
	memFrac1 := float64(memByPhase[1]) / float64(totalByPhase[1])
	if memFrac1 >= memFrac0*0.7 {
		t.Errorf("compute phase should have far fewer memory ops: phase0=%v phase1=%v", memFrac0, memFrac1)
	}
}

func TestStoreBursts(t *testing.T) {
	p := validParams()
	p.StoreBurstLen = 32
	p.StoreBurstGap = 500
	g, _ := NewGenerator(p, 13)
	maxRun, run := 0, 0
	for i := 0; i < 20000; i++ {
		if g.Next().Kind == Store {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if maxRun < 16 {
		t.Errorf("expected store bursts of at least 16, got max run %d", maxRun)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{IntOp: "int", IntMul: "imul", FPOp: "fp", FPMul: "fmul", Load: "load", Store: "store", Branch: "branch"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestIsMem(t *testing.T) {
	if !Load.IsMem() || !Store.IsMem() {
		t.Error("loads and stores are memory instructions")
	}
	if IntOp.IsMem() || Branch.IsMem() || FPMul.IsMem() {
		t.Error("non-memory kinds misclassified")
	}
}

func TestExecLatencyPositive(t *testing.T) {
	for _, k := range []Kind{IntOp, IntMul, FPOp, FPMul, Load, Store, Branch, Kind(50)} {
		if ExecLatency(k) < 1 {
			t.Errorf("ExecLatency(%v) = %d, want >= 1", k, ExecLatency(k))
		}
	}
	if ExecLatency(FPMul) <= ExecLatency(FPOp) {
		t.Error("FP multiply should be slower than FP add")
	}
}

func TestGenerateLength(t *testing.T) {
	g, _ := NewGenerator(validParams(), 17)
	if got := len(g.Generate(123)); got != 123 {
		t.Errorf("Generate(123) returned %d instructions", got)
	}
}

func TestGeneratorPropertyNoPanics(t *testing.T) {
	f := func(seed int64, loadF, storeF, depF uint8) bool {
		p := validParams()
		p.LoadFrac = float64(loadF%60) / 100
		p.StoreFrac = float64(storeF%30) / 100
		p.LoadDepFrac = float64(depF%100) / 100
		g, err := NewGenerator(p, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			inst := g.Next()
			if inst.Kind.IsMem() && inst.Addr == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDifferentSeedsUseDisjointAddressSpaces(t *testing.T) {
	g1, _ := NewGenerator(validParams(), 100)
	g2, _ := NewGenerator(validParams(), 200)
	addrs1 := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		if inst := g1.Next(); inst.Kind.IsMem() {
			addrs1[inst.Addr&^63] = true
		}
	}
	for i := 0; i < 5000; i++ {
		inst := g2.Next()
		if inst.Kind.IsMem() && addrs1[inst.Addr&^63] {
			t.Fatalf("seed-200 trace touches a line also used by the seed-100 trace: %#x", inst.Addr)
		}
	}
}
