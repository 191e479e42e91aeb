package workload

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSuiteHas52Benchmarks(t *testing.T) {
	suite := Suite()
	if len(suite) != 52 {
		t.Fatalf("suite size = %d, want 52", len(suite))
	}
	names := map[string]bool{}
	for _, b := range suite {
		if names[b.Name] {
			t.Errorf("duplicate benchmark name %q", b.Name)
		}
		names[b.Name] = true
		if err := b.Params.Validate(); err != nil {
			t.Errorf("benchmark %s has invalid params: %v", b.Name, err)
		}
		if b.Suite != "SPEC2000" && b.Suite != "SPEC2006" {
			t.Errorf("benchmark %s has unexpected suite %q", b.Name, b.Suite)
		}
	}
}

func TestPaperClassMembership(t *testing.T) {
	// Footnote 5 of the paper: high-sensitivity benchmarks.
	high := []string{"apsi", "facerec", "galgel", "ammp", "art", "omnetpp", "lbm", "sphinx3"}
	// Footnote 6: medium-sensitivity benchmarks.
	medium := []string{"equake", "twolf", "parser", "vpr", "gromacs", "astar", "bzip2", "hmmer"}
	for _, name := range high {
		b, err := ByName(name)
		if err != nil {
			t.Fatalf("missing benchmark %s: %v", name, err)
		}
		if b.Class != HighSensitivity {
			t.Errorf("%s class = %v, want H", name, b.Class)
		}
	}
	for _, name := range medium {
		b, err := ByName(name)
		if err != nil {
			t.Fatalf("missing benchmark %s: %v", name, err)
		}
		if b.Class != MediumSensitivity {
			t.Errorf("%s class = %v, want M", name, b.Class)
		}
	}
	if len(suiteByClass()[HighSensitivity]) != 8 {
		t.Errorf("H class size = %d, want 8", len(suiteByClass()[HighSensitivity]))
	}
	if len(suiteByClass()[MediumSensitivity]) != 8 {
		t.Errorf("M class size = %d, want 8", len(suiteByClass()[MediumSensitivity]))
	}
	if len(suiteByClass()[LowSensitivity]) != 52-16 {
		t.Errorf("L class size = %d, want 36", len(suiteByClass()[LowSensitivity]))
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("no-such-benchmark"); err == nil {
		t.Error("ByName should reject unknown benchmarks")
	}
}

func TestClassString(t *testing.T) {
	if HighSensitivity.String() != "H" || MediumSensitivity.String() != "M" || LowSensitivity.String() != "L" {
		t.Error("unexpected class names")
	}
}

func TestBenchmarkGeneratorDeterminism(t *testing.T) {
	b, err := ByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	g1, err := b.NewGenerator(5)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := b.NewGenerator(5)
	for i := 0; i < 1000; i++ {
		if g1.Next() != g2.Next() {
			t.Fatal("benchmark generator not deterministic")
		}
	}
}

func TestGenerateSingleClassWorkloads(t *testing.T) {
	for _, cores := range []int{2, 4, 8} {
		for _, mix := range []MixKind{MixH, MixM, MixL} {
			ws, err := Generate(GenerateOptions{Cores: cores, Mix: mix, Count: 5, Seed: 11})
			if err != nil {
				t.Fatalf("Generate(%dc %s): %v", cores, mix, err)
			}
			if len(ws) != 5 {
				t.Fatalf("got %d workloads", len(ws))
			}
			wantClass := map[MixKind]Class{MixH: HighSensitivity, MixM: MediumSensitivity, MixL: LowSensitivity}[mix]
			for _, w := range ws {
				if w.Cores() != cores {
					t.Errorf("workload %s has %d cores, want %d", w.ID, w.Cores(), cores)
				}
				for _, b := range w.Benchmarks {
					if b.Class != wantClass {
						t.Errorf("workload %s contains %s of class %v, want %v", w.ID, b.Name, b.Class, wantClass)
					}
				}
			}
		}
	}
}

func TestGenerateRespectsReuseLimit(t *testing.T) {
	// 4-core workloads must not repeat a benchmark (paper footnote 7).
	ws, err := Generate(GenerateOptions{Cores: 4, Mix: MixH, Count: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		seen := map[string]int{}
		for _, b := range w.Benchmarks {
			seen[b.Name]++
			if seen[b.Name] > 1 {
				t.Errorf("4-core workload %s reuses %s", w.ID, b.Name)
			}
		}
	}
	// 8-core H workloads may use each benchmark at most twice.
	ws8, err := Generate(GenerateOptions{Cores: 8, Mix: MixH, Count: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws8 {
		seen := map[string]int{}
		for _, b := range w.Benchmarks {
			seen[b.Name]++
			if seen[b.Name] > 2 {
				t.Errorf("8-core workload %s uses %s more than twice", w.ID, b.Name)
			}
		}
	}
}

func TestGenerateRejectsImpossibleRequests(t *testing.T) {
	// 16 H slots with at most one use of each of 8 H benchmarks is impossible.
	if _, err := Generate(GenerateOptions{Cores: 16, Mix: MixH, Count: 1, Seed: 1, MaxUsesPerBenchmark: 1}); err == nil {
		t.Error("expected error for unsatisfiable workload request")
	}
	if _, err := Generate(GenerateOptions{Cores: 0, Mix: MixH, Count: 1, Seed: 1}); err == nil {
		t.Error("expected error for zero cores")
	}
	if _, err := Generate(GenerateOptions{Cores: 4, Mix: MixH, Count: 0, Seed: 1}); err == nil {
		t.Error("expected error for zero count")
	}
}

func TestGenerateDeterministicAcrossCalls(t *testing.T) {
	a, _ := Generate(GenerateOptions{Cores: 4, Mix: MixH, Count: 10, Seed: 99})
	b, _ := Generate(GenerateOptions{Cores: 4, Mix: MixH, Count: 10, Seed: 99})
	for i := range a {
		if strings.Join(a[i].Names(), ",") != strings.Join(b[i].Names(), ",") {
			t.Fatal("workload generation is not deterministic for a fixed seed")
		}
	}
}

func TestMixedWorkloadPatterns(t *testing.T) {
	countClasses := func(w Workload) map[Class]int {
		out := map[Class]int{}
		for _, b := range w.Benchmarks {
			out[b.Class]++
		}
		return out
	}
	ws, err := Generate(GenerateOptions{Cores: 4, Mix: MixHHML, Count: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		c := countClasses(w)
		if c[HighSensitivity] != 2 || c[MediumSensitivity] != 1 || c[LowSensitivity] != 1 {
			t.Errorf("HHML workload %s has classes %v", w.ID, c)
		}
	}
	ws, _ = Generate(GenerateOptions{Cores: 4, Mix: MixHMML, Count: 5, Seed: 7})
	for _, w := range ws {
		c := countClasses(w)
		if c[HighSensitivity] != 1 || c[MediumSensitivity] != 2 || c[LowSensitivity] != 1 {
			t.Errorf("HMML workload %s has classes %v", w.ID, c)
		}
	}
	ws, _ = Generate(GenerateOptions{Cores: 4, Mix: MixHMLL, Count: 5, Seed: 7})
	for _, w := range ws {
		c := countClasses(w)
		if c[HighSensitivity] != 1 || c[MediumSensitivity] != 1 || c[LowSensitivity] != 2 {
			t.Errorf("HMLL workload %s has classes %v", w.ID, c)
		}
	}
}

func TestWorkloadIDsUnique(t *testing.T) {
	f := func(seed int64) bool {
		ws, err := Generate(GenerateOptions{Cores: 4, Mix: MixM, Count: 8, Seed: seed})
		if err != nil {
			return false
		}
		ids := map[string]bool{}
		for _, w := range ws {
			if ids[w.ID] {
				return false
			}
			ids[w.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMixKindString(t *testing.T) {
	tests := []struct {
		mix  MixKind
		want string
	}{
		{MixH, "H"},
		{MixM, "M"},
		{MixL, "L"},
		{MixHHML, "HHML"},
		{MixHMML, "HMML"},
		{MixHMLL, "HMLL"},
		// Fallback path: out-of-range kinds print their numeric value instead
		// of panicking or aliasing a real mix.
		{MixKind(42), "Mix(42)"},
		{MixKind(-1), "Mix(-1)"},
	}
	for _, tc := range tests {
		if got := tc.mix.String(); got != tc.want {
			t.Errorf("MixKind(%d).String() = %q, want %q", int(tc.mix), got, tc.want)
		}
	}
}

func TestByNameTable(t *testing.T) {
	tests := []struct {
		name      string
		wantErr   bool
		wantClass Class
		wantSuite string
	}{
		{name: "omnetpp", wantClass: HighSensitivity, wantSuite: "SPEC2006"},
		{name: "facerec", wantClass: HighSensitivity, wantSuite: "SPEC2000"},
		{name: "hmmer", wantClass: MediumSensitivity, wantSuite: "SPEC2006"},
		{name: "gzip", wantClass: LowSensitivity, wantSuite: "SPEC2000"},
		{name: "", wantErr: true},
		{name: "OMNETPP", wantErr: true}, // lookup is case-sensitive
		{name: "omnetpp ", wantErr: true},
		{name: "nonexistent", wantErr: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			b, err := ByName(tc.name)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ByName(%q) succeeded", tc.name)
				}
				if !strings.Contains(err.Error(), "unknown benchmark") {
					t.Errorf("error %q does not identify the problem", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if b.Class != tc.wantClass || b.Suite != tc.wantSuite {
				t.Errorf("ByName(%q) = class %v suite %q, want class %v suite %q",
					tc.name, b.Class, b.Suite, tc.wantClass, tc.wantSuite)
			}
		})
	}
}

func TestByClassTable(t *testing.T) {
	tests := []struct {
		class     Class
		wantCount int
	}{
		{HighSensitivity, 8},
		{MediumSensitivity, 8},
		{LowSensitivity, 36},
		// Fallback: a class value outside the enum matches nothing.
		{Class(99), 0},
	}
	for _, tc := range tests {
		t.Run(tc.class.String(), func(t *testing.T) {
			got := suiteByClass()[tc.class]
			if len(got) != tc.wantCount {
				t.Fatalf("suiteByClass()[%v] has %d benchmarks, want %d", tc.class, len(got), tc.wantCount)
			}
			for i := 1; i < len(got); i++ {
				if got[i-1].Name >= got[i].Name {
					t.Fatalf("suiteByClass()[%v] not sorted: %q before %q", tc.class, got[i-1].Name, got[i].Name)
				}
			}
			for _, b := range got {
				if b.Class != tc.class {
					t.Errorf("suiteByClass()[%v] contains %s of class %v", tc.class, b.Name, b.Class)
				}
			}
		})
	}
}
