package config

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperConfigValidates(t *testing.T) {
	for _, cores := range []int{2, 4, 8} {
		cfg := PaperConfig(cores)
		if err := cfg.Validate(); err != nil {
			t.Errorf("PaperConfig(%d) invalid: %v", cores, err)
		}
		if cfg.Cores != cores {
			t.Errorf("PaperConfig(%d).Cores = %d", cores, cfg.Cores)
		}
	}
}

func TestScaledConfigValidates(t *testing.T) {
	for _, cores := range []int{2, 4, 8} {
		cfg := ScaledConfig(cores)
		if err := cfg.Validate(); err != nil {
			t.Errorf("ScaledConfig(%d) invalid: %v", cores, err)
		}
		if cfg.LLC.SizeBytes >= PaperConfig(cores).LLC.SizeBytes {
			t.Errorf("ScaledConfig(%d) LLC not smaller than paper config", cores)
		}
	}
}

func TestPaperConfigTableIParameters(t *testing.T) {
	cfg := PaperConfig(4)
	if cfg.Core.ROBEntries != 128 {
		t.Errorf("ROB = %d, want 128", cfg.Core.ROBEntries)
	}
	if cfg.Core.LSQEntries != 32 {
		t.Errorf("LSQ = %d, want 32", cfg.Core.LSQEntries)
	}
	if cfg.L1D.SizeBytes != 64<<10 || cfg.L1D.Ways != 2 {
		t.Errorf("L1D = %d bytes %d ways, want 64KB 2-way", cfg.L1D.SizeBytes, cfg.L1D.Ways)
	}
	if cfg.L2.SizeBytes != 1<<20 || cfg.L2.Ways != 4 {
		t.Errorf("L2 = %d bytes %d ways, want 1MB 4-way", cfg.L2.SizeBytes, cfg.L2.Ways)
	}
	if cfg.LLC.SizeBytes != 8<<20 || cfg.LLC.Ways != 16 || cfg.LLC.Banks != 4 {
		t.Errorf("LLC = %d bytes %d ways %d banks, want 8MB 16-way 4 banks", cfg.LLC.SizeBytes, cfg.LLC.Ways, cfg.LLC.Banks)
	}
	if cfg.DRAM.Kind != DDR2 || cfg.DRAM.Channels != 1 {
		t.Errorf("DRAM = %v x%d, want DDR2 x1", cfg.DRAM.Kind, cfg.DRAM.Channels)
	}
}

func TestEightCoreDiffersPerTableI(t *testing.T) {
	cfg := PaperConfig(8)
	if cfg.LLC.SizeBytes != 16<<20 {
		t.Errorf("8-core LLC = %d, want 16MB", cfg.LLC.SizeBytes)
	}
	if cfg.L1D.LatencyCyc != 2 {
		t.Errorf("8-core L1 latency = %d, want 2", cfg.L1D.LatencyCyc)
	}
	if cfg.LLC.LatencyCyc != 12 {
		t.Errorf("8-core LLC latency = %d, want 12", cfg.LLC.LatencyCyc)
	}
	if cfg.Ring.RequestRings != 2 {
		t.Errorf("8-core request rings = %d, want 2", cfg.Ring.RequestRings)
	}
}

func TestCacheSets(t *testing.T) {
	c := CacheConfig{SizeBytes: 64 << 10, Ways: 2, LineBytes: 64}
	if got := c.Sets(); got != 512 {
		t.Errorf("Sets() = %d, want 512", got)
	}
	if (CacheConfig{}).Sets() != 0 {
		t.Error("zero config should have zero sets")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*CMPConfig)
	}{
		{"zero cores", func(c *CMPConfig) { c.Cores = 0 }},
		{"tiny ROB", func(c *CMPConfig) { c.Core.ROBEntries = 1 }},
		{"zero LSQ", func(c *CMPConfig) { c.Core.LSQEntries = 0 }},
		{"zero commit width", func(c *CMPConfig) { c.Core.CommitWidth = 0 }},
		{"broken L1D", func(c *CMPConfig) { c.L1D.LineBytes = 0 }},
		{"non-pow2 sets", func(c *CMPConfig) { c.L2.SizeBytes = 3 << 10 }},
		{"zero LLC banks", func(c *CMPConfig) { c.LLC.Banks = 0 }},
		{"zero DRAM channels", func(c *CMPConfig) { c.DRAM.Channels = 0 }},
		{"zero DRAM banks", func(c *CMPConfig) { c.DRAM.BanksPerChan = 0 }},
		{"too many ATD sets", func(c *CMPConfig) { c.ATDSampledSets = 1 << 30 }},
		{"zero ATD sets", func(c *CMPConfig) { c.ATDSampledSets = 0 }},
		{"zero cache latency", func(c *CMPConfig) { c.LLC.LatencyCyc = 0 }},
		{"128-byte L1D lines", func(c *CMPConfig) { c.L1D.LineBytes = 128 }},
		{"128-byte lines everywhere", func(c *CMPConfig) {
			c.L1D.LineBytes, c.L1I.LineBytes, c.L2.LineBytes, c.LLC.LineBytes = 128, 128, 128, 128
		}},
		{"zero DRAM read queue", func(c *CMPConfig) { c.DRAM.ReadQueue = 0 }},
		{"zero DRAM write queue", func(c *CMPConfig) { c.DRAM.WriteQueue = 0 }},
		{"DRAM page below a line", func(c *CMPConfig) { c.DRAM.PageBytes = 1 }},
		{"zero tCAS", func(c *CMPConfig) { c.DRAM.TCAS = 0 }},
		{"zero DRAM burst", func(c *CMPConfig) { c.DRAM.BurstCyc = 0 }},
		{"zero ring hop latency", func(c *CMPConfig) { c.Ring.HopLatency = 0 }},
		{"zero ring queue", func(c *CMPConfig) { c.Ring.QueueEntries = 0 }},
		{"zero response rings", func(c *CMPConfig) { c.Ring.ResponseRings = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := PaperConfig(4)
			tc.mutate(cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate() accepted invalid config (%s)", tc.name)
			}
		})
	}
}

func TestWithLLCSize(t *testing.T) {
	base := PaperConfig(4)
	mod := base.WithLLCSize(4 << 20)
	if mod.LLC.SizeBytes != 4<<20 {
		t.Errorf("WithLLCSize: got %d", mod.LLC.SizeBytes)
	}
	if base.LLC.SizeBytes != 8<<20 {
		t.Error("WithLLCSize mutated the receiver")
	}
	if err := mod.Validate(); err != nil {
		t.Errorf("modified config invalid: %v", err)
	}
}

func TestWithLLCWays(t *testing.T) {
	base := PaperConfig(4)
	for _, ways := range []int{16, 32, 64} {
		mod := base.WithLLCWays(ways)
		if mod.LLC.Ways != ways {
			t.Errorf("WithLLCWays(%d): got %d", ways, mod.LLC.Ways)
		}
		if err := mod.Validate(); err != nil {
			t.Errorf("WithLLCWays(%d) invalid: %v", ways, err)
		}
	}
}

func TestWithDRAM(t *testing.T) {
	base := PaperConfig(4)
	ddr4 := base.WithDRAM(DDR4, 1)
	if ddr4.DRAM.Kind != DDR4 {
		t.Errorf("WithDRAM kind = %v", ddr4.DRAM.Kind)
	}
	if ddr4.DRAM.BurstCyc >= base.DRAM.BurstCyc {
		t.Error("DDR4 should have higher bandwidth (shorter burst occupancy) than DDR2")
	}
	quad := base.WithDRAM(DDR2, 4)
	if quad.DRAM.Channels != 4 {
		t.Errorf("WithDRAM channels = %d", quad.DRAM.Channels)
	}
	if base.DRAM.Channels != 1 {
		t.Error("WithDRAM mutated receiver")
	}
}

func TestDRAMKindString(t *testing.T) {
	if DDR2.String() != "DDR2-800" || DDR4.String() != "DDR4-2666" {
		t.Errorf("unexpected DRAM names: %s %s", DDR2, DDR4)
	}
	if !strings.Contains(DRAMKind(42).String(), "42") {
		t.Error("unknown kind should include numeric value")
	}
}

func TestTableIRendering(t *testing.T) {
	rows := PaperConfig(4).TableI()
	if len(rows) != 8 {
		t.Fatalf("TableI rows = %d, want 8", len(rows))
	}
	joined := ""
	for _, r := range rows {
		joined += r.Parameter + ": " + r.Value + "\n"
	}
	for _, want := range []string{"4 GHz", "128 entry reorder buffer", "64KB", "1024KB", "8MB", "DDR2-800", "FR-FCFS"} {
		if !strings.Contains(joined, want) {
			t.Errorf("TableI output missing %q", want)
		}
	}
}

func TestScaledConfigSetsAlwaysPowerOfTwo(t *testing.T) {
	f := func(coreSel uint8) bool {
		cores := []int{2, 4, 8}[int(coreSel)%3]
		cfg := ScaledConfig(cores)
		for _, cc := range []CacheConfig{cfg.L1D, cfg.L1I, cfg.L2, cfg.LLC} {
			s := cc.Sets()
			if s == 0 || s&(s-1) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
