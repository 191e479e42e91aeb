// Package config defines the chip-multiprocessor (CMP) model parameters used
// throughout the simulator. The default parameter sets mirror Table I of the
// GDP paper (Jahre & Eeckhout, HPCA 2018) for 2-, 4- and 8-core systems, and a
// proportionally scaled configuration is provided for short-sample runs.
package config

import (
	"errors"
	"fmt"
)

// DRAMKind selects the DRAM interface generation.
type DRAMKind int

const (
	// DDR2 selects the DDR2-800 timing preset used as the paper's default.
	DDR2 DRAMKind = iota
	// DDR4 selects the DDR4-2666 timing preset used in the sensitivity study.
	DDR4
)

// String returns the JEDEC-style name of the DRAM interface.
func (k DRAMKind) String() string {
	switch k {
	case DDR2:
		return "DDR2-800"
	case DDR4:
		return "DDR4-2666"
	default:
		return fmt.Sprintf("DRAMKind(%d)", int(k))
	}
}

// CoreConfig holds the out-of-order core parameters (Table I, "Processor Cores").
type CoreConfig struct {
	ROBEntries        int // reorder buffer entries
	LSQEntries        int // load/store queue entries
	IssueQueueEntries int // instruction queue entries
	FetchWidth        int // instructions fetched/dispatched per cycle
	CommitWidth       int // instructions committed per cycle
	IntALUs           int
	IntMulDiv         int
	FPALUs            int
	FPMulDiv          int
	StoreBufferSize   int
	BranchMissPenalty int // front-end bubble cycles on a mispredict
	BranchMissRate    float64
}

// CacheConfig holds the parameters of one cache level.
type CacheConfig struct {
	SizeBytes    int
	Ways         int
	LineBytes    int
	LatencyCyc   int
	MSHRs        int
	Banks        int // >1 only meaningful for the shared LLC
	MSHRsPerBank int
}

// Sets returns the number of sets in the cache.
func (c CacheConfig) Sets() int {
	if c.Ways <= 0 || c.LineBytes <= 0 {
		return 0
	}
	return c.SizeBytes / (c.Ways * c.LineBytes)
}

// RingConfig holds the ring-interconnect parameters.
type RingConfig struct {
	HopLatency    int // cycles per hop transfer
	QueueEntries  int
	RequestRings  int
	ResponseRings int
}

// DRAMConfig holds the memory-controller and DRAM device parameters.
type DRAMConfig struct {
	Kind           DRAMKind
	Channels       int
	BanksPerChan   int
	ReadQueue      int
	WriteQueue     int
	PageBytes      int
	OpenPagePolicy bool

	// Timing expressed in CPU cycles (already converted from memory clock).
	TRCD      int // activate to column command
	TCAS      int // column command to first data
	TRP       int // precharge
	BurstCyc  int // data-bus occupancy per transfer
	CPUPerMem int // CPU cycles per memory-bus cycle
}

// CMPConfig is the complete description of one simulated chip multiprocessor.
type CMPConfig struct {
	Name           string
	Cores          int
	ClockGHz       float64
	Core           CoreConfig
	L1D            CacheConfig
	L1I            CacheConfig
	L2             CacheConfig
	LLC            CacheConfig
	Ring           RingConfig
	DRAM           DRAMConfig
	ATDSampledSets int // number of LLC sets sampled by each auxiliary tag directory
}

// lineBytes is the only supported cache line size: the core masks addresses
// to 64-byte lines for its MSHR key and the trace generator lays working sets
// out in 64-byte lines.
const lineBytes = 64

// Validate reports an error describing the first invalid parameter found.
// It is the only range check of the ring and DRAM parameters: ring.New and
// dram.New trust what it accepted.
func (c *CMPConfig) Validate() error {
	switch {
	case c.Cores < 1:
		return errors.New("config: core count must be at least 1")
	case c.Core.ROBEntries < 4:
		return errors.New("config: ROB must have at least 4 entries")
	case c.Core.LSQEntries < 1:
		return errors.New("config: LSQ must have at least 1 entry")
	case c.Core.FetchWidth < 1 || c.Core.CommitWidth < 1:
		return errors.New("config: fetch and commit width must be at least 1")
	}
	for _, cc := range []struct {
		name string
		cfg  CacheConfig
	}{{"L1D", c.L1D}, {"L1I", c.L1I}, {"L2", c.L2}, {"LLC", c.LLC}} {
		if cc.cfg.LineBytes != lineBytes {
			return fmt.Errorf("config: %s line size %d B unsupported: the core's MSHR line key and the trace generator assume %d-byte lines",
				cc.name, cc.cfg.LineBytes, lineBytes)
		}
		if cc.cfg.Sets() == 0 {
			return fmt.Errorf("config: %s has zero sets (size=%d ways=%d line=%d)",
				cc.name, cc.cfg.SizeBytes, cc.cfg.Ways, cc.cfg.LineBytes)
		}
		if cc.cfg.Sets()&(cc.cfg.Sets()-1) != 0 {
			return fmt.Errorf("config: %s set count %d is not a power of two", cc.name, cc.cfg.Sets())
		}
		if cc.cfg.LatencyCyc < 1 {
			return fmt.Errorf("config: %s latency must be positive", cc.name)
		}
	}
	if c.LLC.Banks < 1 {
		return errors.New("config: LLC must have at least one bank")
	}
	switch d := c.DRAM; {
	case d.Channels < 1:
		return errors.New("config: DRAM must have at least one channel")
	case d.BanksPerChan < 1:
		return errors.New("config: DRAM must have at least one bank per channel")
	case d.ReadQueue < 1 || d.WriteQueue < 1:
		return fmt.Errorf("config: DRAM queue sizes %d/%d must be at least 1", d.ReadQueue, d.WriteQueue)
	case d.PageBytes < lineBytes:
		return fmt.Errorf("config: DRAM page of %d B is smaller than a %d-byte line", d.PageBytes, lineBytes)
	case d.TRCD < 1 || d.TCAS < 1 || d.TRP < 1 || d.BurstCyc < 1:
		return fmt.Errorf("config: DRAM timings tRCD=%d tCAS=%d tRP=%d burst=%d must be at least 1 cycle",
			d.TRCD, d.TCAS, d.TRP, d.BurstCyc)
	}
	if r := c.Ring; r.HopLatency < 1 || r.QueueEntries < 1 || r.RequestRings < 1 || r.ResponseRings < 1 {
		return fmt.Errorf("config: ring hop latency %d, queue size %d and ring counts %d/%d must be at least 1",
			r.HopLatency, r.QueueEntries, r.RequestRings, r.ResponseRings)
	}
	if c.ATDSampledSets < 1 || c.ATDSampledSets > c.LLC.Sets() {
		return fmt.Errorf("config: ATD sampled sets %d out of range [1,%d]", c.ATDSampledSets, c.LLC.Sets())
	}
	return nil
}

// dramPreset returns the timing preset for the requested interface. The
// numbers follow the 4-4-4-12 DDR2-800 timing from Table I and a 19-19-19
// DDR4-2666 timing, converted into 4 GHz CPU cycles.
func dramPreset(kind DRAMKind, channels int) DRAMConfig {
	switch kind {
	case DDR4:
		// DDR4-2666: 1333 MHz bus, CPU/mem ratio 3, CL=tRCD=tRP=19 mem cycles.
		return DRAMConfig{
			Kind:           DDR4,
			Channels:       channels,
			BanksPerChan:   16,
			ReadQueue:      64,
			WriteQueue:     64,
			PageBytes:      1024,
			OpenPagePolicy: true,
			TRCD:           57,
			TCAS:           57,
			TRP:            57,
			BurstCyc:       12, // BL8 at ratio 3
			CPUPerMem:      3,
		}
	default:
		// DDR2-800: 400 MHz bus, CPU/mem ratio 10, 4-4-4 mem cycles.
		return DRAMConfig{
			Kind:           DDR2,
			Channels:       channels,
			BanksPerChan:   8,
			ReadQueue:      64,
			WriteQueue:     64,
			PageBytes:      1024,
			OpenPagePolicy: true,
			TRCD:           40,
			TCAS:           40,
			TRP:            40,
			BurstCyc:       40, // BL8 at ratio 10
			CPUPerMem:      10,
		}
	}
}

func defaultCore() CoreConfig {
	return CoreConfig{
		ROBEntries:        128,
		LSQEntries:        32,
		IssueQueueEntries: 64,
		FetchWidth:        4,
		CommitWidth:       4,
		IntALUs:           4,
		IntMulDiv:         2,
		FPALUs:            4,
		FPMulDiv:          2,
		StoreBufferSize:   16,
		BranchMissPenalty: 12,
		BranchMissRate:    0.03,
	}
}

// PaperConfig returns the Table I configuration for the requested core count
// (2, 4 or 8). Other core counts interpolate between the published points.
func PaperConfig(cores int) *CMPConfig {
	l1Lat, l2Lat, llcLat := 3, 9, 16
	llcSize := 8 << 20
	llcMSHRPerBank := 32
	requestRings := 1
	if cores >= 8 {
		l1Lat, l2Lat, llcLat = 2, 6, 12
		llcSize = 16 << 20
		llcMSHRPerBank = 128
		requestRings = 2
	} else if cores >= 4 {
		llcMSHRPerBank = 64
	}
	cfg := &CMPConfig{
		Name:     fmt.Sprintf("paper-%dcore", cores),
		Cores:    cores,
		ClockGHz: 4.0,
		Core:     defaultCore(),
		L1D: CacheConfig{
			SizeBytes: 64 << 10, Ways: 2, LineBytes: 64, LatencyCyc: l1Lat, MSHRs: 16,
		},
		L1I: CacheConfig{
			SizeBytes: 64 << 10, Ways: 2, LineBytes: 64, LatencyCyc: l1Lat, MSHRs: 16,
		},
		L2: CacheConfig{
			SizeBytes: 1 << 20, Ways: 4, LineBytes: 64, LatencyCyc: l2Lat, MSHRs: 16,
		},
		LLC: CacheConfig{
			SizeBytes: llcSize, Ways: 16, LineBytes: 64, LatencyCyc: llcLat,
			MSHRs: llcMSHRPerBank * 4, Banks: 4, MSHRsPerBank: llcMSHRPerBank,
		},
		Ring: RingConfig{
			HopLatency: 4, QueueEntries: 32, RequestRings: requestRings, ResponseRings: 1,
		},
		DRAM:           dramPreset(DDR2, 1),
		ATDSampledSets: 32,
	}
	return cfg
}

// ScaledConfig returns a configuration with the same structure as PaperConfig
// but with capacities reduced so that the short synthetic instruction samples
// used in this reproduction exercise the same contention regimes that the
// paper's 100M-instruction SPEC samples exercise on the full-size hierarchy.
func ScaledConfig(cores int) *CMPConfig {
	cfg := PaperConfig(cores)
	cfg.Name = fmt.Sprintf("scaled-%dcore", cores)
	cfg.L1D.SizeBytes = 4 << 10
	cfg.L1I.SizeBytes = 4 << 10
	cfg.L2.SizeBytes = 8 << 10
	cfg.LLC.SizeBytes = 32 << 10
	if cores >= 8 {
		cfg.LLC.SizeBytes = 64 << 10
	}
	cfg.ATDSampledSets = 32
	if s := cfg.LLC.Sets(); cfg.ATDSampledSets > s {
		cfg.ATDSampledSets = s
	}
	return cfg
}

// WithLLCSize returns a copy of the configuration with the LLC capacity set
// to sizeBytes (used by the Figure 7a sensitivity sweep).
func (c *CMPConfig) WithLLCSize(sizeBytes int) *CMPConfig {
	out := *c
	out.LLC.SizeBytes = sizeBytes
	if s := out.LLC.Sets(); out.ATDSampledSets > s {
		out.ATDSampledSets = s
	}
	return &out
}

// WithLLCWays returns a copy with the LLC associativity set to ways
// (Figure 7b).
func (c *CMPConfig) WithLLCWays(ways int) *CMPConfig {
	out := *c
	out.LLC.Ways = ways
	if s := out.LLC.Sets(); out.ATDSampledSets > s {
		out.ATDSampledSets = s
	}
	return &out
}

// WithDRAM returns a copy with the DRAM interface and channel count replaced
// (Figures 7c and 7d).
func (c *CMPConfig) WithDRAM(kind DRAMKind, channels int) *CMPConfig {
	out := *c
	out.DRAM = dramPreset(kind, channels)
	return &out
}

// TableRow describes one row of Table I for reporting purposes.
type TableRow struct {
	Parameter string
	Value     string
}

// TableI renders the configuration in the shape of the paper's Table I.
func (c *CMPConfig) TableI() []TableRow {
	return []TableRow{
		{"Clock frequency", fmt.Sprintf("%.0f GHz", c.ClockGHz)},
		{"Processor Cores", fmt.Sprintf("%d entry reorder buffer, %d entry load/store queue, %d entry instruction queue, %d instructions/cycle",
			c.Core.ROBEntries, c.Core.LSQEntries, c.Core.IssueQueueEntries, c.Core.FetchWidth)},
		{"L1 Data Cache", fmt.Sprintf("%d-way, %dKB, %d cycles latency, %d MSHRs",
			c.L1D.Ways, c.L1D.SizeBytes>>10, c.L1D.LatencyCyc, c.L1D.MSHRs)},
		{"L1 Inst. Cache", fmt.Sprintf("%d-way, %dKB, %d cycles latency, %d MSHRs",
			c.L1I.Ways, c.L1I.SizeBytes>>10, c.L1I.LatencyCyc, c.L1I.MSHRs)},
		{"L2 Private Cache", fmt.Sprintf("%d-way, %dKB, %d cycles latency, %d MSHRs",
			c.L2.Ways, c.L2.SizeBytes>>10, c.L2.LatencyCyc, c.L2.MSHRs)},
		{"L3 Shared Cache", fmt.Sprintf("%d-way, %dMB, %d cycles latency, %d MSHRs per bank, %d banks",
			c.LLC.Ways, c.LLC.SizeBytes>>20, c.LLC.LatencyCyc, c.LLC.MSHRsPerBank, c.LLC.Banks)},
		{"Ring Interconnect", fmt.Sprintf("%d cycles per hop transfer latency, %d entry request queue, %d request rings, %d response ring",
			c.Ring.HopLatency, c.Ring.QueueEntries, c.Ring.RequestRings, c.Ring.ResponseRings)},
		{"Main memory", fmt.Sprintf("%s, %d entry read queue, %d entry write queue, %d KB pages, %d banks, FR-FCFS scheduling, open page policy, %d channel(s)",
			c.DRAM.Kind, c.DRAM.ReadQueue, c.DRAM.WriteQueue, c.DRAM.PageBytes>>10, c.DRAM.BanksPerChan, c.DRAM.Channels)},
	}
}
