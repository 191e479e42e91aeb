package cpu

// Stats is the cumulative architectural statistics of one core. The cycle
// taxonomy matches Equation 1 of the GDP paper: every cycle is either a
// commit cycle or exactly one kind of stall cycle.
type Stats struct {
	Cycles       uint64
	CommitCycles uint64
	StallInd     uint64
	StallPMS     uint64
	StallSMS     uint64
	StallOther   uint64

	Instructions uint64

	// Load population.
	Loads    uint64
	L1Misses uint64
	PMSLoads uint64 // L1 misses serviced by the private L2
	SMSLoads uint64 // L1 misses serviced by the shared memory system

	// Shared-memory-system latency aggregates (completed SMS loads).
	SMSLatencySum      uint64
	SMSInterferenceSum uint64
	SMSOverlapSum      uint64 // cycles the core committed while each SMS load was pending

	// LLC decomposition for the MCP performance model.
	LLCMisses     uint64 // SMS loads that missed in the LLC
	PreLLCLatSum  uint64 // issue -> LLC portion of SMS latencies (plus LLC lookup)
	PostLLCLatSum uint64 // LLC -> DRAM -> back portion for LLC misses
}

// CPI returns cycles per instruction (0 when no instruction committed).
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// IPC returns instructions per cycle (0 when no cycle elapsed).
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// AvgSMSLatency returns the average shared-memory-system load latency.
func (s Stats) AvgSMSLatency() float64 {
	if s.SMSLoads == 0 {
		return 0
	}
	return float64(s.SMSLatencySum) / float64(s.SMSLoads)
}

// Delta returns the statistics accumulated since an earlier snapshot.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Cycles:             s.Cycles - prev.Cycles,
		CommitCycles:       s.CommitCycles - prev.CommitCycles,
		StallInd:           s.StallInd - prev.StallInd,
		StallPMS:           s.StallPMS - prev.StallPMS,
		StallSMS:           s.StallSMS - prev.StallSMS,
		StallOther:         s.StallOther - prev.StallOther,
		Instructions:       s.Instructions - prev.Instructions,
		Loads:              s.Loads - prev.Loads,
		L1Misses:           s.L1Misses - prev.L1Misses,
		PMSLoads:           s.PMSLoads - prev.PMSLoads,
		SMSLoads:           s.SMSLoads - prev.SMSLoads,
		SMSLatencySum:      s.SMSLatencySum - prev.SMSLatencySum,
		SMSInterferenceSum: s.SMSInterferenceSum - prev.SMSInterferenceSum,
		SMSOverlapSum:      s.SMSOverlapSum - prev.SMSOverlapSum,
		LLCMisses:          s.LLCMisses - prev.LLCMisses,
		PreLLCLatSum:       s.PreLLCLatSum - prev.PreLLCLatSum,
		PostLLCLatSum:      s.PostLLCLatSum - prev.PostLLCLatSum,
	}
}
