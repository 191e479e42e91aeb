package cache

import (
	"fmt"
	"math/bits"
)

// ATD is an Auxiliary Tag Directory: a per-core shadow tag store that tracks
// what the core's private occupancy of the shared LLC would be if the core had
// the cache to itself. Following Qureshi's UCP and the GDP paper, the ATD uses
// set sampling: only every Nth LLC set is shadowed, and per-way hit counters
// over the sampled sets yield the private-mode miss curve (misses as a
// function of allocated ways).
//
// The ATD also answers the interference-miss question DIEF and ITCA need:
// an access that misses in the real shared cache but hits in the ATD would
// have hit in private mode, so the miss is interference-induced.
type ATD struct {
	ways       int
	sampleStep int // distance between sampled LLC sets

	// tags[sampledSet][way], maintained as a true LRU stack:
	// position 0 is MRU, position ways-1 is LRU.
	tags  [][]uint64
	valid [][]bool

	setShift uint
	setMask  uint64

	// wayHits[i] counts hits whose LRU stack distance is exactly i.
	wayHits  []uint64
	accesses uint64
}

// NewATD creates an ATD for one core shadowing a shared cache with llcSets
// sets and ways associativity, sampling sampledSets of those sets.
func NewATD(llcSets, ways, sampledSets, lineBytes int) (*ATD, error) {
	if sampledSets < 1 || sampledSets > llcSets {
		return nil, fmt.Errorf("atd: sampled sets %d out of range [1,%d]", sampledSets, llcSets)
	}
	if llcSets&(llcSets-1) != 0 {
		return nil, fmt.Errorf("atd: llc set count %d not a power of two", llcSets)
	}
	a := &ATD{
		ways:       ways,
		sampleStep: llcSets / sampledSets,
		tags:       make([][]uint64, sampledSets),
		valid:      make([][]bool, sampledSets),
		setShift:   uint(bits.TrailingZeros(uint(lineBytes))),
		setMask:    uint64(llcSets - 1),
		wayHits:    make([]uint64, ways),
	}
	for i := range a.tags {
		a.tags[i] = make([]uint64, ways)
		a.valid[i] = make([]bool, ways)
	}
	return a, nil
}

// sampleIndex maps an address to its sampled-set index, or -1 if the address
// does not fall in a sampled set.
func (a *ATD) sampleIndex(addr uint64) int {
	set := int((addr >> a.setShift) & a.setMask)
	if set%a.sampleStep != 0 {
		return -1
	}
	return set / a.sampleStep
}

// Access records a demand access. It returns (sampled, privateHit): sampled
// is false when the address does not map to a sampled set (in which case the
// access is ignored), and privateHit reports whether the access would have
// hit in a private cache of the full associativity.
func (a *ATD) Access(addr uint64) (sampled, privateHit bool) {
	idx := a.sampleIndex(addr)
	if idx < 0 {
		return false, false
	}
	a.accesses++
	tag := addr >> a.setShift
	tags, valid := a.tags[idx], a.valid[idx]

	// Find the tag's stack position.
	pos := -1
	for i := 0; i < a.ways; i++ {
		if valid[i] && tags[i] == tag {
			pos = i
			break
		}
	}
	if pos >= 0 {
		a.wayHits[pos]++
		// Move to MRU.
		copy(tags[1:pos+1], tags[0:pos])
		copy(valid[1:pos+1], valid[0:pos])
		tags[0], valid[0] = tag, true
		return true, true
	}
	// Insert at MRU, shifting everything down (LRU falls off).
	copy(tags[1:], tags[0:a.ways-1])
	copy(valid[1:], valid[0:a.ways-1])
	tags[0], valid[0] = tag, true
	return true, false
}

// MissCurve returns the estimated number of misses this core would incur in
// the full (non-sampled) cache as a function of allocated ways, scaled from
// the sampled sets. Index w of the result is the miss count with w ways;
// index 0 therefore equals the scaled access count (no cache at all), and the
// curve is non-increasing in w.
func (a *ATD) MissCurve() []uint64 {
	scale := uint64(a.sampleStep)
	curve := make([]uint64, a.ways+1)
	// With w ways, hits are exactly the accesses whose stack distance is < w.
	var cumHits uint64
	curve[0] = a.accesses * scale
	for w := 1; w <= a.ways; w++ {
		cumHits += a.wayHits[w-1]
		curve[w] = (a.accesses - cumHits) * scale
	}
	return curve
}

// ResetCounters clears the miss-curve counters while keeping the tag state,
// so that miss curves reflect only the most recent measurement interval.
func (a *ATD) ResetCounters() {
	a.accesses = 0
	for i := range a.wayHits {
		a.wayHits[i] = 0
	}
}
