// Package cache implements the set-associative cache models used by the
// simulator: private L1/L2 caches, the banked shared last-level cache (LLC)
// with way-partitioning support, and the Auxiliary Tag Directory (ATD) with
// set sampling that provides private-mode miss curves and interference-miss
// detection for DIEF, UCP, ASM and MCP.
package cache

import (
	"fmt"
	"math/bits"
)

// line is one tag-store entry.
type line struct {
	tag   uint64
	valid bool
	owner int    // core that installed the line (for shared caches)
	lru   uint64 // higher = more recently used
}

// Cache is a set-associative cache tag store with LRU replacement and
// optional per-core way partitioning. It models tags only; data never moves.
type Cache struct {
	name string
	sets int
	ways int

	setShift uint
	setMask  uint64

	lines   [][]line // [set][way]
	lruTick uint64

	// partition[core] is the number of ways core may occupy in every set.
	// nil means unpartitioned (pure LRU).
	partition []int
}

// New creates a cache with the given geometry. Sets must be a power of two.
func New(name string, sizeBytes, ways, lineBytes int) (*Cache, error) {
	if ways < 1 || lineBytes < 1 || sizeBytes < ways*lineBytes {
		return nil, fmt.Errorf("cache %s: invalid geometry size=%d ways=%d line=%d", name, sizeBytes, ways, lineBytes)
	}
	sets := sizeBytes / (ways * lineBytes)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d is not a power of two", name, sets)
	}
	c := &Cache{
		name:     name,
		sets:     sets,
		ways:     ways,
		setShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setMask:  uint64(sets - 1),
		lines:    make([][]line, sets),
	}
	all := make([]line, sets*ways)
	for i := range c.lines {
		c.lines[i] = all[i*ways : (i+1)*ways : (i+1)*ways]
	}
	c.Reset()
	return c, nil
}

// Reset empties the cache: every line invalid, the LRU clock at zero and no
// way partition, exactly as New builds it.
func (c *Cache) Reset() {
	for _, set := range c.lines {
		clear(set)
	}
	c.lruTick = 0
	c.partition = nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// indexOf returns the set index and tag for an address.
func (c *Cache) indexOf(addr uint64) (int, uint64) {
	blk := addr >> c.setShift
	return int(blk & c.setMask), blk >> uint(bits.TrailingZeros(uint(c.sets)))
}

// SetPartition installs a way partition: alloc[core] ways per set for each
// core. The sum of allocations must not exceed the associativity. A nil
// allocation removes partitioning.
func (c *Cache) SetPartition(alloc []int) error {
	if alloc == nil {
		c.partition = nil
		return nil
	}
	total := 0
	for core, ways := range alloc {
		if ways < 0 {
			return fmt.Errorf("cache %s: negative allocation for core %d", c.name, core)
		}
		total += ways
	}
	if total > c.ways {
		return fmt.Errorf("cache %s: partition total %d exceeds associativity %d", c.name, total, c.ways)
	}
	c.partition = append([]int(nil), alloc...)
	return nil
}

// Lookup probes the cache without modifying replacement state and reports
// whether the address hits.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.indexOf(addr)
	for i := range c.lines[set] {
		if c.lines[set][i].valid && c.lines[set][i].tag == tag {
			return true
		}
	}
	return false
}

// Access performs a demand access by core. On a hit it updates LRU state and
// returns true. On a miss it returns false and does not allocate; use Fill to
// install the line when the data returns (mirroring a real fill path).
func (c *Cache) Access(core int, addr uint64) bool {
	set, tag := c.indexOf(addr)
	c.lruTick++
	for i := range c.lines[set] {
		l := &c.lines[set][i]
		if l.valid && l.tag == tag {
			l.lru = c.lruTick
			return true
		}
	}
	return false
}

// AccessAndFill performs a demand access and immediately allocates on a miss.
// It is the convenience path used by the private caches where fill timing
// does not need to be modeled separately. It returns true on a hit.
func (c *Cache) AccessAndFill(core int, addr uint64) bool {
	if c.Access(core, addr) {
		return true
	}
	c.Fill(core, addr)
	return false
}

// Fill installs the line for addr on behalf of core, evicting the LRU line
// among the ways the core is allowed to use. It returns the evicted address
// and whether an eviction of a valid line happened.
func (c *Cache) Fill(core int, addr uint64) (evicted uint64, evictedValid bool) {
	set, tag := c.indexOf(addr)
	c.lruTick++

	// If the line is already present (e.g. filled by a racing request), just
	// refresh it.
	for i := range c.lines[set] {
		l := &c.lines[set][i]
		if l.valid && l.tag == tag {
			l.lru = c.lruTick
			l.owner = core
			return 0, false
		}
	}

	victim := c.selectVictim(set, core)
	l := &c.lines[set][victim]
	if l.valid {
		evicted = c.rebuildAddr(set, l.tag)
		evictedValid = true
	}
	*l = line{tag: tag, valid: true, owner: core, lru: c.lruTick}
	return evicted, evictedValid
}

// selectVictim picks a victim way for core in set, honoring the partition.
func (c *Cache) selectVictim(set, core int) int {
	lines := c.lines[set]

	if c.partition == nil || core >= len(c.partition) {
		// Unpartitioned: prefer invalid lines, then global LRU.
		for i := range lines {
			if !lines[i].valid {
				return i
			}
		}
		return c.lruVictim(set, func(int) bool { return true })
	}

	quota := c.partition[core]
	if quota < 1 {
		quota = 1 // a core must always be able to make progress
	}
	// Count the core's valid lines in this set.
	owned := 0
	for i := range lines {
		if lines[i].valid && lines[i].owner == core {
			owned++
		}
	}
	if owned >= quota {
		// At or over quota: recycle the core's own LRU line even if invalid
		// ways exist, so the core never exceeds its allocation.
		return c.lruVictim(set, func(i int) bool { return lines[i].valid && lines[i].owner == core })
	}
	// Under quota: take an invalid way if available.
	for i := range lines {
		if !lines[i].valid {
			return i
		}
	}
	// Otherwise reclaim the LRU line of a core that is over its own quota,
	// falling back to the global LRU line.
	counts := map[int]int{}
	for i := range lines {
		if lines[i].valid {
			counts[lines[i].owner]++
		}
	}
	victim := c.lruVictim(set, func(i int) bool {
		o := lines[i].owner
		if o >= 0 && o < len(c.partition) {
			return counts[o] > c.partition[o]
		}
		return true
	})
	if victim >= 0 {
		return victim
	}
	return c.lruVictim(set, func(int) bool { return true })
}

// lruVictim returns the index of the least recently used valid line that
// satisfies eligible, or -1 if none does.
func (c *Cache) lruVictim(set int, eligible func(int) bool) int {
	lines := c.lines[set]
	best := -1
	for i := range lines {
		if !eligible(i) {
			continue
		}
		if best == -1 || lines[i].lru < lines[best].lru {
			best = i
		}
	}
	return best
}

// rebuildAddr reconstructs the block address of a line from its set and tag.
func (c *Cache) rebuildAddr(set int, tag uint64) uint64 {
	setBits := uint(bits.TrailingZeros(uint(c.sets)))
	return ((tag << setBits) | uint64(set)) << c.setShift
}

// OccupancyByCore returns, for shared caches, the number of valid lines each
// core currently occupies (indexed by core id up to maxCore inclusive).
func (c *Cache) OccupancyByCore(maxCore int) []int {
	out := make([]int, maxCore+1)
	for s := range c.lines {
		for w := range c.lines[s] {
			l := c.lines[s][w]
			if l.valid && l.owner >= 0 && l.owner <= maxCore {
				out[l.owner]++
			}
		}
	}
	return out
}
