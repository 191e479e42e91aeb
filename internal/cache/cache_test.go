package cache

import (
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, size, ways, lineBytes int) *Cache {
	t.Helper()
	c, err := New("test", size, ways, lineBytes)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New("bad", 100, 3, 64); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := New("bad", 0, 2, 64); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New("bad", 1024, 0, 64); err == nil {
		t.Error("zero ways accepted")
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := mustCache(t, 4096, 4, 64)
	if c.Access(0, 0x1000) {
		t.Error("cold access should miss")
	}
	c.Fill(0, 0x1000)
	if !c.Access(0, 0x1000) {
		t.Error("access after fill should hit")
	}
	if !c.Access(0, 0x1010) {
		t.Error("same line, different offset should hit")
	}
	if c.Access(0, 0x2000) {
		t.Error("different line should miss")
	}
}

func TestAccessAndFill(t *testing.T) {
	c := mustCache(t, 4096, 4, 64)
	if c.AccessAndFill(0, 0x40) {
		t.Error("first access should miss")
	}
	if !c.AccessAndFill(0, 0x40) {
		t.Error("second access should hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache, 1 set: size = 2 ways * 64B.
	c := mustCache(t, 128, 2, 64)
	c.AccessAndFill(0, 0x0000)
	c.AccessAndFill(0, 0x1000)
	// Touch 0x0000 so 0x1000 becomes LRU.
	c.AccessAndFill(0, 0x0000)
	// Fill a third line: must evict 0x1000.
	c.AccessAndFill(0, 0x2000)
	if !c.Lookup(0x0000) {
		t.Error("MRU line evicted")
	}
	if c.Lookup(0x1000) {
		t.Error("LRU line not evicted")
	}
	if !c.Lookup(0x2000) {
		t.Error("new line not present")
	}
}

func TestFillReturnsEvictedAddress(t *testing.T) {
	c := mustCache(t, 128, 2, 64)
	c.Fill(0, 0x0000)
	c.Fill(0, 0x1000)
	evicted, valid := c.Fill(0, 0x2000)
	if !valid {
		t.Fatal("expected an eviction")
	}
	if evicted != 0x0000 {
		t.Errorf("evicted %#x, want 0x0", evicted)
	}
	if _, valid := c.Fill(0, 0x2000); valid {
		t.Error("refilling a present line must not evict")
	}
}

func TestSetPartitionValidation(t *testing.T) {
	c := mustCache(t, 64*64*16, 16, 64)
	if err := c.SetPartition([]int{8, 8}); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	if err := c.SetPartition([]int{12, 8}); err == nil {
		t.Error("oversubscribed partition accepted")
	}
	if err := c.SetPartition([]int{-1, 4}); err == nil {
		t.Error("negative partition accepted")
	}
	if err := c.SetPartition(nil); err != nil {
		t.Errorf("clearing partition failed: %v", err)
	}
	if c.partition != nil {
		t.Error("partition not cleared")
	}
}

func TestPartitionEnforcement(t *testing.T) {
	// Single-set, 8-way cache. Core 0 gets 2 ways, core 1 gets 6.
	c := mustCache(t, 8*64, 8, 64)
	if err := c.SetPartition([]int{2, 6}); err != nil {
		t.Fatal(err)
	}
	// Core 0 streams 6 distinct lines; it must never occupy more than 2 ways
	// once the cache is full and core 1's lines are resident.
	for i := 0; i < 6; i++ {
		c.AccessAndFill(1, uint64(0x100000+i*64))
	}
	for i := 0; i < 6; i++ {
		c.AccessAndFill(0, uint64(0x200000+i*64))
	}
	occ := c.OccupancyByCore(1)
	if occ[0] > 2 {
		t.Errorf("core 0 occupies %d ways, quota is 2", occ[0])
	}
	if occ[1] < 6 {
		t.Errorf("core 1 occupancy dropped to %d despite quota 6", occ[1])
	}
}

func TestPartitionReclaimsOverQuotaLines(t *testing.T) {
	c := mustCache(t, 8*64, 8, 64)
	// Initially core 0 fills the whole set.
	for i := 0; i < 8; i++ {
		c.AccessAndFill(0, uint64(0x100000+i*64))
	}
	// Now partition: core 0 -> 2 ways, core 1 -> 6 ways. As core 1 fills, it
	// should reclaim core 0's over-quota lines rather than its own.
	if err := c.SetPartition([]int{2, 6}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c.AccessAndFill(1, uint64(0x200000+i*64))
	}
	occ := c.OccupancyByCore(1)
	if occ[1] != 6 {
		t.Errorf("core 1 occupies %d ways, want 6", occ[1])
	}
	if occ[0] != 2 {
		t.Errorf("core 0 occupies %d ways, want 2", occ[0])
	}
}

func TestOccupancyByCore(t *testing.T) {
	c := mustCache(t, 4096, 4, 64)
	c.Fill(0, 0x0)
	c.Fill(1, 0x1000)
	c.Fill(1, 0x2000)
	occ := c.OccupancyByCore(2)
	if occ[0] != 1 || occ[1] != 2 || occ[2] != 0 {
		t.Errorf("occupancy = %v", occ)
	}
}

func TestAccessorGetters(t *testing.T) {
	c := mustCache(t, 8192, 4, 64)
	if c.Sets() != 32 {
		t.Errorf("Sets() = %d, want 32", c.Sets())
	}
}

func TestRebuildAddrRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		c, err := New("p", 1<<14, 8, 64)
		if err != nil {
			return false
		}
		addr := (raw &^ 63) % (1 << 40)
		c.Fill(0, addr)
		// Evict by filling the same set with 8 more lines, capture evictions.
		set, _ := c.indexOf(addr)
		found := false
		for i := 1; i <= 9; i++ {
			cand := addr + uint64(i)*uint64(c.Sets())*64
			if s, _ := c.indexOf(cand); s != set {
				return false
			}
			if ev, ok := c.Fill(0, cand); ok && ev == addr {
				found = true
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
