package cachesim

import (
	"math"
	"testing"
	"testing/quick"
)

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Hits returns the hit count.
func (c *Cache) Hits() int64 { return c.hits }

func mustCache(t *testing.T, size, ways int) *Cache {
	t.Helper()
	c, err := NewCache(size, ways, 64)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCacheGeometry(t *testing.T) {
	c := mustCache(t, 1<<20, 16)
	if c.Sets() != (1<<20)/(16*64) {
		t.Fatalf("sets = %d", c.Sets())
	}
	for _, args := range [][3]int{{0, 16, 64}, {1 << 20, 0, 64}, {1 << 20, 16, 0}, {1000, 16, 64}} {
		if _, err := NewCache(args[0], args[1], args[2]); err == nil {
			t.Errorf("geometry %v should fail", args)
		}
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := mustCache(t, 64*64*2, 2) // 2-way, 64 sets
	if c.Access(0) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0) {
		t.Fatal("repeat access should hit")
	}
	if !c.Access(63) {
		t.Fatal("same-line access should hit")
	}
	if c.Access(64) {
		t.Fatal("next line should miss")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if math.Abs(c.MissRate()-0.5) > 1e-12 {
		t.Fatalf("miss rate = %v", c.MissRate())
	}
}

func TestLRUEviction(t *testing.T) {
	// 1 set, 2 ways: lines A, B, C conflict. After A,B,C the LRU victim
	// is A; touching B first protects it.
	c, err := NewCache(2*64, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	a, b, cc := uint64(0), uint64(64), uint64(128)
	c.Access(a)
	c.Access(b)
	c.Access(cc) // evicts a
	if c.Access(a) {
		t.Fatal("a should have been evicted")
	}
	// Now set is {c,a} with c LRU... after access(a): order c,a.
	if !c.Access(cc) {
		t.Fatal("c should still be resident")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := mustCache(t, 64*64*2, 2)
	c.Access(0)
	c.ResetStats()
	if c.Accesses() != 0 {
		t.Fatal("stats should be cleared")
	}
	if !c.Access(0) {
		t.Fatal("contents should survive ResetStats")
	}
}

func TestMissRateBounds(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, err := NewCache(1<<14, 4, 64)
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Access(uint64(a))
		}
		mr := c.MissRate()
		return mr >= 0 && mr <= 1 && c.Hits()+c.Misses() == int64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSmallWorkingSetFullyCached(t *testing.T) {
	// A working set smaller than the cache converges to ~zero misses.
	c := mustCache(t, 1<<20, 16)
	for round := 0; round < 3; round++ {
		if round == 2 {
			c.ResetStats()
		}
		for addr := uint64(0); addr < 1<<18; addr += 64 {
			c.Access(addr)
		}
	}
	if c.Misses() != 0 {
		t.Fatalf("resident working set missed %d times", c.Misses())
	}
}

func TestHugeWorkingSetMostlyMisses(t *testing.T) {
	// A random stream over 64 MiB through a 1 MiB cache misses nearly
	// always.
	c := mustCache(t, 1<<20, 16)
	w := Canneal(1)
	for i := 0; i < 200000; i++ {
		c.Access(w.Next())
	}
	if c.MissRate() < 0.95 {
		t.Fatalf("streaming miss rate = %v, want near 1", c.MissRate())
	}
}
