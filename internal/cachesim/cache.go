// Package cachesim reproduces the microarchitectural argument of the
// paper's Table I: scale-out applications have memory footprints far beyond
// what an on-chip cache can hold, so co-locating another workload on the
// same last-level cache barely moves their IPC, MPKI, or miss ratio.
//
// It provides a set-associative LRU cache model, synthetic access streams
// for a web-search index server and four PARSEC-like co-runners, and a
// simple miss-penalty IPC model — the stand-in for the paper's Xenoprof
// hardware-counter measurements.
package cachesim

import "fmt"

// Cache is a set-associative cache with LRU replacement. Only tags are
// modelled; a line is identified by its address divided by the line size.
type Cache struct {
	lineSize int
	sets     int
	ways     int
	// lru[s] holds the tags of set s, most recently used last.
	lru [][]uint64

	hits, misses int64
}

// NewCache builds a cache of the given total size. Size must be an exact
// multiple of ways*lineSize.
func NewCache(sizeBytes, ways, lineSize int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("cachesim: non-positive geometry %d/%d/%d", sizeBytes, ways, lineSize)
	}
	sets := sizeBytes / (ways * lineSize)
	if sets == 0 || sizeBytes != sets*ways*lineSize {
		return nil, fmt.Errorf("cachesim: size %d not divisible into %d-way sets of %d-byte lines", sizeBytes, ways, lineSize)
	}
	c := &Cache{lineSize: lineSize, sets: sets, ways: ways, lru: make([][]uint64, sets)}
	for i := range c.lru {
		c.lru[i] = make([]uint64, 0, ways)
	}
	return c, nil
}

// Access touches addr and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr / uint64(c.lineSize)
	set := line % uint64(c.sets)
	tag := line / uint64(c.sets)
	ways := c.lru[set]
	for i, t := range ways {
		if t == tag {
			// Move to MRU position.
			copy(ways[i:], ways[i+1:])
			ways[len(ways)-1] = tag
			c.hits++
			return true
		}
	}
	c.misses++
	if len(ways) == c.ways {
		copy(ways, ways[1:])
		ways[len(ways)-1] = tag
	} else {
		c.lru[set] = append(ways, tag)
	}
	return false
}

// Misses returns the miss count.
func (c *Cache) Misses() int64 { return c.misses }

// Accesses returns the total access count.
func (c *Cache) Accesses() int64 { return c.hits + c.misses }

// MissRate returns misses / accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	n := c.Accesses()
	if n == 0 {
		return 0
	}
	return float64(c.misses) / float64(n)
}

// ResetStats clears counters but keeps contents (for warm-up / measure
// phases).
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }
