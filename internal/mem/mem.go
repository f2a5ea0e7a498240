// Package mem provides the memory substrate of Fig. 1: a byte-addressable
// little-endian data memory implementing isa.DataMemory, and a
// direct-mapped data cache that turns addresses into extra load latency.
// Instruction memory is the decoded program itself (package isa), fetched
// by index; the trace cache lives in package fetch.
package mem

import "fmt"

// Memory is a little-endian byte-addressable memory held as a table of
// 4 KiB pages. A page is allocated by the first store into it; a load
// from a page never stored to reads 0 and allocates nothing, so a
// machine pays only for the data its program writes. Addresses wrap
// modulo the (power-of-two) size, so wild speculative addresses read
// harmlessly inside the address space instead of faulting — the
// simulator equivalent of a physical address space. Halves and words
// are composed byte by byte, so one may straddle a page boundary or the
// top of memory. A memory smaller than a page is a prefix of page 0.
type Memory struct {
	pages []*[pageSize]byte
	mask  uint32
}

const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// DefaultSize is the default memory size (1 MiB).
const DefaultSize = 1 << 20

// MaxSize is the largest memory: the ISA's 32-bit address space.
// Larger sizes would only be truncated by the address mask.
const MaxSize = 1 << 32

// ValidSize reports whether size is a usable memory size: a power of
// two no larger than MaxSize.
func ValidSize(size int) error {
	if size <= 0 || size&(size-1) != 0 {
		return fmt.Errorf("mem: size %d is not a positive power of two", size)
	}
	if int64(size) > MaxSize {
		return fmt.Errorf("mem: size %d exceeds the 32-bit address space (%d bytes)", size, int64(MaxSize))
	}
	return nil
}

// NewMemory returns a zeroed memory of the given size in bytes; it
// panics if ValidSize rejects the size. Only the page table is
// allocated here; pages follow on first store.
func NewMemory(size int) *Memory {
	if err := ValidSize(size); err != nil {
		panic(err.Error())
	}
	return &Memory{
		pages: make([]*[pageSize]byte, max(size/pageSize, 1)),
		mask:  uint32(size - 1),
	}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return int(m.mask) + 1 }

// LoadByte reads one byte.
func (m *Memory) LoadByte(addr uint32) uint8 {
	a := addr & m.mask
	if pg := m.pages[a>>pageShift]; pg != nil {
		return pg[a&(pageSize-1)]
	}
	return 0
}

// StoreByte writes one byte, allocating its page on first use.
func (m *Memory) StoreByte(addr uint32, v uint8) {
	a := addr & m.mask
	pg := m.pages[a>>pageShift]
	if pg == nil {
		pg = new([pageSize]byte)
		m.pages[a>>pageShift] = pg
	}
	pg[a&(pageSize-1)] = v
}

// LoadHalf reads a little-endian 16-bit value.
func (m *Memory) LoadHalf(addr uint32) uint16 {
	return uint16(m.LoadByte(addr)) | uint16(m.LoadByte(addr+1))<<8
}

// StoreHalf writes a little-endian 16-bit value.
func (m *Memory) StoreHalf(addr uint32, v uint16) {
	m.StoreByte(addr, uint8(v))
	m.StoreByte(addr+1, uint8(v>>8))
}

// LoadWord reads a little-endian 32-bit value.
func (m *Memory) LoadWord(addr uint32) uint32 {
	return uint32(m.LoadHalf(addr)) | uint32(m.LoadHalf(addr+2))<<16
}

// StoreWord writes a little-endian 32-bit value.
func (m *Memory) StoreWord(addr uint32, v uint32) {
	m.StoreHalf(addr, uint16(v))
	m.StoreHalf(addr+2, uint16(v>>16))
}

// WriteWords stores a word slice starting at addr — a convenience for
// setting up example and benchmark data.
func (m *Memory) WriteWords(addr uint32, words []uint32) {
	for i, w := range words {
		m.StoreWord(addr+uint32(4*i), w)
	}
}

// ReadWords loads n words starting at addr.
func (m *Memory) ReadWords(addr uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = m.LoadWord(addr + uint32(4*i))
	}
	return out
}

// Cache is a direct-mapped data cache model: an Access either hits (no
// extra latency) or misses (the line is filled and the configured miss
// penalty is charged). Only timing is modelled; data always comes from
// the backing Memory.
type Cache struct {
	lineShift   uint
	sets        int
	tags        []uint32
	valid       []bool
	missPenalty int

	hits, misses int
}

// NewCache builds a direct-mapped cache with the given number of sets,
// line size in bytes (a power of two) and miss penalty in cycles.
func NewCache(sets, lineSize, missPenalty int) *Cache {
	if sets <= 0 || lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("mem: bad cache geometry sets=%d line=%d", sets, lineSize))
	}
	if missPenalty < 0 {
		panic("mem: negative miss penalty")
	}
	shift := uint(0)
	for 1<<shift < lineSize {
		shift++
	}
	return &Cache{
		lineShift:   shift,
		sets:        sets,
		tags:        make([]uint32, sets),
		valid:       make([]bool, sets),
		missPenalty: missPenalty,
	}
}

// Access looks up addr, fills the line on a miss, and returns the extra
// latency the access costs (0 on a hit, the miss penalty on a miss).
func (c *Cache) Access(addr uint32) int {
	line := addr >> c.lineShift
	set := int(line) % c.sets
	if c.valid[set] && c.tags[set] == line {
		c.hits++
		return 0
	}
	c.misses++
	c.valid[set] = true
	c.tags[set] = line
	return c.missPenalty
}

// Probe reports whether addr would hit, without changing cache state.
func (c *Cache) Probe(addr uint32) bool {
	line := addr >> c.lineShift
	set := int(line) % c.sets
	return c.valid[set] && c.tags[set] == line
}

// Flush invalidates every line.
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

// Hits returns the number of hits observed.
func (c *Cache) Hits() int { return c.hits }

// Misses returns the number of misses observed.
func (c *Cache) Misses() int { return c.misses }

// MissPenalty returns the configured miss penalty in cycles.
func (c *Cache) MissPenalty() int { return c.missPenalty }
