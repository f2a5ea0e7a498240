package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMemoryRejectsBadSizes(t *testing.T) {
	for _, size := range []int{0, -4, 3, 1000, 2 * MaxSize} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d accepted", size)
				}
			}()
			NewMemory(size)
		}()
	}
}

func TestWordRoundTrip(t *testing.T) {
	m := NewMemory(1 << 12)
	f := func(addr uint16, v uint32) bool {
		a := uint32(addr)
		m.StoreWord(a, v)
		return m.LoadWord(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := NewMemory(1 << 10)
	m.StoreWord(16, 0x04030201)
	for i, want := range []uint8{1, 2, 3, 4} {
		if got := m.LoadByte(16 + uint32(i)); got != want {
			t.Errorf("byte %d = %d, want %d", i, got, want)
		}
	}
	if got := m.LoadHalf(16); got != 0x0201 {
		t.Errorf("half = %#x", got)
	}
	if got := m.LoadHalf(18); got != 0x0403 {
		t.Errorf("upper half = %#x", got)
	}
}

func TestAddressWrap(t *testing.T) {
	m := NewMemory(1 << 10)
	m.StoreWord(1<<10, 42) // wraps to 0
	if got := m.LoadWord(0); got != 42 {
		t.Errorf("wrapped store landed wrong: %d", got)
	}
	if got := m.LoadWord(3 << 10); got != 42 {
		t.Errorf("wrapped load = %d", got)
	}
}

func TestWriteReadWords(t *testing.T) {
	m := NewMemory(1 << 12)
	words := []uint32{5, 10, 0xffffffff, 0}
	m.WriteWords(100, words)
	got := m.ReadWords(100, len(words))
	for i := range words {
		if got[i] != words[i] {
			t.Errorf("word %d = %d, want %d", i, got[i], words[i])
		}
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	cases := []struct{ sets, line, penalty int }{
		{0, 32, 10}, {64, 0, 10}, {64, 33, 10}, {64, 32, -1},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %+v accepted", c)
				}
			}()
			NewCache(c.sets, c.line, c.penalty)
		}()
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c := NewCache(64, 32, 10)
	if got := c.Access(0x100); got != 10 {
		t.Errorf("cold access latency = %d, want 10", got)
	}
	if got := c.Access(0x100); got != 0 {
		t.Errorf("warm access latency = %d, want 0", got)
	}
	// Same line, different offset: still a hit.
	if got := c.Access(0x11f); got != 0 {
		t.Errorf("same-line access latency = %d, want 0", got)
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCacheConflictEviction(t *testing.T) {
	c := NewCache(4, 32, 10)
	// Addresses 0 and 4*32 map to the same set in a 4-set cache.
	c.Access(0)
	if got := c.Access(4 * 32); got != 10 {
		t.Errorf("conflicting line latency = %d, want miss", got)
	}
	if got := c.Access(0); got != 10 {
		t.Errorf("evicted line latency = %d, want miss", got)
	}
}

func TestProbeDoesNotAllocate(t *testing.T) {
	c := NewCache(16, 32, 10)
	if c.Probe(0x40) {
		t.Error("cold probe hit")
	}
	if c.Misses() != 0 {
		t.Error("probe counted as access")
	}
	c.Access(0x40)
	if !c.Probe(0x40) {
		t.Error("warm probe missed")
	}
}

func TestFlush(t *testing.T) {
	c := NewCache(16, 32, 10)
	c.Access(0)
	c.Flush()
	if c.Probe(0) {
		t.Error("line survived flush")
	}
}

// TestCacheDeterministicReplay: the same address stream produces the same
// hit/miss sequence.
func TestCacheDeterministicReplay(t *testing.T) {
	addrs := make([]uint32, 2000)
	rng := rand.New(rand.NewSource(9))
	for i := range addrs {
		addrs[i] = uint32(rng.Intn(1 << 14))
	}
	run := func() []int {
		c := NewCache(32, 16, 7)
		out := make([]int, len(addrs))
		for i, a := range addrs {
			out[i] = c.Access(a)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestValidSize(t *testing.T) {
	for _, size := range []int{1, 16, 1 << 10, DefaultSize, MaxSize} {
		if err := ValidSize(size); err != nil {
			t.Errorf("ValidSize(%d) = %v, want nil", size, err)
		}
	}
	for _, size := range []int{0, -4, 3, 1000, MaxSize + 1, 2 * MaxSize, 1 << 40} {
		if ValidSize(size) == nil {
			t.Errorf("ValidSize(%d) accepted", size)
		}
	}
}

// refMemory is the reference model the paged Memory must match byte for
// byte: a plain slice, little-endian, every byte address wrapped
// modulo the size on its own.
type refMemory []byte

func (r refMemory) load(addr uint32, size int) uint32 {
	var v uint32
	for i := 0; i < size; i++ {
		v |= uint32(r[(addr+uint32(i))&uint32(len(r)-1)]) << (8 * i)
	}
	return v
}

func (r refMemory) store(addr uint32, size int, v uint32) {
	for i := 0; i < size; i++ {
		r[(addr+uint32(i))&uint32(len(r)-1)] = uint8(v >> (8 * i))
	}
}

// boundaryAddr draws an address biased toward the places a paged memory
// can get wrong: a few bytes either side of a page boundary, the top of
// memory (and its aliases above the size), and otherwise anywhere in
// the 32-bit space.
func boundaryAddr(rng *rand.Rand, size int) uint32 {
	near := uint32(rng.Intn(9)) - 4 // -4..+4 around the anchor
	switch rng.Intn(4) {
	case 0:
		pages := size / pageSize
		if pages < 1 {
			pages = 1
		}
		return uint32(rng.Intn(pages+1)*pageSize) + near
	case 1:
		return uint32(size)*uint32(rng.Intn(4)+1) + near
	case 2:
		return uint32(rng.Intn(size))
	default:
		return rng.Uint32()
	}
}

func TestMemoryMatchesReferenceModel(t *testing.T) {
	for _, size := range []int{16, 1 << 10, pageSize, 2 * pageSize, 1 << 16, 4 << 20} {
		rng := rand.New(rand.NewSource(int64(size)))
		m := NewMemory(size)
		ref := make(refMemory, size)
		if m.Size() != size {
			t.Fatalf("Size() = %d, want %d", m.Size(), size)
		}
		for i := 0; i < 20000; i++ {
			addr := boundaryAddr(rng, size)
			width := []int{1, 2, 4}[rng.Intn(3)]
			if rng.Intn(2) == 0 {
				v := rng.Uint32() & uint32(1<<(8*width)-1)
				switch width {
				case 1:
					m.StoreByte(addr, uint8(v))
				case 2:
					m.StoreHalf(addr, uint16(v))
				case 4:
					m.StoreWord(addr, v)
				}
				ref.store(addr, width, v)
				continue
			}
			var got uint32
			switch width {
			case 1:
				got = uint32(m.LoadByte(addr))
			case 2:
				got = uint32(m.LoadHalf(addr))
			case 4:
				got = m.LoadWord(addr)
			}
			if want := ref.load(addr, width); got != want {
				t.Fatalf("size %d op %d: %d-byte load at %#x = %#x, want %#x", size, i, width, addr, got, want)
			}
		}
		for a := range ref {
			if got := m.LoadByte(uint32(a)); got != ref[a] {
				t.Fatalf("size %d: final byte %#x = %#x, want %#x", size, a, got, ref[a])
			}
		}
	}
}

func TestLoadsDoNotAllocatePages(t *testing.T) {
	m := NewMemory(DefaultSize)
	addr := uint32(0)
	allocs := testing.AllocsPerRun(200, func() {
		_ = m.LoadByte(addr)
		_ = m.LoadHalf(addr | (pageSize - 1)) // straddles a page boundary
		_ = m.LoadWord(addr + 8)
		addr += 7919 // walk across many untouched pages
	})
	if allocs != 0 {
		t.Errorf("loads from untouched pages: %.1f allocs/op, want 0", allocs)
	}
	for i, pg := range m.pages {
		if pg != nil {
			t.Fatalf("a load allocated page %d", i)
		}
	}
	m.StoreWord(uint32(3*pageSize-2), 0xdeadbeef) // straddles pages 2 and 3
	var touched []int
	for i, pg := range m.pages {
		if pg != nil {
			touched = append(touched, i)
		}
	}
	if len(touched) != 2 || touched[0] != 2 || touched[1] != 3 {
		t.Errorf("straddling store allocated pages %v, want [2 3]", touched)
	}
}
