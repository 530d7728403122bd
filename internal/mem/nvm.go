// Package mem models the byte-addressable nonvolatile main memory (NVM).
//
// The model is functional — real bytes are stored, so the simulator can
// verify crash consistency — and instrumented: every access is counted so
// experiments can report NVM write amplification (Figure 16). Latency and
// energy are charged by the caller from its parameter set; this package
// only stores data and counts traffic.
package mem

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// LineSize is the cacheline (and persist-buffer entry) granularity in
// bytes, fixed at 64 as in the paper.
const LineSize = 64

// LineAddr returns the line-aligned base of addr.
func LineAddr(addr int64) int64 { return addr &^ (LineSize - 1) }

const pageSize = 1 << 16

// NVM is a sparse byte-addressable nonvolatile memory.
type NVM struct {
	pages map[int64]*[pageSize]byte
	size  int64

	// One-entry page cache: simulated accesses are heavily clustered, so
	// remembering the last page touched turns most map lookups into a
	// single compare.
	lastBase int64
	lastPage *[pageSize]byte

	// Traffic counters. Reads/Writes count word- or byte-granular
	// accesses; LineReads/LineWrites count 64-byte transfers (cache
	// fills, writebacks, buffer traffic).
	Reads      uint64
	Writes     uint64
	LineReads  uint64
	LineWrites uint64
}

// New returns an NVM of the given byte capacity.
func New(size int64) *NVM {
	return &NVM{pages: map[int64]*[pageSize]byte{}, size: size, lastBase: -1}
}

// Size returns the configured capacity in bytes.
func (m *NVM) Size() int64 { return m.size }

func (m *NVM) page(addr int64) *[pageSize]byte {
	if addr < 0 || addr >= m.size {
		panic(fmt.Sprintf("mem: address %#x out of range [0,%#x)", addr, m.size))
	}
	base := addr &^ (pageSize - 1)
	if base == m.lastBase {
		return m.lastPage
	}
	p := m.pages[base]
	if p == nil {
		p = new([pageSize]byte)
		m.pages[base] = p
	}
	m.lastBase, m.lastPage = base, p
	return p
}

// peekByte reads without counting traffic.
func (m *NVM) peekByte(addr int64) byte {
	return m.page(addr)[addr&(pageSize-1)]
}

func (m *NVM) pokeByte(addr int64, v byte) {
	m.page(addr)[addr&(pageSize-1)] = v
}

// PeekWord reads a little-endian 64-bit word without counting traffic;
// used by recovery protocols, initialization, and tests.
func (m *NVM) PeekWord(addr int64) int64 {
	if off := addr & (pageSize - 1); off <= pageSize-8 && addr >= 0 && addr+8 <= m.size {
		p := m.page(addr)
		return int64(binary.LittleEndian.Uint64(p[off : off+8]))
	}
	var v uint64 // word straddles a page boundary: byte-at-a-time
	for i := int64(0); i < 8; i++ {
		v |= uint64(m.peekByte(addr+i)) << (8 * i)
	}
	return int64(v)
}

// PokeWord writes a word without counting traffic.
func (m *NVM) PokeWord(addr, val int64) {
	if off := addr & (pageSize - 1); off <= pageSize-8 && addr >= 0 && addr+8 <= m.size {
		p := m.page(addr)
		binary.LittleEndian.PutUint64(p[off:off+8], uint64(val))
		return
	}
	for i := int64(0); i < 8; i++ {
		m.pokeByte(addr+i, byte(uint64(val)>>(8*i)))
	}
}

// PokeByte writes a byte without counting traffic.
func (m *NVM) PokeByte(addr int64, v byte) { m.pokeByte(addr, v) }

// PokeImage bulk-writes a byte run starting at addr without counting
// traffic. It is equivalent to poking each byte in order but copies a
// page-sized chunk at a time, so loading a program's data image costs a
// few memcpys instead of a page lookup per word.
func (m *NVM) PokeImage(addr int64, data []byte) {
	if addr < 0 || addr+int64(len(data)) > m.size {
		panic(fmt.Sprintf("mem: image [%#x,%#x) out of range [0,%#x)", addr, addr+int64(len(data)), m.size))
	}
	for len(data) > 0 {
		p := m.page(addr)
		n := copy(p[addr&(pageSize-1):], data)
		data = data[n:]
		addr += int64(n)
	}
}

// ReadWord performs a counted 64-bit read.
func (m *NVM) ReadWord(addr int64) int64 {
	m.Reads++
	return m.PeekWord(addr)
}

// WriteWord performs a counted 64-bit write.
func (m *NVM) WriteWord(addr, val int64) {
	m.Writes++
	m.PokeWord(addr, val)
}

// ReadByte performs a counted byte read.
func (m *NVM) ReadByteAt(addr int64) byte {
	m.Reads++
	return m.peekByte(addr)
}

// WriteByte performs a counted byte write.
func (m *NVM) WriteByteAt(addr int64, v byte) {
	m.Writes++
	m.pokeByte(addr, v)
}

// ReadLine copies the 64-byte line at the line-aligned addr into dst,
// counting one line read.
func (m *NVM) ReadLine(addr int64, dst *[LineSize]byte) {
	m.LineReads++
	if off := addr & (pageSize - 1); off&(LineSize-1) == 0 && addr >= 0 && addr+LineSize <= m.size {
		copy(dst[:], m.page(addr)[off:off+LineSize])
		return
	}
	for i := int64(0); i < LineSize; i++ {
		dst[i] = m.peekByte(addr + i)
	}
}

// PokeLine writes a 64-byte line without counting traffic (used for
// rename-commit mapping switches and test setup).
func (m *NVM) PokeLine(addr int64, src *[LineSize]byte) {
	if off := addr & (pageSize - 1); off&(LineSize-1) == 0 && addr >= 0 && addr+LineSize <= m.size {
		copy(m.page(addr)[off:off+LineSize], src[:])
		return
	}
	for i := int64(0); i < LineSize; i++ {
		m.pokeByte(addr+i, src[i])
	}
}

// WriteLine writes a 64-byte line, counting one line write.
func (m *NVM) WriteLine(addr int64, src *[LineSize]byte) {
	m.LineWrites++
	m.PokeLine(addr, src)
}

// ContentHash returns a SHA-256 digest of the memory contents over
// [0, size). All-zero pages hash identically whether or not they were ever
// materialized, so two NVMs with m.Equal(o) share a hash. Golden tests use
// this to pin final memory images without storing them.
func (m *NVM) ContentHash() [sha256.Size]byte {
	bases := make([]int64, 0, len(m.pages))
	for base, p := range m.pages {
		if *p != ([pageSize]byte{}) {
			bases = append(bases, base)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	h := sha256.New()
	var hdr [8]byte
	for _, base := range bases {
		binary.LittleEndian.PutUint64(hdr[:], uint64(base))
		h.Write(hdr[:])
		h.Write(m.pages[base][:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Equal reports whether the contents of m and o are byte-identical over
// [0, max(sizes)); used by crash-consistency tests.
func (m *NVM) Equal(o *NVM) bool {
	return m.FirstDiff(o) < 0
}

// FirstDiff returns the lowest address at which m and o differ, or -1.
func (m *NVM) FirstDiff(o *NVM) int64 {
	seen := map[int64]bool{}
	for base := range m.pages {
		seen[base] = true
	}
	for base := range o.pages {
		seen[base] = true
	}
	first := int64(-1)
	for base := range seen {
		a, b := m.pages[base], o.pages[base]
		for i := 0; i < pageSize; i++ {
			var av, bv byte
			if a != nil {
				av = a[i]
			}
			if b != nil {
				bv = b[i]
			}
			if av != bv {
				addr := base + int64(i)
				if first < 0 || addr < first {
					first = addr
				}
				break
			}
		}
	}
	return first
}
