// Package memory models the simulated machine's physical memory: a sparse
// word-addressed store partitioned into 64-byte cache lines, each homed on a
// NUMA node (socket). Latency is not charged here — the cache model consults
// the machine's cost parameters — but data values and home-node placement
// are, so that messages really carry payloads and NUMA-aware allocation is a
// real placement decision.
//
// Both index structures are built for the simulator's access pattern rather
// than generality. Home-node placement is kept as a run-length list over the
// bump allocator's monotonically increasing address space, so allocating a
// region is O(1) regardless of its size (per-line bookkeeping made machine
// boot the single hottest operation in whole-experiment profiles). Word
// contents live in 4KiB pages indexed by a map keyed on page number. A
// direct-mapped lookaside of pageSlots entries in front of the map answers
// repeated accesses, including to absent pages, without a map lookup; the
// map stays the one record that checkpoints read.
package memory

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"multikernel/internal/ckpt"
	"multikernel/internal/topo"
)

// Addr is a simulated physical byte address. Word accesses must be 8-byte
// aligned.
type Addr uint64

// LineSize is the cache-line size in bytes.
const LineSize = 64

// WordsPerLine is the number of 64-bit words in a cache line.
const WordsPerLine = LineSize / 8

// LineID identifies a cache line (Addr / LineSize).
type LineID uint64

// Line returns the line containing a.
func (a Addr) Line() LineID { return LineID(a / LineSize) }

// LineBase returns the first address of line l.
func (l LineID) Base() Addr { return Addr(l) * LineSize }

// Region is an allocated range of physical memory.
type Region struct {
	Base  Addr
	Bytes uint64
}

// LineAt returns the base address of the i'th line of the region.
func (r Region) LineAt(i int) Addr { return r.Base + Addr(i*LineSize) }

// pageShift selects 4KiB pages (512 words) for the backing store.
const (
	pageShift = 12
	pageWords = (1 << pageShift) / 8
)

type page [pageWords]uint64

// pageSlots is the size of the direct-mapped page lookaside, 16 KiB per
// Memory. The 32 monitors of mkperf's unmap32 poll 992 URPC ring pages: at
// 256 slots pageFor missed on 96% of calls there, at 1,024 on none.
const pageSlots = 1024

// pageSlot is one lookaside entry. A nil pg records that the page is absent;
// an empty slot holds key ^0, which no address maps to.
type pageSlot struct {
	key Addr
	pg  *page
}

// homeRun records that lines starting at start (up to the next run) are
// homed on home. Runs are appended in ascending start order by the bump
// allocator.
type homeRun struct {
	start LineID
	home  topo.SocketID
}

// Memory is the physical memory of one simulated machine.
type Memory struct {
	m     *topo.Machine
	next  Addr
	homes []homeRun // run-length home index, ascending by start
	pages map[Addr]*page

	// lookaside holds recently used entries of pages, present or absent, at
	// key%pageSlots. It is host state only: RestoreState empties it.
	lookaside [pageSlots]pageSlot
}

// New returns an empty memory for machine m. Address 0 is never allocated so
// it can serve as a null value.
func New(m *topo.Machine) *Memory {
	mem := &Memory{
		m:     m,
		next:  LineSize, // keep line 0 unused
		pages: make(map[Addr]*page),
	}
	mem.clearLookaside()
	return mem
}

// Alloc reserves bytes of line-aligned memory homed on the given socket and
// returns the region. Allocations are rounded up to whole lines.
func (mem *Memory) Alloc(bytes int, home topo.SocketID) Region {
	if bytes <= 0 {
		panic("memory: allocation must be positive")
	}
	if int(home) < 0 || int(home) >= mem.m.NSockets {
		panic(fmt.Sprintf("memory: home socket %d out of range", home))
	}
	lines := (bytes + LineSize - 1) / LineSize
	r := Region{Base: mem.next, Bytes: uint64(lines * LineSize)}
	if n := len(mem.homes); n == 0 || mem.homes[n-1].home != home {
		mem.homes = append(mem.homes, homeRun{start: r.Base.Line(), home: home})
	}
	mem.next += Addr(lines * LineSize)
	return r
}

// AllocLines reserves n cache lines homed on the given socket.
func (mem *Memory) AllocLines(n int, home topo.SocketID) Region {
	return mem.Alloc(n*LineSize, home)
}

// Home returns the NUMA home socket of the line containing a. Unallocated
// addresses are homed on socket 0.
func (mem *Memory) Home(a Addr) topo.SocketID {
	if a >= mem.next || len(mem.homes) == 0 {
		return 0
	}
	l := a.Line()
	if l < mem.homes[0].start {
		return 0
	}
	// Find the last run starting at or before l.
	i := sort.Search(len(mem.homes), func(i int) bool { return mem.homes[i].start > l })
	return mem.homes[i-1].home
}

// pageFor returns the page containing a, creating it if create is set.
// It returns nil for an absent page when create is false.
func (mem *Memory) pageFor(a Addr, create bool) *page {
	key := a >> pageShift
	e := &mem.lookaside[key%pageSlots]
	if e.key != key {
		e.key, e.pg = key, mem.pages[key]
	}
	if e.pg == nil && create {
		e.pg = new(page)
		mem.pages[key] = e.pg
	}
	return e.pg
}

// clearLookaside empties every lookaside slot.
func (mem *Memory) clearLookaside() {
	for i := range mem.lookaside {
		mem.lookaside[i] = pageSlot{key: ^Addr(0)}
	}
}

// LoadWord returns the 64-bit word at a, which must be 8-byte aligned.
func (mem *Memory) LoadWord(a Addr) uint64 {
	if a%8 != 0 {
		panic(fmt.Sprintf("memory: misaligned load at %#x", uint64(a)))
	}
	pg := mem.pageFor(a, false)
	if pg == nil {
		return 0
	}
	return pg[(a%(1<<pageShift))/8]
}

// StoreWord writes the 64-bit word at a, which must be 8-byte aligned.
func (mem *Memory) StoreWord(a Addr, v uint64) {
	if a%8 != 0 {
		panic(fmt.Sprintf("memory: misaligned store at %#x", uint64(a)))
	}
	pg := mem.pageFor(a, v != 0)
	if pg == nil {
		return // storing zero into an untouched page is a no-op
	}
	pg[(a%(1<<pageShift))/8] = v
}

// LoadLine returns the 8 words of the line containing a.
func (mem *Memory) LoadLine(a Addr) [WordsPerLine]uint64 {
	base := a.Line().Base()
	var out [WordsPerLine]uint64
	pg := mem.pageFor(base, false)
	if pg == nil {
		return out
	}
	copy(out[:], pg[(base%(1<<pageShift))/8:])
	return out
}

// LoadInto fills dst with the len(dst) bytes starting at a; the caller owns
// dst, so a receive path reuses its buffer. Byte access is implemented over
// the word store, so it interoperates with word writes: word i holds bytes
// 8i to 8i+7, little-endian. Each page's run is copied at once, in whole
// words between its edge bytes.
func (mem *Memory) LoadInto(a Addr, dst []byte) {
	n := len(dst)
	for i := 0; i < n; {
		off := int((a + Addr(i)) % (1 << pageShift))
		run := dst[i:min(n, i+1<<pageShift-off)]
		if pg := mem.pageFor(a+Addr(i), false); pg != nil {
			j := 0
			for ; j < len(run) && (off+j)%8 != 0; j++ {
				run[j] = pg.byteAt(off + j)
			}
			for ; j+8 <= len(run); j += 8 {
				binary.LittleEndian.PutUint64(run[j:], pg[(off+j)/8])
			}
			for ; j < len(run); j++ {
				run[j] = pg.byteAt(off + j)
			}
		} else {
			clear(run) // an untouched page reads as zeros
		}
		i += len(run)
	}
}

// StoreBytes writes b starting at address a, creating every page it
// touches. Each page's run is written at once, as LoadInto reads it.
func (mem *Memory) StoreBytes(a Addr, b []byte) {
	for i := 0; i < len(b); {
		off := int((a + Addr(i)) % (1 << pageShift))
		run := b[i:min(len(b), i+1<<pageShift-off)]
		pg := mem.pageFor(a+Addr(i), true)
		j := 0
		for ; j < len(run) && (off+j)%8 != 0; j++ {
			pg.setByte(off+j, run[j])
		}
		for ; j+8 <= len(run); j += 8 {
			pg[(off+j)/8] = binary.LittleEndian.Uint64(run[j:])
		}
		for ; j < len(run); j++ {
			pg.setByte(off+j, run[j])
		}
		i += len(run)
	}
}

// byteAt returns the byte at offset off of the page.
func (pg *page) byteAt(off int) byte { return byte(pg[off/8] >> (8 * (off % 8))) }

// setByte writes the byte at offset off of the page.
func (pg *page) setByte(off int, c byte) {
	w, shift := &pg[off/8], 8*(off%8)
	*w = *w&^(0xff<<shift) | uint64(c)<<shift
}

// Size returns the total allocated bytes.
func (mem *Memory) Size() uint64 { return uint64(mem.next) - LineSize }

// CheckpointState serializes the allocator frontier, the home-run index and
// every backing page (sorted by page number), implementing sim.Checkpointer.
func (mem *Memory) CheckpointState(w io.Writer) error {
	if err := ckpt.WriteU64(w, uint64(mem.next), uint64(len(mem.homes))); err != nil {
		return err
	}
	for _, h := range mem.homes {
		if err := ckpt.WriteU64(w, uint64(h.start), uint64(h.home)); err != nil {
			return err
		}
	}
	keys := make([]Addr, 0, len(mem.pages))
	for k := range mem.pages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if err := ckpt.WriteU64(w, uint64(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := ckpt.WriteU64(w, uint64(k)); err != nil {
			return err
		}
		if err := ckpt.WriteU64(w, mem.pages[k][:]...); err != nil {
			return err
		}
	}
	return nil
}

// RestoreState replaces the memory's contents with a serialized image. The
// tables grow as their records arrive rather than being sized from the
// image's counts, so a corrupt count fails at the end of the image instead of
// allocating whatever the count says. Home runs must ascend and name a
// socket of this machine, and page numbers must strictly ascend, as
// CheckpointState writes them.
func (mem *Memory) RestoreState(r io.Reader) error {
	var next, nhomes uint64
	if err := ckpt.ReadU64(r, &next, &nhomes); err != nil {
		return err
	}
	var homes []homeRun
	for range nhomes {
		var start, home uint64
		if err := ckpt.ReadU64(r, &start, &home); err != nil {
			return err
		}
		if home >= uint64(mem.m.NSockets) {
			return fmt.Errorf("memory: image homes lines on socket %d; machine has %d", home, mem.m.NSockets)
		}
		if n := len(homes); n > 0 && LineID(start) <= homes[n-1].start {
			return fmt.Errorf("memory: image home runs out of order at line %#x", start)
		}
		homes = append(homes, homeRun{start: LineID(start), home: topo.SocketID(home)})
	}
	var npages uint64
	if err := ckpt.ReadU64(r, &npages); err != nil {
		return err
	}
	var prev Addr
	pages := make(map[Addr]*page)
	for i := range npages {
		var key uint64
		if err := ckpt.ReadU64(r, &key); err != nil {
			return err
		}
		if i > 0 && Addr(key) <= prev {
			return fmt.Errorf("memory: image pages out of order at page %#x", key)
		}
		prev = Addr(key)
		pg := new(page)
		for j := range pg {
			if err := ckpt.ReadU64(r, &pg[j]); err != nil {
				return err
			}
		}
		pages[Addr(key)] = pg
	}
	mem.next = Addr(next)
	mem.homes = homes
	mem.pages = pages
	mem.clearLookaside()
	return nil
}
