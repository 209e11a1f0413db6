// Package vm implements the multikernel's virtual memory system (paper
// §4.7–4.8): real 4-level page tables stored in simulated physical memory and
// manipulated through capability operations, per-core TLBs, and unmap/protect
// operations that invalidate the page-table entry and then run the monitors'
// one-phase-commit shootdown so that no stale translation survives anywhere —
// the end-to-end path measured in the paper's Figure 7.
//
// All page-table reads and writes go through the cache model, so walks cost
// real (simulated) time and page-table lines migrate between cores like any
// other memory.
package vm

import (
	"errors"
	"fmt"

	"multikernel/internal/cache"
	"multikernel/internal/caps"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// VAddr is a simulated virtual address.
type VAddr uint64

// PageSize is the only supported page size.
const PageSize = 4096

// ptEntries is the number of entries per page-table node.
const ptEntries = 512

// pte flag bits (low bits of the entry; physical addresses are page-aligned).
const (
	pteP uint64 = 1 << 0 // present
	pteW uint64 = 1 << 1 // writable
)

// Flags control a mapping's permissions.
type Flags uint8

// Mapping permission flags.
const (
	Read  Flags = 1 << iota
	Write       // mapping is writable
)

// Errors returned by VM operations.
var (
	ErrNotMapped  = errors.New("vm: address not mapped")
	ErrPerms      = errors.New("vm: permission violation")
	ErrNotAFrame  = errors.New("vm: capability is not a mappable frame")
	ErrBadAlign   = errors.New("vm: address not page aligned")
	ErrOutOfPTMem = errors.New("vm: out of page-table memory")
)

// tlbEntry is one cached translation.
type tlbEntry struct {
	pa       memory.Addr
	writable bool
}

type tlbKey struct {
	space uint8
	va    VAddr
}

// TLB is one core's translation cache.
type TLB struct {
	capacity int
	entries  map[tlbKey]tlbEntry
	order    []tlbKey // FIFO eviction order
}

func newTLB(capacity int) *TLB {
	return &TLB{capacity: capacity, entries: make(map[tlbKey]tlbEntry)}
}

func (t *TLB) lookup(k tlbKey) (tlbEntry, bool) {
	e, ok := t.entries[k]
	return e, ok
}

func (t *TLB) insert(k tlbKey, e tlbEntry) {
	if _, exists := t.entries[k]; !exists {
		for len(t.entries) >= t.capacity {
			victim := t.order[0]
			t.order = t.order[1:]
			delete(t.entries, victim)
		}
		t.order = append(t.order, k)
	}
	t.entries[k] = e
}

// invalidate drops translations for the page range. It returns the number of
// entries removed.
func (t *TLB) invalidate(space uint8, va VAddr, pages int) int {
	n := 0
	for i := 0; i < pages; i++ {
		k := tlbKey{space, va + VAddr(i*PageSize)}
		if _, ok := t.entries[k]; ok {
			delete(t.entries, k)
			n++
		}
	}
	// Lazily compact the order list.
	if n > 0 {
		keep := t.order[:0]
		for _, k := range t.order {
			if _, ok := t.entries[k]; ok {
				keep = append(keep, k)
			}
		}
		t.order = keep
	}
	return n
}

// Space is one virtual address space: a root page table plus the capability
// machinery to grow it.
type Space struct {
	ID   uint8
	cs   *caps.CSpace
	ram  caps.Ref // untyped memory for page-table allocation
	used uint64   // bytes of ram consumed by page tables
	root memory.Addr
	mgr  *Manager
}

// Manager owns the VM state of one machine: per-core TLBs and the IDs of
// its address spaces.
type Manager struct {
	sys    *cache.System
	tlbs   []*TLB
	nextID uint8
}

// NewManager creates a VM manager with per-core TLBs of the given capacity
// (0 means a realistic default of 64 entries).
func NewManager(sys *cache.System, tlbSize int) *Manager {
	if tlbSize <= 0 {
		tlbSize = 64
	}
	m := &Manager{sys: sys}
	for i := 0; i < sys.Machine().NumCores(); i++ {
		m.tlbs = append(m.tlbs, newTLB(tlbSize))
	}
	return m
}

// allocPT retypes one page of untyped memory into a page-table node and
// returns its physical address, zeroed.
func (s *Space) allocPT(p *sim.Proc, core topo.CoreID, level int) (memory.Addr, error) {
	ram, err := s.cs.Get(s.ram)
	if err != nil {
		return 0, err
	}
	// Carve the next free page from the RAM cap by minting a smaller RAM cap
	// and retyping it. Track consumption in the space.
	if s.used+PageSize > ram.Bytes {
		return 0, ErrOutOfPTMem
	}
	base := ram.Base + memory.Addr(s.used)
	s.used += PageSize
	sub := s.cs.AddRoot(caps.Capability{Type: caps.RAM, Base: base, Bytes: PageSize, Rights: ram.Rights})
	if _, err := s.cs.Retype(sub, caps.PageTable, level, PageSize, 1); err != nil {
		return 0, err
	}
	// The CPU driver zeroes page tables on retype; charge a page-write cost.
	p.Sleep(120)
	return base, nil
}

// pteAddr returns the physical address of the level-N entry for va within
// the table at base.
func pteAddr(base memory.Addr, level int, va VAddr) memory.Addr {
	shift := uint(12 + 9*(level-1))
	idx := (uint64(va) >> shift) & (ptEntries - 1)
	return base + memory.Addr(idx*8)
}

// NewSpace creates an address space whose page tables are allocated (via
// capability retypes) from the RAM capability ramRef in cs.
func (m *Manager) NewSpace(p *sim.Proc, core topo.CoreID, cs *caps.CSpace, ramRef caps.Ref) (*Space, error) {
	m.nextID++
	s := &Space{ID: m.nextID, cs: cs, ram: ramRef, mgr: m}
	root, err := s.allocPT(p, core, 4)
	if err != nil {
		return nil, err
	}
	s.root = root
	return s, nil
}

// Map installs a translation from va to the frame capability frameRef with
// the given permissions. Intermediate page tables are allocated on demand.
// The CPU driver's only role is checking the capability types (§4.7).
func (s *Space) Map(p *sim.Proc, core topo.CoreID, va VAddr, frameRef caps.Ref, flags Flags) error {
	if uint64(va)%PageSize != 0 {
		return ErrBadAlign
	}
	frame, err := s.cs.Get(frameRef)
	if err != nil {
		return err
	}
	if frame.Type != caps.Frame && frame.Type != caps.DevFrame {
		return ErrNotAFrame
	}
	if flags&Write != 0 && frame.Rights&caps.CanWrite == 0 {
		return ErrPerms
	}
	sys := s.mgr.sys
	table := s.root
	for level := 4; level > 1; level-- {
		ea := pteAddr(table, level, va)
		e := sys.Load(p, core, ea)
		if e&pteP == 0 {
			nt, err := s.allocPT(p, core, level-1)
			if err != nil {
				return err
			}
			e = uint64(nt) | pteP | pteW
			sys.Store(p, core, ea, e)
		}
		table = memory.Addr(e &^ (PageSize - 1))
	}
	leaf := uint64(frame.Base) | pteP
	if flags&Write != 0 {
		leaf |= pteW
	}
	sys.Store(p, core, pteAddr(table, 1, va), leaf)
	return nil
}

// walk performs a page-table walk from core, charging one load per level.
func (s *Space) walk(p *sim.Proc, core topo.CoreID, va VAddr) (tlbEntry, error) {
	sys := s.mgr.sys
	table := s.root
	for level := 4; level > 1; level-- {
		e := sys.Load(p, core, pteAddr(table, level, va))
		if e&pteP == 0 {
			return tlbEntry{}, ErrNotMapped
		}
		table = memory.Addr(e &^ (PageSize - 1))
	}
	e := sys.Load(p, core, pteAddr(table, 1, va&^VAddr(PageSize-1)))
	if e&pteP == 0 {
		return tlbEntry{}, ErrNotMapped
	}
	return tlbEntry{pa: memory.Addr(e &^ (PageSize - 1)), writable: e&pteW != 0}, nil
}

// Translate resolves va from core, using and filling the core's TLB.
func (s *Space) Translate(p *sim.Proc, core topo.CoreID, va VAddr, write bool) (memory.Addr, error) {
	page := va &^ VAddr(PageSize-1)
	t := s.mgr.tlbs[core]
	k := tlbKey{s.ID, page}
	e, ok := t.lookup(k)
	if !ok {
		p.Sleep(s.mgr.sys.Machine().Costs.TLBFill)
		var err error
		e, err = s.walk(p, core, page)
		if err != nil {
			return 0, err
		}
		t.insert(k, e)
	}
	if write && !e.writable {
		return 0, ErrPerms
	}
	return e.pa + memory.Addr(va-page), nil
}

// Access performs a load or store at va through the MMU.
func (s *Space) Access(p *sim.Proc, core topo.CoreID, va VAddr, write bool, val uint64) (uint64, error) {
	pa, err := s.Translate(p, core, va, write)
	if err != nil {
		return 0, err
	}
	if write {
		s.mgr.sys.Store(p, core, pa, val)
		return val, nil
	}
	return s.mgr.sys.Load(p, core, pa), nil
}

// Shootdowner is the monitor-side coordination the VM layer needs: it must
// guarantee that when it returns, every targeted core has run the
// invalidation hook. *monitor.Monitor's Unmap method satisfies the role; the
// wiring lives in the core package.
type Shootdowner func(p *sim.Proc, va VAddr, bytes uint64, space uint8) bool

// ClearPTE removes the leaf mapping for va (no shootdown; callers coordinate
// separately). It reports whether a mapping existed.
func (s *Space) ClearPTE(p *sim.Proc, core topo.CoreID, va VAddr) bool {
	sys := s.mgr.sys
	table := s.root
	for level := 4; level > 1; level-- {
		e := sys.Load(p, core, pteAddr(table, level, va))
		if e&pteP == 0 {
			return false
		}
		table = memory.Addr(e &^ (PageSize - 1))
	}
	ea := pteAddr(table, 1, va)
	if sys.Load(p, core, ea)&pteP == 0 {
		return false
	}
	sys.Store(p, core, ea, 0)
	return true
}

// SetProt rewrites the leaf PTE permissions for va. It reports whether a
// mapping existed.
func (s *Space) SetProt(p *sim.Proc, core topo.CoreID, va VAddr, flags Flags) bool {
	sys := s.mgr.sys
	table := s.root
	for level := 4; level > 1; level-- {
		e := sys.Load(p, core, pteAddr(table, level, va))
		if e&pteP == 0 {
			return false
		}
		table = memory.Addr(e &^ (PageSize - 1))
	}
	ea := pteAddr(table, 1, va)
	e := sys.Load(p, core, ea)
	if e&pteP == 0 {
		return false
	}
	e &^= pteW
	if flags&Write != 0 {
		e |= pteW
	}
	sys.Store(p, core, ea, e)
	return true
}

// Unmap removes the mapping for [va, va+bytes) and runs the provided
// shootdown so no TLB anywhere retains it. This is the paper's Figure 7
// operation: PTE clear, then monitor-coordinated invalidation.
func (s *Space) Unmap(p *sim.Proc, core topo.CoreID, va VAddr, bytes uint64, shoot Shootdowner) error {
	if uint64(va)%PageSize != 0 || bytes%PageSize != 0 {
		return ErrBadAlign
	}
	found := false
	for off := uint64(0); off < bytes; off += PageSize {
		if s.ClearPTE(p, core, va+VAddr(off)) {
			found = true
		}
	}
	if !found {
		return ErrNotMapped
	}
	if shoot != nil && !shoot(p, va, bytes, s.ID) {
		return fmt.Errorf("vm: shootdown failed for %#x", uint64(va))
	}
	return nil
}

// InvalidateRange is the hook body monitors run on each core during a
// shootdown: it drops the range's translations from that core's TLB.
func (m *Manager) InvalidateRange(core topo.CoreID, space uint8, va VAddr, bytes uint64) int {
	pages := int(bytes / PageSize)
	if pages == 0 {
		pages = 1
	}
	return m.tlbs[core].invalidate(space, va, pages)
}

// CheckNoStaleTLB panics if any core's TLB still maps a page of the given
// range — the correctness property of the shootdown protocol.
func (m *Manager) CheckNoStaleTLB(space uint8, va VAddr, bytes uint64) {
	for c, t := range m.tlbs {
		for off := uint64(0); off < bytes; off += PageSize {
			if _, ok := t.lookup(tlbKey{space, va + VAddr(off)}); ok {
				panic(fmt.Sprintf("vm: core %d holds stale TLB entry for %#x", c, uint64(va)+off))
			}
		}
	}
}
