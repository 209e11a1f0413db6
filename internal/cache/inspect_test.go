package cache

import (
	"fmt"

	"multikernel/internal/interconnect"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// The tests read a core's MOESI state through StateOf, evict copies with
// Flush and check the directory with CheckInvariants. The model itself keeps
// only the directory entry (holders, owner, dirty); no simulated code path
// asks for a per-core state name.

// State is a MOESI line state as seen by one cache.
type State uint8

// MOESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return "?"
}

// StateOf returns core c's MOESI state for the line containing a.
func (s *System) StateOf(c topo.CoreID, a memory.Addr) State {
	l := s.lines[a.Line()]
	if l == nil || !l.holds(c) {
		return Invalid
	}
	if topo.CoreID(l.owner) == c {
		alone := !l.holders.HasOther(c)
		if l.dirty {
			if alone {
				return Modified
			}
			return Owned
		}
		if alone {
			return Exclusive
		}
		return Shared
	}
	return Shared
}

// Flush removes core c's copy of the line containing a (clflush-style),
// writing back if dirty.
func (s *System) Flush(p *sim.Proc, c topo.CoreID, a memory.Addr) {
	l := s.lines[a.Line()]
	if l == nil || !l.holds(c) {
		p.Sleep(1)
		return
	}
	var before LineView
	if s.audit != nil {
		before = l.view()
	}
	writeback := false
	l.holders.Del(c)
	if topo.CoreID(l.owner) == c {
		l.owner = -1
		if l.dirty {
			l.dirty = false
			writeback = true
		}
	}
	if s.audit != nil {
		s.audited(a.Line(), AuditFlush, c, before, l, 0)
	}
	l.changed() // a dropped copy, as on every write path
	if writeback {
		home := s.home(l, a)
		if cs := s.mach.Socket(c); cs != home {
			s.fab.Charge(cs, home, interconnect.DwordsData)
		}
		p.Sleep(s.mach.MemLat(c, home))
		return
	}
	p.Sleep(1)
}

// CheckInvariants panics if any line violates the MOESI single-owner rules.
func (s *System) CheckInvariants() {
	for id, l := range s.lines {
		if l.owner >= 0 && !l.holds(topo.CoreID(l.owner)) {
			panic(fmt.Sprintf("cache: line %#x owner %d not a holder", id, l.owner))
		}
		if l.dirty && l.owner < 0 {
			panic(fmt.Sprintf("cache: line %#x dirty without owner", id))
		}
	}
}

// HeldWord reports whether core c holds the line containing a, and if so
// the word at a, counting and recording nothing.
func (s *System) HeldWord(c topo.CoreID, a memory.Addr) (uint64, bool) {
	if s.held(c, a) == nil {
		return 0, false
	}
	return s.mem.LoadWord(a), true
}
