package core

import (
	"fmt"

	"multikernel/internal/caps"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// This file implements the optimization the paper sketches at the end of
// §3.3 but does not pursue: "privately share a replica of system state
// between a group of closely-coupled cores or hardware threads, protected by
// a shared-memory synchronization technique like spinlocks. In this way we
// can introduce (limited) sharing behind the interface as an optimization of
// replication."
//
// With shared replicas enabled, the cores of each socket share one
// capability-space replica guarded by a socket-local spinlock (a real
// cache-line lock, so its cost rides the coherence model). Agreement
// protocols then involve only one participant per socket, trading fewer
// messages for intra-socket lock traffic — measured by the
// shared-replica ablation benchmark.

// replicaGroup is one socket's shared capability replica.
type replicaGroup struct {
	cs   *caps.CSpace
	lock memory.Addr
}

// enableSharedReplicas switches the system to per-socket capability
// replicas. Must run at boot, before any capability activity.
func (s *System) enableSharedReplicas() {
	m := s.Mach
	s.groups = make([]*replicaGroup, m.NSockets)
	for sk := 0; sk < m.NSockets; sk++ {
		s.groups[sk] = &replicaGroup{
			cs:   caps.NewCSpace(fmt.Sprintf("socket%d", sk)),
			lock: s.Mem.AllocLines(1, topo.SocketID(sk)).Base,
		}
	}
}

// Replica returns the capability space core c operates on: its own monitor's
// in the default configuration, its socket's shared one otherwise.
func (s *System) Replica(c topo.CoreID) *caps.CSpace {
	if s.groups != nil {
		return s.groups[s.Mach.Socket(c)].cs
	}
	return s.Net.Monitor(c).CS
}

// lockReplica takes the socket replica's spinlock from core c through the
// coherence model.
func (s *System) lockReplica(p *sim.Proc, c topo.CoreID) {
	g := s.groups[s.Mach.Socket(c)]
	for {
		acquired := false
		s.Cache.RMW(p, c, g.lock, func(v uint64) uint64 {
			if v == 0 {
				acquired = true
				return 1
			}
			return v
		})
		if acquired {
			return
		}
		for s.Cache.Load(p, c, g.lock) != 0 {
			p.Sleep(30)
		}
	}
}

func (s *System) unlockReplica(p *sim.Proc, c topo.CoreID) {
	g := s.groups[s.Mach.Socket(c)]
	s.Cache.Store(p, c, g.lock, 0)
}

// groupLeaders returns one core per socket (the lowest), the participant set
// for agreement protocols under shared replicas.
func (s *System) groupLeaders() []topo.CoreID {
	out := make([]topo.CoreID, s.Mach.NSockets)
	for sk := range out {
		out[sk] = s.Mach.CoresOf(topo.SocketID(sk))[0]
	}
	return out
}

// RetypeTargets returns the participant set for a global retype: every core
// by default, one leader per socket under shared replicas.
func (s *System) RetypeTargets() []topo.CoreID {
	if s.groups != nil {
		return s.groupLeaders()
	}
	return nil // nil means all cores to the monitor layer
}
