package fault

import (
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// Tests build partition events with PartitionLinkAt and count delivered
// events with Fired.

// PartitionLinkAt appends a partition of link a—b for the window [t, t+d).
func (s *Schedule) PartitionLinkAt(t sim.Time, a, b topo.SocketID, d sim.Time) *Schedule {
	s.Events = append(s.Events, Event{At: t, Kind: PartitionLink, A: a, B: b, For: d})
	return s
}

// Fired returns the number of events delivered so far.
func (i *Injector) Fired() int { return i.fired }
