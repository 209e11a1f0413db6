package kernel

import (
	"fmt"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// This file models the CPU driver's dispatch machinery (§4.3, §4.5): each
// core's driver time-slices dispatcher objects and enters them through the
// scheduler-activation upcall interface, and drivers can be coordinated to
// gang-schedule the dispatchers of one domain across cores (§4.8: "Barrelfish
// is responsible only for multiplexing the dispatchers on each core via the
// CPU driver scheduler, and coordinating the CPU drivers to perform, for
// example, gang scheduling or co-scheduling of dispatchers").
//
// The scheduler is a model: workloads that want scheduling effects run their
// compute through Dispatcher slices, accumulating virtual runtime, while the
// switch/upcall costs ride the machine's cost parameters.

// Dispatcher is one schedulable entity on one core (§4.5): the target of the
// CPU driver's upcalls.
type Dispatcher struct {
	Name     string
	Core     topo.CoreID
	runnable bool
	// Runtime is the dispatcher's accumulated execution time.
	Runtime sim.Time
	// Activations counts upcalls into this dispatcher.
	Activations uint64
	sched       *Scheduler
}

// Scheduler is one core's dispatcher scheduler: round-robin with a fixed
// timeslice, entirely core-local state (no other core can touch it).
type Scheduler struct {
	core      *Core
	Timeslice sim.Time
	queue     []*Dispatcher // rotation order; runnable and not
	current   *Dispatcher
	Switches  uint64
}

// NewScheduler creates the dispatcher scheduler for a core. A zero timeslice
// selects 1ms at the machine's clock.
func (c *Core) NewScheduler(timeslice sim.Time) *Scheduler {
	if timeslice == 0 {
		timeslice = sim.Time(c.mach.ClockGHz * 1e6) // 1ms
	}
	return &Scheduler{core: c, Timeslice: timeslice}
}

// Add registers a dispatcher, initially runnable.
func (s *Scheduler) Add(name string) *Dispatcher {
	d := &Dispatcher{Name: name, Core: s.core.ID, runnable: true, sched: s}
	s.queue = append(s.queue, d)
	return d
}

// Remove deregisters a dispatcher.
func (s *Scheduler) Remove(d *Dispatcher) {
	for i, q := range s.queue {
		if q == d {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	if s.current == d {
		s.current = nil
	}
}

// SetRunnable marks a dispatcher runnable or blocked (e.g. waiting on a
// channel; the monitor wakes it by marking it runnable again, §4.4).
func (s *Scheduler) SetRunnable(d *Dispatcher, on bool) {
	d.runnable = on
	if !on && s.current == d {
		s.current = nil
	}
}

// pickNext returns the next runnable dispatcher in rotation order, rotating
// the queue past it, or nil if none is runnable.
func (s *Scheduler) pickNext() *Dispatcher {
	for i := 0; i < len(s.queue); i++ {
		d := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue[len(s.queue)-1] = d
		if d.runnable {
			return d
		}
	}
	return nil
}

// RunSlice dispatches the next runnable dispatcher for one timeslice,
// charging the context switch and upcall when the dispatcher changes. It
// returns the dispatcher that ran, or nil if the core would idle (the caller
// models core sleep, §4.4).
func (s *Scheduler) RunSlice(p *sim.Proc) *Dispatcher {
	next := s.pickNext()
	if next == nil {
		s.current = nil
		return nil
	}
	if next != s.current {
		s.Switches++
		s.core.ContextSwitch(p)
		p.Sleep(s.core.mach.Costs.Upcall)
		next.Activations++
		s.current = next
	}
	p.Sleep(s.Timeslice)
	next.Runtime += s.Timeslice
	return next
}

// Gang is a set of dispatchers (one per core) belonging to one domain that
// should run simultaneously (§4.8).
type Gang struct {
	Name    string
	Members []*Dispatcher
}

// GangSchedule coordinates the CPU drivers so every member dispatcher is
// activated at a common time edge: the coordinator messages each member
// core's driver (IPI cost plus interconnect distance), each driver switches
// to the member, and the gang starts together at the time the slowest core
// is ready. It returns that synchronized start time.
func GangSchedule(p *sim.Proc, sys *System, coordinator topo.CoreID, g *Gang) sim.Time {
	if len(g.Members) == 0 {
		panic("kernel: empty gang")
	}
	mach := sys.Mach
	var latest sim.Time
	for _, d := range g.Members {
		// Coordination message to the member's CPU driver.
		var reach sim.Time
		if d.Core != coordinator {
			sys.Core(coordinator).stats.IPIsSent++
			p.Sleep(mach.Costs.IPIDeliver)
			reach = mach.TransferLat(d.Core, coordinator)
		}
		// The member core switches to the gang dispatcher on receipt.
		ready := p.Now() + reach + mach.Costs.Trap + mach.Costs.CSwitch + mach.Costs.Upcall
		if ready > latest {
			latest = ready
		}
		d.sched.current = d
		d.Activations++
	}
	return latest
}

// String implements fmt.Stringer.
func (d *Dispatcher) String() string {
	return fmt.Sprintf("dispatcher %s@cpu%d (runtime %d)", d.Name, d.Core, d.Runtime)
}
