// Package fault is a seeded, deterministic fault-schedule engine for the
// simulated multikernel machine. A Schedule is a list of timed fault events —
// fail-stop a core at cycle T, degrade or partition an interconnect link for
// a window, stall a cache-line owner — generated either explicitly or from a
// seed, and an Injector arms it onto a simulation: kills become sim.Engine
// proc kills (delivered through registered OnKill hooks, so the OS layer
// decides what "core death" means), link faults become interconnect.Fabric
// degradations, and stalls become cache owner-stall windows.
//
// Determinism contract: a schedule is pure data derived only from its seed
// and spec, and the Injector delivers every event through engine callbacks at
// exact virtual times. Two runs with the same engine seed and the same
// schedule are therefore bit-for-bit identical, at any host parallelism —
// the fault schedule is simply part of the experiment point's seed.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// Kind enumerates fault types.
type Kind uint8

const (
	// KillCore fail-stops a core at Event.At: its procs are killed and it
	// never responds again.
	KillCore Kind = iota
	// DegradeLink multiplies the latency of transfers crossing the link
	// A—B by Factor and retries lost transfers with probability Loss, for
	// the window [At, At+For).
	DegradeLink
	// PartitionLink is DegradeLink with total loss: every crossing pays the
	// fabric's full retry budget for the window [At, At+For).
	PartitionLink
	// StallCore freezes core Core's cache controller for [At, At+For):
	// fills served by it and probes to it wait out the window.
	StallCore
)

func (k Kind) String() string {
	switch k {
	case KillCore:
		return "kill"
	case DegradeLink:
		return "degrade"
	case PartitionLink:
		return "partition"
	case StallCore:
		return "stall"
	}
	return "?"
}

// Event is one timed fault.
type Event struct {
	At   sim.Time
	Kind Kind

	Core topo.CoreID   // KillCore, StallCore
	A, B topo.SocketID // DegradeLink, PartitionLink
	For  sim.Time      // window length (link and stall faults)

	Factor float64 // DegradeLink latency multiplier (>= 1)
	Loss   float64 // DegradeLink loss probability [0, 1]
}

func (ev Event) String() string {
	switch ev.Kind {
	case KillCore:
		return fmt.Sprintf("t=%d kill core %d", ev.At, ev.Core)
	case DegradeLink:
		return fmt.Sprintf("t=%d degrade link %d-%d x%.1f loss=%.2f for %d", ev.At, ev.A, ev.B, ev.Factor, ev.Loss, ev.For)
	case PartitionLink:
		return fmt.Sprintf("t=%d partition link %d-%d for %d", ev.At, ev.A, ev.B, ev.For)
	case StallCore:
		return fmt.Sprintf("t=%d stall core %d for %d", ev.At, ev.Core, ev.For)
	}
	return "?"
}

// Schedule is an ordered list of fault events.
type Schedule struct {
	Events []Event
}

// KillAt appends a fail-stop of core c at time t.
func (s *Schedule) KillAt(t sim.Time, c topo.CoreID) *Schedule {
	s.Events = append(s.Events, Event{At: t, Kind: KillCore, Core: c})
	return s
}

// DegradeLinkAt appends a degradation of link a—b for the window [t, t+d).
func (s *Schedule) DegradeLinkAt(t sim.Time, a, b topo.SocketID, d sim.Time, factor, loss float64) *Schedule {
	s.Events = append(s.Events, Event{At: t, Kind: DegradeLink, A: a, B: b, For: d, Factor: factor, Loss: loss})
	return s
}

// StallAt appends an owner-stall of core c's cache for the window [t, t+d).
func (s *Schedule) StallAt(t sim.Time, c topo.CoreID, d sim.Time) *Schedule {
	s.Events = append(s.Events, Event{At: t, Kind: StallCore, Core: c, For: d})
	return s
}

// Kills returns the cores fail-stopped by the schedule, in kill-time order.
func (s *Schedule) Kills() []topo.CoreID {
	type kill struct {
		at sim.Time
		c  topo.CoreID
	}
	var ks []kill
	for _, ev := range s.Events {
		if ev.Kind == KillCore {
			ks = append(ks, kill{ev.At, ev.Core})
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].at < ks[j].at })
	out := make([]topo.CoreID, len(ks))
	for i, k := range ks {
		out[i] = k.c
	}
	return out
}

// String renders the schedule one event per line, in time order.
func (s *Schedule) String() string {
	evs := append([]Event(nil), s.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	var b strings.Builder
	for _, ev := range evs {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Spec parameterizes Random schedule generation.
type Spec struct {
	Kills      int // fail-stopped cores (distinct, never from Protect)
	LinkFaults int // degraded-link windows
	Stalls     int // owner-stall windows

	// Window is the virtual-time interval faults are drawn from.
	Window [2]sim.Time
	// FaultFor is the duration of link and stall windows (default 200_000).
	FaultFor sim.Time
	// Factor and Loss parameterize link degradations (defaults 4 and 0.2).
	Factor float64
	Loss   float64
	// Protect lists cores that are never killed or stalled (typically the
	// initiating core, whose death would orphan the experiment's driver).
	Protect []topo.CoreID
}

// Random derives a schedule from seed for machine m. The schedule depends
// only on (seed, m, spec): it uses a private splitmix64 stream, never the
// engine RNG, so composing it with an engine run perturbs nothing else.
func Random(seed uint64, m *topo.Machine, spec Spec) *Schedule {
	rng := sim.NewRNG(seed ^ 0xfa17_5eed_9e37_79b9)
	lo, hi := spec.Window[0], spec.Window[1]
	if hi <= lo {
		hi = lo + 1
	}
	span := hi - lo
	if spec.FaultFor == 0 {
		spec.FaultFor = 200_000
	}
	if spec.Factor == 0 {
		spec.Factor = 4
	}
	if spec.Loss == 0 {
		spec.Loss = 0.2
	}
	protected := make(map[topo.CoreID]bool, len(spec.Protect))
	for _, c := range spec.Protect {
		protected[c] = true
	}

	s := &Schedule{}
	killed := make(map[topo.CoreID]bool)
	// Never kill so many cores that fewer than 2 survive.
	maxKills := m.NumCores() - 2 - len(spec.Protect)
	if spec.Kills < maxKills {
		maxKills = spec.Kills
	}
	for len(killed) < maxKills {
		c := topo.CoreID(rng.Intn(m.NumCores()))
		if protected[c] || killed[c] {
			continue
		}
		killed[c] = true
		s.KillAt(lo+rng.Time(span), c)
	}
	for i := 0; i < spec.LinkFaults && len(m.Links) > 0; i++ {
		l := m.Links[rng.Intn(len(m.Links))]
		s.DegradeLinkAt(lo+rng.Time(span), l.A, l.B, spec.FaultFor, spec.Factor, spec.Loss)
	}
	for i := 0; i < spec.Stalls; i++ {
		c := topo.CoreID(rng.Intn(m.NumCores()))
		if protected[c] || killed[c] {
			continue // a dead or protected core is not stalled; keep the count deterministic
		}
		s.StallAt(lo+rng.Time(span), c, spec.FaultFor)
	}
	return s
}

// Injector arms schedules onto a simulation.
type Injector struct {
	eng    *sim.Engine
	sys    *cache.System
	onKill []func(topo.CoreID)
	killed map[topo.CoreID]sim.Time
	fired  int
}

// NewInjector returns an injector for the given engine and cache system.
func NewInjector(e *sim.Engine, sys *cache.System) *Injector {
	i := &Injector{eng: e, sys: sys, killed: make(map[topo.CoreID]sim.Time)}
	e.Metrics().CounterFunc("fault.events_fired", func() uint64 { return uint64(i.fired) })
	return i
}

// OnKill registers a hook invoked (in registration order, in engine-callback
// context) when a KillCore event fires. The OS layer registers its notion of
// core death here — e.g. monitor.Network.FailStop.
func (i *Injector) OnKill(fn func(topo.CoreID)) { i.onKill = append(i.onKill, fn) }

// Arm schedules every event of s onto the engine. It may be called before or
// during a run; events whose time has passed fire immediately.
func (i *Injector) Arm(s *Schedule) {
	for _, ev := range s.Events {
		ev := ev
		d := ev.At
		if now := i.eng.Now(); d > now {
			d -= now
		} else {
			d = 0
		}
		i.eng.After(d, func() { i.fire(ev) })
	}
}

func (i *Injector) fire(ev Event) {
	i.fired++
	switch ev.Kind {
	case KillCore:
		if _, dead := i.killed[ev.Core]; dead {
			return
		}
		i.eng.Tracer().Emit(uint64(i.eng.Now()), trace.Instant, trace.SubSim, int32(ev.Core), "fault.kill", 0, 0)
		i.killed[ev.Core] = i.eng.Now()
		for _, fn := range i.onKill {
			fn(ev.Core)
		}
	case DegradeLink, PartitionLink:
		fab := i.sys.Fabric()
		d := interconnect.Degrade{DelayFactor: ev.Factor, LossProb: ev.Loss}
		name := "fault.degrade"
		if ev.Kind == PartitionLink {
			d = interconnect.Degrade{LossProb: 1}
			name = "fault.partition"
		}
		i.eng.Tracer().Emit(uint64(i.eng.Now()), trace.Instant, trace.SubSim, -1, name, uint64(ev.A)<<32|uint64(ev.B), uint64(ev.For))
		fab.SetDegrade(ev.A, ev.B, d)
		i.eng.After(ev.For, func() { fab.ClearDegrade(ev.A, ev.B) })
	case StallCore:
		if _, dead := i.killed[ev.Core]; !dead {
			i.eng.Tracer().Emit(uint64(i.eng.Now()), trace.Instant, trace.SubSim, int32(ev.Core), "fault.stall", 0, uint64(ev.For))
			i.sys.SetCoreStall(ev.Core, i.eng.Now()+ev.For)
		}
	}
}

// Killed reports whether the injector has fail-stopped core c, and when.
func (i *Injector) Killed(c topo.CoreID) (sim.Time, bool) {
	t, ok := i.killed[c]
	return t, ok
}
