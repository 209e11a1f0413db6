// Package core assembles the multikernel (the paper's primary contribution):
// it boots one CPU driver and one monitor per core of a simulated machine,
// wires the URPC mesh between monitors, populates the system knowledge base
// from discovery and online measurement, seeds per-core capability spaces,
// and exposes the OS services — domains spanning cores, virtual memory with
// coordinated unmap, globally-agreed capability retyping — that the
// evaluation exercises.
//
// The structure follows §4 of the paper: CPU drivers are purely local
// (package kernel); all inter-core coordination happens in the monitors
// (package monitor); state is replicated per core and kept consistent with
// one-phase and two-phase agreement protocols over URPC.
package core

import (
	"fmt"

	"multikernel/internal/cache"
	"multikernel/internal/caps"
	"multikernel/internal/interconnect"
	"multikernel/internal/kernel"
	"multikernel/internal/memory"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/skb"
	"multikernel/internal/threads"
	"multikernel/internal/topo"
	"multikernel/internal/vm"
)

// ramPerCore is the untyped memory granted to each core's monitor at boot.
const ramPerCore = 4 << 20

// System is one booted multikernel instance.
type System struct {
	Eng    *sim.Engine
	Mach   *topo.Machine
	Mem    *memory.Memory
	Fabric *interconnect.Fabric
	Cache  *cache.System
	Kern   *kernel.System
	KB     *skb.KB
	Net    *monitor.Network
	VM     *vm.Manager

	ramRefs []caps.Ref      // each monitor's boot-time untyped RAM capability
	groups  []*replicaGroup // per-socket shared replicas (§3.3 option), or nil
}

// Options configure Boot.
type Options struct {
	// SharedReplicas shares one capability replica per socket behind a
	// spinlock instead of one per core (§3.3's sharing-as-optimization).
	SharedReplicas bool

	// Coherence selects the machine's coherence protocol: Broadcast (the
	// zero value, snooping as on the paper machines) or Directory (home-node
	// sharer bitmaps with targeted probes, for scaled machines).
	Coherence cache.CoherenceMode
}

// spaceTag packs an address-space ID and virtual address into the physical
// range fields of a monitor.Op, so shootdown messages can carry the VM
// context. The VA occupies the low 48 bits.
func spaceTag(space uint8, va vm.VAddr) memory.Addr {
	return memory.Addr(uint64(space)<<48 | uint64(va)&(1<<48-1))
}

func splitSpaceTag(a memory.Addr) (space uint8, va vm.VAddr) {
	return uint8(uint64(a) >> 48), vm.VAddr(uint64(a) & (1<<48 - 1))
}

// Boot brings up a multikernel on the machine: hardware models, CPU drivers,
// monitors with their URPC mesh, the SKB (discovery plus pairwise latency
// measurement), the VM system and per-core capability spaces.
func Boot(e *sim.Engine, m *topo.Machine) *System {
	return BootWith(e, m, Options{})
}

// BootWith is Boot with explicit configuration.
func BootWith(e *sim.Engine, m *topo.Machine, opts Options) *System {
	return bootWith(e, m, opts, nil)
}

// bootWith is the shared boot sequence. partition, when non-nil, runs right
// after the cache system exists and before anything allocates channels or
// spawns procs — the one point where a parallel boot marks the replica's
// partition (every later layer consults cache.System.LocalCore/ShareRegion).
func bootWith(e *sim.Engine, m *topo.Machine, opts Options, partition func(s *System)) *System {
	s := &System{Eng: e, Mach: m}
	s.Mem = memory.New(m)
	s.Fabric = interconnect.New(m)
	s.Cache = cache.New(e, m, s.Mem, s.Fabric)
	s.Cache.SetMode(opts.Coherence)
	if partition != nil {
		partition(s)
	}
	s.Kern = kernel.NewSystem(e, m)
	s.KB = skb.New(m)
	s.KB.Discover()
	// Online measurement: the boot-time URPC latency probe between all core
	// pairs (§4.9). The probe uses the machine model directly, standing in
	// for the measurement channels Barrelfish sets up during boot.
	s.KB.Measure(func(a, b topo.CoreID) sim.Time {
		return 2*m.TransferLat(b, a) + 160
	})
	s.VM = vm.NewManager(s.Cache, 0)

	hooks := monitor.Hooks{
		Invalidate: func(p *sim.Proc, core topo.CoreID, op monitor.Op) {
			space, va := splitSpaceTag(op.Base)
			s.VM.InvalidateRange(core, space, va, op.Bytes)
		},
		Prepare: func(p *sim.Proc, core topo.CoreID, op monitor.Op) bool {
			return s.prepareRetype(p, core, op)
		},
		Apply: func(p *sim.Proc, core topo.CoreID, op monitor.Op) {
			s.applyRetype(p, core, op)
		},
	}
	s.Net = monitor.NewNetwork(e, s.Cache, s.Kern, s.KB, hooks)
	if opts.SharedReplicas {
		s.enableSharedReplicas()
	}
	// Checkpoint participation: memory pages, the MOESI directory and the
	// monitor network (with its URPC mesh cursors) travel with the engine
	// image, so a booted system can be saved once and warm-started per sweep
	// point. Restoring requires rebuilding with the same machine and options
	// — BootWith is its own restore builder.
	e.RegisterCheckpoint("memory", s.Mem)
	e.RegisterCheckpoint("cache", s.Cache)
	e.RegisterCheckpoint("monitor", s.Net)

	// Grant each monitor an untyped RAM region for page tables and objects.
	for c := 0; c < m.NumCores(); c++ {
		reg := s.Mem.Alloc(ramPerCore, m.Socket(topo.CoreID(c)))
		ref := s.Net.Monitor(topo.CoreID(c)).CS.AddRoot(caps.Capability{
			Type: caps.RAM, Base: reg.Base, Bytes: reg.Bytes, Rights: caps.AllRights,
		})
		s.ramRefs = append(s.ramRefs, ref)
	}
	return s
}

// prepareRetype votes on a two-phase retype: it refuses if the core's
// capability space holds a typed (non-RAM) capability of a different type
// over the range — the §4.7 hazard the protocol exists to prevent.
func (s *System) prepareRetype(p *sim.Proc, core topo.CoreID, op monitor.Op) bool {
	if op.Kind == monitor.OpRevoke {
		return true
	}
	if s.groups != nil {
		s.lockReplica(p, core)
		defer s.unlockReplica(p, core)
	}
	probe := caps.Capability{Type: op.NewType, Level: op.Level, Base: op.Base, Bytes: op.Bytes}
	for _, c := range s.Replica(core).All() {
		if c.Type == caps.RAM || c.Type == caps.Null || !c.Overlaps(probe) {
			continue
		}
		same := c.Base == probe.Base && c.Bytes == probe.Bytes && c.Type == probe.Type && c.Level == probe.Level
		if !same {
			return false
		}
	}
	return true
}

// applyRetype installs the agreed typing in the core's replica, or removes
// overlapping replicas on revoke.
func (s *System) applyRetype(p *sim.Proc, core topo.CoreID, op monitor.Op) {
	cs := s.Replica(core)
	if s.groups != nil {
		s.lockReplica(p, core)
		defer s.unlockReplica(p, core)
	}
	if op.Kind == monitor.OpRevoke {
		// Remove every replica overlapping the revoked range.
		probe := caps.Capability{Base: op.Base, Bytes: op.Bytes}
		for _, n := range cs.Refs() {
			c, err := cs.Get(n)
			if err == nil && c.Type != caps.RAM && c.Overlaps(probe) {
				cs.Revoke(n)
				cs.Delete(n)
			}
		}
		return
	}
	cs.AddRoot(caps.Capability{
		Type: op.NewType, Level: op.Level, Base: op.Base, Bytes: op.Bytes,
		Rights: caps.AllRights,
	})
}

// GlobalRetype performs a machine-wide capability retype through the
// monitors' two-phase commit, reporting whether it committed.
func (s *System) GlobalRetype(p *sim.Proc, initiator topo.CoreID, base memory.Addr, bytes uint64, to caps.Type, level int) bool {
	return s.Net.Monitor(initiator).Retype(p, base, bytes, to, level, s.RetypeTargets())
}

// GlobalRevoke revokes a physical range everywhere via two-phase commit.
func (s *System) GlobalRevoke(p *sim.Proc, initiator topo.CoreID, base memory.Addr, bytes uint64) bool {
	return s.Net.Monitor(initiator).Revoke(p, base, bytes, s.RetypeTargets())
}

// CheckCapConsistency audits all per-core capability spaces for cross-core
// typing conflicts; it returns nil when the replicas agree.
func (s *System) CheckCapConsistency() error {
	if s.groups != nil {
		spaces := make([]*caps.CSpace, len(s.groups))
		for i, g := range s.groups {
			spaces[i] = g.cs
		}
		return caps.ConflictCheck(spaces...)
	}
	spaces := make([]*caps.CSpace, s.Mach.NumCores())
	for c := range spaces {
		spaces[c] = s.Net.Monitor(topo.CoreID(c)).CS
	}
	return caps.ConflictCheck(spaces...)
}

// Domain is a process spanning a set of cores: a thread team plus a shared
// virtual address space (§4.8).
type Domain struct {
	Name  string
	sys   *System
	Team  *threads.Team
	Space *vm.Space
	// The domain's frame allocator state.
	nextVA vm.VAddr
}

// NewDomain creates a domain on the given cores. Its page tables are
// allocated from the first core's monitor RAM via capability retypes.
func (s *System) NewDomain(p *sim.Proc, name string, cores []topo.CoreID) (*Domain, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("core: domain %q needs cores", name)
	}
	home := cores[0]
	space, err := s.VM.NewSpace(p, home, s.Net.Monitor(home).CS, s.ramRefs[home])
	if err != nil {
		return nil, err
	}
	return &Domain{
		Name:   name,
		sys:    s,
		Team:   threads.NewTeam(s.Cache, s.Kern, cores),
		Space:  space,
		nextVA: 0x4000_0000,
	}, nil
}

// MapAnon allocates physical memory, retypes it to a frame in the home
// core's capability space and maps it at a fresh virtual address.
func (d *Domain) MapAnon(p *sim.Proc, core topo.CoreID, bytes int, flags vm.Flags) (vm.VAddr, error) {
	mach := d.sys.Mach
	reg := d.sys.Mem.Alloc(bytes, mach.Socket(core))
	cs := d.sys.Net.Monitor(d.Team.Cores()[0]).CS
	ram := cs.AddRoot(caps.Capability{Type: caps.RAM, Base: reg.Base, Bytes: reg.Bytes, Rights: caps.AllRights})
	pages := int(reg.Bytes / vm.PageSize)
	frames, err := cs.Retype(ram, caps.Frame, 0, vm.PageSize, pages)
	if err != nil {
		return 0, err
	}
	va := d.nextVA
	for i := 0; i < pages; i++ {
		if err := d.Space.Map(p, core, va+vm.VAddr(i*vm.PageSize), frames[i], flags); err != nil {
			return 0, err
		}
	}
	d.nextVA += vm.VAddr(reg.Bytes)
	return va, nil
}

// Unmap removes [va, va+bytes) from the domain's address space and runs the
// monitors' shootdown protocol so no core retains a stale translation — the
// complete Figure 7 operation.
func (d *Domain) Unmap(p *sim.Proc, core topo.CoreID, va vm.VAddr, bytes uint64, protocol monitor.Protocol) error {
	mon := d.sys.Net.Monitor(core)
	shoot := func(p *sim.Proc, va vm.VAddr, bytes uint64, space uint8) bool {
		targets := d.Team.Cores()
		return mon.Unmap(p, spaceTag(space, va), bytes, targets, protocol)
	}
	return d.Space.Unmap(p, core, va, bytes, shoot)
}

// Protect downgrades [va, va+bytes) to the given permissions and shoots down
// stale TLB entries (the mprotect of Figure 7).
func (d *Domain) Protect(p *sim.Proc, core topo.CoreID, va vm.VAddr, bytes uint64, flags vm.Flags, protocol monitor.Protocol) error {
	for off := uint64(0); off < bytes; off += vm.PageSize {
		if !d.Space.SetProt(p, core, va+vm.VAddr(off), flags) {
			return vm.ErrNotMapped
		}
	}
	mon := d.sys.Net.Monitor(core)
	if !mon.Unmap(p, spaceTag(d.Space.ID, va), bytes, d.Team.Cores(), protocol) {
		return fmt.Errorf("core: protect shootdown failed")
	}
	return nil
}
