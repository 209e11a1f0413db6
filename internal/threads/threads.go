// Package threads implements the user-level threads package of Barrelfish's
// default library (paper §4.5, §4.8): dispatchers on each core run a
// core-local thread scheduler, and cross-core operations — spawning,
// joining, migrating threads — are performed by exchanging messages between
// dispatchers rather than by shared runqueues. Synchronization primitives
// (spinlocks, barriers) operate on shared cache lines through the coherence
// model, so their contention behaviour is emergent, which is what
// differentiates the compute-bound workloads of Figure 9 from their Linux
// counterparts.
package threads

import (
	"fmt"

	"multikernel/internal/cache"
	"multikernel/internal/kernel"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// xcoreSpawnCost is the dispatcher-to-dispatcher message handling cost for a
// remote thread operation, on top of the coherence traffic.
const xcoreSpawnCost = 350

// Team is a process: a shared virtual address space with one dispatcher per
// core it spans. (The address space itself is modelled by the vm package;
// Team handles scheduling and synchronization.)
type Team struct {
	sys   *cache.System
	kern  *kernel.System
	cores []topo.CoreID

	joinAll *sim.WaitGroup
}

// NewTeam creates a process spanning the given cores.
func NewTeam(sys *cache.System, kern *kernel.System, cores []topo.CoreID) *Team {
	if len(cores) == 0 {
		panic("threads: team needs at least one core")
	}
	return &Team{sys: sys, kern: kern, cores: cores, joinAll: sim.NewWaitGroup(kern.Eng)}
}

// Cores returns the cores the team spans.
func (t *Team) Cores() []topo.CoreID { return t.cores }

// Engine returns the team's simulation engine.
func (t *Team) Engine() *sim.Engine { return t.kern.Eng }

// Sys returns the team's cache system.
func (t *Team) Sys() *cache.System { return t.sys }

// Thread is one user-level thread, pinned to a core until migrated.
type Thread struct {
	Team *Team
	core topo.CoreID
	p    *sim.Proc
	done *sim.Future[struct{}]
}

// Core returns the core the thread currently runs on.
func (th *Thread) Core() topo.CoreID { return th.core }

// Proc exposes the underlying simulation proc (for integration with other
// packages).
func (th *Thread) Proc() *sim.Proc { return th.p }

// Go starts a thread on the given core. If the spawning context sits on a
// different core, the cross-core dispatcher message cost is charged to the
// new thread's startup.
func (t *Team) Go(from topo.CoreID, core topo.CoreID, name string, fn func(th *Thread)) *Thread {
	th := &Thread{Team: t, core: core}
	th.done = sim.NewFuture[struct{}](t.kern.Eng)
	t.joinAll.Add(1)
	remote := from != core && from >= 0
	th.p = t.kern.Eng.Spawn(fmt.Sprintf("%s@c%d", name, core), func(p *sim.Proc) {
		if remote {
			// The origin dispatcher sent a create message; the local
			// dispatcher handles it and enters the thread.
			p.Sleep(xcoreSpawnCost)
		}
		p.Sleep(t.sys.Machine().Costs.Upcall)
		fn(th)
		t.joinAll.Done()
		th.done.Complete(struct{}{})
	})
	return th
}

// Join blocks the calling thread until th completes.
func (th *Thread) Join(caller *Thread) {
	th.done.Await(caller.p)
	// Joining a remote thread requires a completion message.
	if caller.core != th.core {
		caller.p.Sleep(xcoreSpawnCost / 2)
	}
}

// JoinAll parks the proc until every thread of the team has finished.
func (t *Team) JoinAll(p *sim.Proc) { t.joinAll.Wait(p) }

// Compute charges cycles of pure computation with a small deterministic
// jitter, modelling per-core execution variance.
func (th *Thread) Compute(cycles sim.Time) {
	th.p.Sleep(th.p.Engine().RNG().Jitter(cycles, 0.02))
}

// Migrate moves the thread to another core: the dispatchers exchange
// messages and the destination upcalls the thread.
func (th *Thread) Migrate(core topo.CoreID) {
	if core == th.core {
		return
	}
	c := th.Team.sys.Machine().Costs
	th.p.Sleep(xcoreSpawnCost + c.CSwitch + c.Upcall)
	th.core = core
}

// Load reads shared memory from the thread's current core.
func (th *Thread) Load(a memory.Addr) uint64 {
	return th.Team.sys.Load(th.p, th.core, a)
}

// Store writes shared memory from the thread's current core.
func (th *Thread) Store(a memory.Addr, v uint64) {
	th.Team.sys.Store(th.p, th.core, a, v)
}

// Mutex is a test-and-set spinlock on one shared cache line. Its cost under
// contention emerges from the coherence model's line queuing.
type Mutex struct {
	team *Team
	word memory.Addr
}

// NewMutex allocates a spinlock homed on the given socket.
func (t *Team) NewMutex(home topo.SocketID) *Mutex {
	return &Mutex{team: t, word: t.sys.Memory().AllocLines(1, home).Base}
}

// Lock spins until the lock is acquired (test-and-test-and-set: failed
// acquirers spin on a shared read so they don't steal line ownership).
func (m *Mutex) Lock(th *Thread) {
	for {
		acquired := false
		m.team.sys.RMW(th.p, th.core, m.word, func(v uint64) uint64 {
			if v == 0 {
				acquired = true
				return 1
			}
			return v
		})
		if acquired {
			return
		}
		for m.team.sys.Load(th.p, th.core, m.word) != 0 {
			th.p.Sleep(30)
		}
	}
}

// Unlock releases the lock.
func (m *Mutex) Unlock(th *Thread) {
	m.team.sys.Store(th.p, th.core, m.word, 0)
}

// SpinBarrier is the user-space sense-reversing barrier of the Barrelfish
// threads library: an atomic arrival counter plus a generation word both on
// shared cache lines.
type SpinBarrier struct {
	team    *Team
	n       int
	count   memory.Addr
	gen     memory.Addr
	spinGap sim.Time
}

// NewSpinBarrier allocates a barrier for n participants.
func (t *Team) NewSpinBarrier(n int, home topo.SocketID) *SpinBarrier {
	mem := t.sys.Memory()
	return &SpinBarrier{
		team:    t,
		n:       n,
		count:   mem.AllocLines(1, home).Base,
		gen:     mem.AllocLines(1, home).Base,
		spinGap: 40,
	}
}

// Wait blocks until all n participants have arrived.
func (b *SpinBarrier) Wait(th *Thread) {
	sys := b.team.sys
	g := sys.Load(th.p, th.core, b.gen)
	arrived := sys.RMW(th.p, th.core, b.count, func(v uint64) uint64 { return v + 1 })
	if arrived == uint64(b.n) {
		sys.Store(th.p, th.core, b.count, 0)
		sys.Store(th.p, th.core, b.gen, g+1)
		return
	}
	for sys.Load(th.p, th.core, b.gen) == g {
		th.p.Sleep(b.spinGap)
	}
}
