// Package baseline models the comparator operating system of the paper's
// evaluation: a monolithic shared-memory kernel in the style of Linux 2.6 /
// Windows Server 2008. It implements the structures the multikernel is
// measured against — IPI-based TLB shootdown behind mprotect/VirtualProtect
// (Figure 7), futex-style in-kernel barriers (Figure 9), a spinlocked shared
// run queue, and an in-kernel loopback path with shared packet queues
// (Table 4).
//
// The baseline runs on exactly the same simulated hardware (cache coherence,
// interconnect, cost parameters) as the multikernel, so differences between
// the two are architectural, not artefacts of different machine models.
package baseline

import (
	"fmt"

	"multikernel/internal/cache"
	"multikernel/internal/kernel"
	"multikernel/internal/memory"
	"multikernel/internal/metrics"
	"multikernel/internal/sim"
	"multikernel/internal/stats"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// Flavor selects the comparator kernel's tuning constants.
type Flavor int

// Comparator flavors.
const (
	Linux Flavor = iota
	Windows
)

func (f Flavor) String() string {
	if f == Windows {
		return "Windows"
	}
	return "Linux"
}

// Per-flavor software costs, in cycles.
type flavorCosts struct {
	ipiPath   sim.Time // per-target kernel work to send one shootdown IPI
	unmapPrep sim.Time // syscall-side page-table and VMA bookkeeping
	wake      sim.Time // waking one blocked task (futex/dispatcher wake)
}

func costsFor(f Flavor) flavorCosts {
	switch f {
	case Windows:
		// The Windows dispatcher sends shootdown IPIs with slightly less
		// per-CPU work than Linux's flush path in this era.
		return flavorCosts{ipiPath: 420, unmapPrep: 900, wake: 450}
	default:
		return flavorCosts{ipiPath: 560, unmapPrep: 700, wake: 500}
	}
}

// Kernel is one booted monolithic kernel instance spanning all cores.
type Kernel struct {
	sys  *cache.System
	kern *kernel.System
	eng  *sim.Engine
	fc   flavorCosts

	// Shootdown state shared between cores, as in a real kernel.
	shootOp  memory.Addr // operation descriptor (range, generation)
	shootAck memory.Addr // acknowledgement counter
	ipiProcs []*sim.Proc
	pending  []bool
}

// New boots the baseline kernel on the machine: one always-resident kernel
// context per core that services shootdown IPIs.
func New(e *sim.Engine, sys *cache.System, kern *kernel.System, flavor Flavor) *Kernel {
	mem := sys.Memory()
	k := &Kernel{
		sys:      sys,
		kern:     kern,
		eng:      e,
		fc:       costsFor(flavor),
		shootOp:  mem.AllocLines(1, 0).Base,
		shootAck: mem.AllocLines(1, 0).Base,
		pending:  make([]bool, sys.Machine().NumCores()),
	}
	for c := 0; c < sys.Machine().NumCores(); c++ {
		core := topo.CoreID(c)
		p := e.Spawn(fmt.Sprintf("%v-ipi%d", flavor, c), func(p *sim.Proc) {
			p.SetDaemon(true)
			k.ipiLoop(p, core)
		})
		k.ipiProcs = append(k.ipiProcs, p)
		kern.Core(core).OnIPI(func(from topo.CoreID, vector int) {
			k.pending[core] = true
			e.Wake(k.ipiProcs[core])
		})
	}
	return k
}

// ipiLoop is the per-core interrupt context: on each shootdown IPI it takes
// the trap, reads the shared operation descriptor, invalidates its TLB and
// acknowledges on the shared counter.
func (k *Kernel) ipiLoop(p *sim.Proc, core topo.CoreID) {
	mc := &k.sys.Machine().Costs
	for {
		if !k.pending[core] {
			p.Park()
			continue
		}
		k.pending[core] = false
		k.kern.Core(core).Trap(p)
		k.sys.Load(p, core, k.shootOp) // read what to invalidate
		p.Sleep(mc.TLBInval)
		k.sys.RMW(p, core, k.shootAck, func(v uint64) uint64 { return v + 1 })
	}
}

// Unmap performs the monolithic kernel's mprotect/munmap path from the
// initiating core: enter the kernel, update the page tables, serially send a
// shootdown IPI to every other target core, and spin until all have
// acknowledged (the Figure 7 comparator).
func (k *Kernel) Unmap(p *sim.Proc, initiator topo.CoreID, targets []topo.CoreID) {
	mc := &k.sys.Machine().Costs
	k.kern.Core(initiator).Syscall(p)
	p.Sleep(k.fc.unmapPrep)
	// Publish the operation and reset the ack counter.
	k.sys.Store(p, initiator, k.shootAck, 0)
	k.sys.Store(p, initiator, k.shootOp, uint64(p.Now()))
	need := uint64(0)
	for _, t := range targets {
		if t == initiator {
			continue
		}
		p.Sleep(k.fc.ipiPath)
		k.kern.Core(initiator).SendIPI(p, t, 1)
		need++
	}
	// Local invalidation while the others take their traps.
	p.Sleep(mc.TLBInval)
	for k.sys.Load(p, initiator, k.shootAck) < need {
		p.Sleep(60)
	}
	k.kern.Core(initiator).Syscall(p) // return to user space
}

// Barrier is the in-kernel (futex-style) barrier used by the baseline's
// OpenMP runtime: arrival is a shared atomic, and blocking/waking goes
// through the kernel (Figure 9's comparator behaviour).
type Barrier struct {
	k       *Kernel
	n       int
	count   memory.Addr
	waiters []*sim.Proc
}

// NewBarrier allocates a kernel barrier for n participants.
func (k *Kernel) NewBarrier(n int, home topo.SocketID) *Barrier {
	return &Barrier{k: k, n: n, count: k.sys.Memory().AllocLines(1, home).Base}
}

// Wait blocks the calling proc (running on core) until all n participants
// arrive. The last arrival enters the kernel and wakes every waiter
// serially, as futex-based barriers do.
func (b *Barrier) Wait(p *sim.Proc, core topo.CoreID) {
	mc := &b.k.sys.Machine().Costs
	arrived := b.k.sys.RMW(p, core, b.count, func(v uint64) uint64 { return v + 1 })
	if arrived == uint64(b.n) {
		b.k.sys.Store(p, core, b.count, 0)
		b.k.kern.Core(core).Syscall(p) // futex(WAKE)
		// Detach the waiter list before the (slow, serial) wake loop: an
		// already-woken thread may re-register for the next round while we
		// are still waking the rest.
		ws := b.waiters
		b.waiters = nil
		for _, w := range ws {
			p.Sleep(b.k.fc.wake)
			p.Unpark(w)
		}
		return
	}
	// futex(WAIT): register, then syscall, block, and context-switch back in
	// when woken. Registration happens before any further virtual time passes
	// so a fast last-arriver cannot miss this waiter.
	b.waiters = append(b.waiters, p)
	b.k.kern.Core(core).Syscall(p)
	b.k.kern.Core(core).ContextSwitch(p)
	p.Park()
	p.Sleep(mc.CSwitch)
}

// RunQueue is the baseline's spinlocked shared run queue (the structure the
// paper's Figure 4 places at the left of the sharing spectrum). It exists
// for the scheduler-contention ablation benchmarks.
type RunQueue struct {
	k     *Kernel
	lock  memory.Addr
	meta  memory.Addr // head/tail/len metadata line
	tasks []int

	mAcquires *metrics.Counter
	mWait     *stats.Histogram
}

// NewRunQueue allocates a shared run queue homed on the given socket.
func (k *Kernel) NewRunQueue(home topo.SocketID) *RunQueue {
	mem := k.sys.Memory()
	reg := k.eng.Metrics()
	return &RunQueue{
		k:         k,
		lock:      mem.AllocLines(1, home).Base,
		meta:      mem.AllocLines(1, home).Base,
		mAcquires: reg.Counter("baseline.lock_acquires"),
		mWait:     reg.Histogram("baseline.lock_wait_cycles"),
	}
}

func (q *RunQueue) withLock(p *sim.Proc, core topo.CoreID, fn func()) {
	t0 := p.Now()
	contended := false
	for {
		acquired := false
		q.k.sys.RMW(p, core, q.lock, func(v uint64) uint64 {
			if v == 0 {
				acquired = true
				return 1
			}
			return v
		})
		if acquired {
			break
		}
		contended = true
		for q.k.sys.Load(p, core, q.lock) != 0 {
			p.Sleep(30)
		}
	}
	rec := q.k.eng.Tracer()
	q.mAcquires.Inc()
	q.mWait.Observe(uint64(p.Now() - t0))
	if contended {
		// Retroactive span: only contended acquisitions become lock.wait
		// slices, so the uncontended fast path stays invisible in traces.
		rec.Emit(uint64(t0), trace.Begin, trace.SubBaseline, int32(core), "lock.wait", 0, 0)
		rec.Emit(uint64(p.Now()), trace.End, trace.SubBaseline, int32(core), "lock.wait", 0, 0)
	}
	rec.Emit(uint64(p.Now()), trace.Begin, trace.SubBaseline, int32(core), "lock.hold", 0, 0)
	fn()
	q.k.sys.Store(p, core, q.lock, 0)
	rec.Emit(uint64(p.Now()), trace.End, trace.SubBaseline, int32(core), "lock.hold", 0, 0)
}

// Enqueue adds a task under the queue lock.
func (q *RunQueue) Enqueue(p *sim.Proc, core topo.CoreID, task int) {
	q.withLock(p, core, func() {
		q.k.sys.Store(p, core, q.meta, uint64(len(q.tasks)))
		q.tasks = append(q.tasks, task)
	})
}

// Dequeue removes the oldest task under the queue lock.
func (q *RunQueue) Dequeue(p *sim.Proc, core topo.CoreID) (int, bool) {
	var task int
	var ok bool
	q.withLock(p, core, func() {
		q.k.sys.Load(p, core, q.meta)
		if len(q.tasks) > 0 {
			task, ok = q.tasks[0], true
			q.tasks = q.tasks[1:]
			q.k.sys.Store(p, core, q.meta, uint64(len(q.tasks)))
		}
	})
	return task, ok
}
