// Package sim provides a deterministic discrete-event simulation engine with
// a virtual clock measured in CPU cycles.
//
// Simulated activities run as Procs: each Proc is a coroutine (iter.Pull),
// and the engine guarantees that at most one Proc executes at a time and that
// all wakeups are ordered by (virtual time, schedule sequence). Simulation
// state shared between Procs therefore needs no locking, and runs are
// bit-for-bit reproducible for a given seed.
//
// The engine is the substrate for every hardware and OS model in this
// repository: cores, caches, interconnect links, CPU drivers, monitors and
// applications are all Procs exchanging virtual time. Because every
// experiment's wall-clock cost is dominated by this event loop, the hot path
// is built for speed:
//
//   - while the queue is deep, events due within calSpan cycles wait in a
//     calendar of per-cycle FIFO buckets found through a bitmap, and the
//     rest in a 4-ary min-heap; the earliest event is cached, so the common
//     checks are one compare (queue.go),
//   - dispatched events return to a free list, so steady-state scheduling
//     performs no heap allocation,
//   - After callbacks run inline in the dispatching proc or Run caller and
//     never touch the proc machinery,
//   - a Sleep whose own wakeup would be the next event advances the clock in
//     place, with no event and no switch,
//   - the empty polls of a Proc.Idle loop run inline in the dispatch loop,
//     like After callbacks, and resume the coroutine only when a poll finds
//     work; each keeps the wakeup, sequence number and perturb-hook call of
//     the Sleep it replaces, so a run is event-for-event the same,
//   - a Proc.Idle loop that can say ahead of time which of its steps
//     must run gives the engine its quiet schedule, and the engine runs no
//     event for the steps before that one while other procs' events run,
//     never past Forever; the one it files takes exactly the place in
//     (time, sequence) order the skipped steps would have given it, and
//     counters derived from the skipped steps read as if they had run
//     (quiet.go). This is the engine's only way to skip a poll: every
//     polling loop that can wait long runs this way, and
//   - a yielding proc dispatches inline and keeps running when its own event
//     is next; only a switch to a different proc goes through the Run
//     caller, as two coroutine switches rather than a pass through the Go
//     scheduler.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
	"strings"

	"multikernel/internal/metrics"
	"multikernel/internal/trace"
)

// Time is a point in virtual time, measured in cycles.
type Time uint64

// Forever is a sentinel duration meaning "no timeout".
const Forever = Time(1) << 62

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	head    *event // earliest queued event, or nil (see queue.go)
	headAt  Time   // head.at, or ^Time(0) when nothing is queued
	filed   bool   // head is in the heap or the calendar, not held alone
	pending int    // queued events
	// chains are the live runs of skipped idle steps and chainAt the
	// earliest act among them, or ^Time(0) when there are none (quiet.go).
	chainAt Time
	chains  []*chain
	heap    eventHeap // queued events outside the calendar
	cal     *calendar // allocated when the queue first grows deep
	free    *event    // recycled events; makes steady-state scheduling zero-alloc
	procs   map[*Proc]struct{}
	running *Proc // proc that dispatch picked to run next, or nil
	limit   Time  // dispatch boundary (RunUntil), or ^Time(0)
	rng     *RNG
	perturb PerturbFunc // schedule-exploration hook, or nil (the default)
	closing bool
	nextID  int

	stepping    *Proc      // proc whose idle step is running inline, or nil
	freeLetters *letterBox // pooled holders of cross-partition letters (Post)

	// Telemetry. rec is nil unless tracing is on (the tracing-off fast path
	// is the nil check inside trace.Recorder methods); met always exists.
	// The engine's own hot-path counters are plain fields bumped inline and
	// sampled lazily through CounterFunc, so the dispatch loop never touches
	// the registry.
	rec         *trace.Recorder
	met         *metrics.Registry
	serial      uint64         // Serial() allocator (channel ids, flow correlation)
	heapMax     *metrics.Gauge // high-water mark of the event queue
	wakes       uint64         // proc wakeups delivered via Wake/Unpark
	contributed bool           // telemetry already handed to the global collectors

	// ckpts are the components serialized into Engine.Checkpoint, in
	// registration order (see checkpoint.go). The engine's own metrics
	// registry is always the first entry.
	ckpts []ckptComponent

	// Skipped idle steps, continued. plog logs the dispatch points while a
	// chain is live, from cycle plogFrom on, and pord numbers them. starts and skips are the wakeups
	// chains took without sequence numbers, not yet added to seq; skipped
	// counts every skipped step. Events numbered lagLo..lagHi were
	// scheduled while seq ran behind.
	freeChains    []*chain
	plog          []point
	plogFrom      Time
	pord          uint64
	starts, skips uint64
	skipped       uint64
	lagLo, lagHi  uint64
}

// NewEngine returns an engine with its clock at zero and the given RNG seed.
func NewEngine(seed uint64) *Engine {
	e := &Engine{
		headAt:  ^Time(0),
		chainAt: ^Time(0),
		procs:   make(map[*Proc]struct{}),
		limit:   ^Time(0),
		rng:     NewRNG(seed),
		met:     metrics.NewRegistry(),
	}
	// Dispatched is derived, not counted: sequence minus queue length. Every
	// sequence number stands for one event that is either still queued or
	// has been delivered — popped by the dispatch loop, or taken in place by
	// a Sleep or an idle step whose wakeup was next (there is no
	// cancellation path) — so the loop itself stays untouched. Skipped idle
	// steps count as the wakeups they stand for, and each live chain's next
	// step as queued.
	e.met.CounterFunc("sim.events_dispatched", func() uint64 {
		return e.seq + e.starts + e.skips - uint64(e.pending) - uint64(len(e.chains))
	})
	// The queue's high-water mark (named for the heap it once was) is a
	// level, not a monotone count: a shared Gauge handle bumped inline keeps
	// the dispatch loop registry-free while letting samplers read it as a
	// level series. Each live chain's next step counts as queued.
	e.heapMax = e.met.Gauge("sim.heap_max_depth")
	e.met.CounterFunc("sim.proc_wakes", func() uint64 { return e.wakes })
	e.met.CounterFunc("sim.procs_spawned", func() uint64 { return uint64(e.nextID) })
	if trace.Capturing() {
		e.rec = trace.NewRecorder()
	}
	// Counters that skipped idle steps stand for (hits, retries) and the
	// counts derived from them read as of the current point: every read of
	// the registry settles first, before any plain counter is read.
	e.met.OnRead(e.Settle)
	// The registry participates in checkpoint/restore like any model
	// component, so counters and histograms survive a warm start.
	e.ckpts = []ckptComponent{{name: "metrics", c: e.met}}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random number generator.
func (e *Engine) RNG() *RNG { return e.rng }

// Tracer returns the engine's trace recorder — nil when tracing is off,
// which trace.Recorder methods accept as the disabled fast path, so call
// sites emit unconditionally: e.Tracer().Emit(...).
func (e *Engine) Tracer() *trace.Recorder { return e.rec }

// SetTracer installs (or, with nil, removes) the trace recorder. Idle
// loops whose skipped steps would emit trace records decline to be skipped
// while a recorder is installed, so every live chain's next step runs as
// an event.
func (e *Engine) SetTracer(r *trace.Recorder) {
	e.NudgeAll()
	e.rec = r
}

// Metrics returns the engine's counter/histogram registry.
func (e *Engine) Metrics() *metrics.Registry { return e.met }

// Serial mints an engine-unique id (URPC channel ids, flow correlation).
func (e *Engine) Serial() uint64 {
	e.serial++
	return e.serial
}

// newEvent takes an event from the free list, or allocates one.
func (e *Engine) newEvent() *event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		return ev
	}
	return &event{}
}

// releaseEvent clears an event and returns it to the free list.
func (e *Engine) releaseEvent(ev *event) {
	*ev = event{next: e.free}
	e.free = ev
}

// PerturbFunc observes every scheduling decision and may perturb it: extra
// is added to the event's delay (wake jitter), and pri demotes the event
// within its timestamp cohort (events at equal virtual time dispatch in
// ascending (pri, seq) order). Returning (0, 0) leaves the decision
// untouched. The hook runs on the scheduling hot path, so implementations
// must be cheap and must not touch the engine.
type PerturbFunc func(now Time, delay Time, seq uint64) (extra Time, pri uint64)

// SetPerturb installs (or, with nil, removes) a schedule-perturbation hook.
// The hook is part of the run's identity: a given (seed, hook) pair is as
// deterministic as a plain seeded run, which is what lets the exploration
// harness replay and shrink failing schedules. With no hook installed the
// scheduling path is unchanged. A hook turns off skipped idle steps: every
// live chain's next step runs as an event, and the counter catches up, so
// the hook sees the reference schedule's sequence numbers.
func (e *Engine) SetPerturb(fn PerturbFunc) {
	if fn != nil && len(e.chains) > 0 {
		e.NudgeAll() // no chain skips another step
		e.Settle()
		e.fold()
	}
	e.perturb = fn
}

// noteDepth raises the queue's high-water mark to n events if that is higher.
func (e *Engine) noteDepth(n int) {
	if int64(n) > e.heapMax.Value() {
		e.heapMax.Set(int64(n))
	}
}

func (e *Engine) schedule(d Time, p *Proc, fn func()) {
	e.seq++
	ev := e.newEvent()
	ev.at, ev.seq, ev.p, ev.fn = e.now+d, e.seq, p, fn
	if e.perturb != nil {
		extra, pri := e.perturb(e.now, d, e.seq)
		ev.at += extra
		ev.pri = pri
	}
	e.push(ev)
	e.noteDepth(e.pending + len(e.chains))
}

// scheduleAt enqueues an engine callback at an absolute virtual time,
// bypassing the perturb hook (cross-partition delivery times are fixed by the
// lookahead contract, not schedulable jitter). Used by the parallel engine's
// mailbox merge and by checkpoint restore.
func (e *Engine) scheduleAt(at Time, fn func()) {
	e.seq++
	ev := e.newEvent()
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.push(ev)
	e.noteDepth(e.pending + len(e.chains))
}

// After invokes fn at the current time plus d. fn runs in engine context and
// must not block; to perform blocking work, have fn wake a Proc. Engine
// callbacks are the fast path: they are dispatched inline with no proc
// handoff.
func (e *Engine) After(d Time, fn func()) { e.schedule(d, nil, fn) }

// Spawn creates a new Proc executing fn and schedules it to start at the
// current virtual time. fn runs as a coroutine (iter.Pull) that only the Run
// or Close caller resumes. A panic in fn, or in a Proc.Idle step of fn's
// wherever dispatch runs it, surfaces from that call, naming the proc, the
// virtual time and the panicking stack. On a ParallelEngine, whichever
// goroutine ran the partition recovers it, and the ParallelEngine's Run or
// RunUntil re-panics with it once the epoch's partitions are done.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	e.nextID++
	p := &Proc{e: e, id: e.nextID, name: name}
	e.procs[p] = struct{}{}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			r := recover()
			p.done = true
			delete(e.procs, p)
			if r != nil && r != errKilled {
				panic(e.procPanic(p, r))
			}
			defer e.nameStepPanic()
			e.dispatch() // pick the next proc for the Run/Close caller
		}()
		if !p.killed {
			fn(p)
		}
	})
	e.schedule(0, p, nil)
	return p
}

// procPanic is the value a panic r in proc p's code surfaces with. An
// idle step runs inline in whichever proc or caller is dispatching, so a
// panic while one is running is the stepping proc's.
func (e *Engine) procPanic(p *Proc, r any) procPanicked {
	if e.stepping != nil {
		p, e.stepping = e.stepping, nil
	}
	return procPanicked(fmt.Sprintf("sim: proc %q panicked at t=%d: %v\n%s", p.name, e.now, r, debug.Stack()))
}

// procPanicked is a proc's panic as it surfaces: a message that names the
// proc and the virtual time and carries the panicking stack.
type procPanicked string

func (m procPanicked) Error() string { return string(m) }

// nameStepPanic, deferred around a dispatch outside any proc's code, turns
// a panic in an idle step that dispatch ran inline into the stepping
// proc's panic.
func (e *Engine) nameStepPanic() {
	if e.stepping != nil {
		panic(e.procPanic(nil, recover()))
	}
}

// dispatch is the scheduler loop, run by the Run/Close caller or inline by a
// proc that is yielding or exiting. It runs engine callbacks inline and, on
// reaching a proc event, records that proc in e.running and returns it. It
// returns nil when the run is over (queue empty or past the limit, or the
// engine closing).
func (e *Engine) dispatch() *Proc {
	e.running = nil
	for !e.closing {
		if e.chainAt <= e.headAt && e.chainAt != ^Time(0) {
			if e.chainAt > e.limit {
				return nil
			}
			if c := e.nextAct(); c != nil {
				e.runAct(c) // the owner's wakeup, at its place in the order
				p := c.p
				if p.done || p.idle != nil && !p.killed && e.runIdle(p) {
					continue
				}
				e.running = p
				return p
			}
		}
		if e.head == nil || e.headAt > e.limit {
			return nil
		}
		ev := e.pop()
		if ev.at < e.now {
			panic("sim: event scheduled in the past")
		}
		e.now = ev.at
		if e.chainAt != ^Time(0) {
			e.notePop(ev)
		}
		p, fn := ev.p, ev.fn
		e.releaseEvent(ev)
		if fn != nil {
			fn() // engine-context fast path: no switch
			continue
		}
		if p.done {
			continue // stale wakeup
		}
		if p.idle != nil && !p.killed && e.runIdle(p) {
			continue // idle-step fast path: the poll found nothing, no switch
		}
		// A killed proc is still resumed: it must run once more to unwind
		// via the errKilled panic and release itself.
		e.running = p
		return p
	}
	return nil
}

// runLoop resumes the procs dispatch picks until the run is over. Each
// resumed proc returns here only when a different proc is next, when the run
// is over, or when it exits, and it leaves its successor in e.running.
func (e *Engine) runLoop() {
	defer e.nameStepPanic()
	for p := e.dispatch(); p != nil; p = e.running {
		p.next()
	}
}

// Run processes events until the event queue is empty. Procs that are parked
// with no pending wakeup remain parked; use Deadlocked to inspect them.
func (e *Engine) Run() {
	e.limit = ^Time(0)
	e.runLoop()
}

// RunUntil processes events up to and including virtual time t.
func (e *Engine) RunUntil(t Time) {
	e.limit = t
	e.runLoop()
	e.limit = ^Time(0)
	e.boundary(t)
}

// Deadlocked returns the names of non-daemon procs that are alive but parked
// with no scheduled wakeup. An empty result after Run means the simulation
// quiesced cleanly.
func (e *Engine) Deadlocked() []string {
	var out []string
	for p := range e.procs {
		if !p.daemon && p.waiting {
			out = append(out, p.name)
		}
	}
	sort.Strings(out)
	return out
}

// Close terminates all live procs, releasing their coroutines. The engine
// must not be used afterwards. Victims are killed in ascending id order so
// shutdown is deterministic.
func (e *Engine) Close() {
	e.closing = true
	victims := make([]*Proc, 0, len(e.procs))
	for p := range e.procs {
		victims = append(victims, p)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, v := range victims {
		if v.done {
			continue
		}
		v.killed = true
		v.next()
	}
	e.flushTelemetry()
}

// flushTelemetry hands the engine's trace and final metrics to the global
// capture collectors (no-ops when no capture window is open). Runs once, at
// the end of Close, so the contribution covers the whole run.
func (e *Engine) flushTelemetry() {
	if e.contributed {
		return
	}
	e.contributed = true
	if trace.Capturing() {
		trace.Contribute(e.rec)
	}
	if metrics.Capturing() {
		metrics.Contribute(e.met.Snapshot())
	}
}

// Kill fail-stops p at the current virtual time: no further simulated code of
// p runs, and its coroutine is released deterministically. It may be called
// from another Proc or from an engine callback (a fault injector timer); a
// proc may also kill itself, in which case it exits at its next yield. Killing
// a proc that is already dead is a no-op. Procs blocked on a channel or lock
// modeled with Park are unwound exactly as by Close, so a peer of the killed
// proc that later blocks on the now-poisoned channel simply parks forever and
// shows up in Deadlocked (or is reaped by Close).
func (e *Engine) Kill(p *Proc) {
	if p.done || p.killed {
		return
	}
	p.killed = true
	// Whether p is parked, sleeping, idling or running (self-kill), one
	// immediate resume event unwinds it at its next yield; any other
	// scheduled wakeup, a skipped idle step's included, finds p.done and is
	// discarded.
	p.Nudge()
	p.waiting = false
	p.token = false
	e.schedule(0, p, nil)
}

// CheckQuiesced panics, naming them, if any non-daemon proc is still parked
// after Run: a run that was meant to finish left a driver waiting forever.
func (e *Engine) CheckQuiesced() {
	if d := e.Deadlocked(); len(d) > 0 {
		panic("sim: deadlocked procs: " + strings.Join(d, ", "))
	}
}
