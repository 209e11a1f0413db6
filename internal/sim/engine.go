// Package sim provides a deterministic discrete-event simulation engine with
// a virtual clock measured in CPU cycles.
//
// Simulated activities run as Procs: each Proc is backed by a goroutine, but
// the engine guarantees that at most one Proc executes at a time and that all
// wakeups are ordered by (virtual time, schedule sequence). Simulation state
// shared between Procs therefore needs no locking, and runs are bit-for-bit
// reproducible for a given seed.
//
// The engine is the substrate for every hardware and OS model in this
// repository: cores, caches, interconnect links, CPU drivers, monitors and
// applications are all Procs exchanging virtual time. Because every
// experiment's wall-clock cost is dominated by this event loop, the hot path
// is built for speed:
//
//   - events live in a hand-rolled 4-ary min-heap specialized to *event (no
//     container/heap interface boxing),
//   - dispatched events return to a free list, so steady-state scheduling
//     performs no heap allocation,
//   - After callbacks run inline in the dispatching goroutine and never touch
//     the proc machinery, and
//   - control transfers between procs are a single channel handoff: the
//     yielding goroutine itself dispatches the next event and resumes the
//     next proc directly, instead of bouncing through a central scheduler
//     goroutine (which would cost two handoffs per event).
package sim

import (
	"fmt"
	"sort"
	"strings"

	"multikernel/internal/metrics"
	"multikernel/internal/trace"
)

// Time is a point in virtual time, measured in cycles.
type Time uint64

// Forever is a sentinel duration meaning "no timeout".
const Forever = Time(1) << 62

type event struct {
	at  Time
	pri uint64 // tie-break demotion class; 0 except under a perturb hook
	seq uint64
	p   *Proc  // proc to resume, or nil
	fn  func() // callback to invoke, if p == nil
	// hfn is the argument-carrying callback variant used for cross-partition
	// message delivery (ParallelEngine mailboxes): the handler closure is
	// created once at registration time and the two payload words ride in the
	// pooled event itself, so steady-state cross-partition traffic schedules
	// with zero allocation.
	hfn  func(a, b uint64)
	a, b uint64
	next *event // free-list link while pooled
}

// eventQueue is a 4-ary min-heap of events ordered by (at, pri, seq). A
// 4-ary heap does the same number of comparisons as a binary heap in roughly
// half the tree depth, which means fewer cache-missing node hops per
// operation; specializing it to *event avoids container/heap's interface
// conversions and method-value indirections. pri is zero for every event
// unless a perturb hook is installed, so the default order is (at, seq).
type eventQueue []*event

func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(e *event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventBefore(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

func (q *eventQueue) pop() *event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	// Sift the displaced element down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventBefore(h[c], h[min]) {
				min = c
			}
		}
		if !eventBefore(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	events  eventQueue
	free    *event // recycled events; makes steady-state scheduling zero-alloc
	procs   map[*Proc]struct{}
	running *Proc
	driver  chan struct{} // returns the baton to the Run/Close caller
	limit   Time          // dispatch boundary (RunUntil), or ^Time(0)
	rng     *RNG
	perturb PerturbFunc // schedule-exploration hook, or nil (the default)
	stopped bool
	closing bool
	nextID  int

	// Telemetry. rec is nil unless tracing is on (the tracing-off fast path
	// is the nil check inside trace.Recorder methods); met always exists.
	// The engine's own hot-path counters are plain fields bumped inline and
	// sampled lazily through CounterFunc, so the dispatch loop never touches
	// the registry.
	rec         *trace.Recorder
	met         *metrics.Registry
	serial      uint64         // Serial() allocator (channel ids, flow correlation)
	heapMax     *metrics.Gauge // high-water mark of the event heap
	wakes       uint64         // proc wakeups delivered via Wake/Unpark
	contributed bool           // telemetry already handed to the global collectors

	// ckpts are the components serialized into Engine.Checkpoint, in
	// registration order (see checkpoint.go). The engine's own metrics
	// registry is always the first entry.
	ckpts []ckptComponent
}

// NewEngine returns an engine with its clock at zero and the given RNG seed.
func NewEngine(seed uint64) *Engine {
	e := &Engine{
		procs:  make(map[*Proc]struct{}),
		driver: make(chan struct{}, 1),
		limit:  ^Time(0),
		rng:    NewRNG(seed),
		met:    metrics.NewRegistry(),
	}
	// Dispatched is derived, not counted: every event ever scheduled (seq)
	// is either still in the heap or has been popped by the dispatch loop —
	// there is no cancellation path — so the loop itself stays untouched.
	e.met.CounterFunc("sim.events_dispatched", func() uint64 { return e.seq - uint64(len(e.events)) })
	// The heap high-water mark is a level, not a monotone count: a shared
	// Gauge handle bumped inline keeps the dispatch loop registry-free while
	// letting samplers read it as a level series.
	e.heapMax = e.met.Gauge("sim.heap_max_depth")
	e.met.CounterFunc("sim.proc_wakes", func() uint64 { return e.wakes })
	e.met.CounterFunc("sim.procs_spawned", func() uint64 { return uint64(e.nextID) })
	if trace.Capturing() {
		e.rec = trace.NewRecorder()
	}
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

// SetTracer installs (or, with nil, removes) the trace recorder.
func (e *Engine) SetTracer(r *trace.Recorder) { e.rec = r }

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
// scheduling path is unchanged.
func (e *Engine) SetPerturb(fn PerturbFunc) { e.perturb = fn }

func (e *Engine) schedule(d Time, p *Proc, fn func()) {
	e.seq++
	ev := e.newEvent()
	ev.at, ev.seq, ev.p, ev.fn = e.now+d, e.seq, p, fn
	if e.perturb != nil {
		extra, pri := e.perturb(e.now, d, e.seq)
		ev.at += extra
		ev.pri = pri
	}
	e.events.push(ev)
	if n := int64(len(e.events)); n > e.heapMax.Value() {
		e.heapMax.Set(n)
	}
}

// scheduleAt enqueues an engine callback at an absolute virtual time,
// bypassing the perturb hook (cross-partition delivery times are fixed by the
// lookahead contract, not schedulable jitter). Used by the parallel engine's
// mailbox merge and by checkpoint restore.
func (e *Engine) scheduleAt(at Time, fn func()) {
	e.seq++
	ev := e.newEvent()
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.events.push(ev)
	if n := int64(len(e.events)); n > e.heapMax.Value() {
		e.heapMax.Set(n)
	}
}

// scheduleArgsAt is scheduleAt for the pooled argument-carrying handler form:
// no closure is created, the payload words travel in the event.
func (e *Engine) scheduleArgsAt(at Time, hfn func(a, b uint64), a, b uint64) {
	e.seq++
	ev := e.newEvent()
	ev.at, ev.seq, ev.hfn, ev.a, ev.b = at, e.seq, hfn, a, b
	e.events.push(ev)
	if n := int64(len(e.events)); n > e.heapMax.Value() {
		e.heapMax.Set(n)
	}
}

// After invokes fn at the current time plus d. fn runs in engine context and
// must not block; to perform blocking work, have fn wake a Proc. Engine
// callbacks are the fast path: they are dispatched inline with no proc
// handoff.
func (e *Engine) After(d Time, fn func()) { e.schedule(d, nil, fn) }

// Spawn creates a new Proc executing fn and schedules it to start at the
// current virtual time. fn runs in its own goroutine under engine control.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	e.nextID++
	p := &Proc{e: e, id: e.nextID, name: name, resume: make(chan struct{}, 1)}
	e.procs[p] = struct{}{}
	go func() {
		<-p.resume
		defer func() {
			r := recover()
			p.done = true
			delete(e.procs, p)
			if r != nil && r != errKilled {
				// A genuine panic inside simulated code: crash loudly so the
				// bug is visible, after releasing the engine.
				go func() { panic(fmt.Sprintf("sim: proc %q panicked at t=%d: %v", p.name, e.now, r)) }()
			}
			// The exiting goroutine holds the baton: pass it to the next
			// runnable proc, or back to the driver.
			e.exitDispatch()
		}()
		if p.killed {
			panic(errKilled)
		}
		fn(p)
	}()
	e.schedule(0, p, nil)
	return p
}

// dispatch is the scheduler loop, executed by whichever goroutine currently
// holds the control baton (the Run caller, or a proc that is yielding or
// exiting). It runs engine callbacks inline and, on reaching a proc event,
// hands the baton to that proc with a single channel send and reports true.
// It reports false when the run is over (queue empty or past the limit,
// Stop called, or the engine closing), leaving the baton with the caller.
func (e *Engine) dispatch() bool {
	e.running = nil
	for !e.stopped && !e.closing {
		if len(e.events) == 0 {
			return false
		}
		if e.events[0].at > e.limit {
			return false
		}
		ev := e.events.pop()
		if ev.at < e.now {
			panic("sim: event scheduled in the past")
		}
		e.now = ev.at
		p, fn, hfn, a, b := ev.p, ev.fn, ev.hfn, ev.a, ev.b
		e.releaseEvent(ev)
		if fn != nil {
			fn() // engine-context fast path: no handoff
			continue
		}
		if hfn != nil {
			hfn(a, b) // mailbox-delivery fast path: pooled event, no closure
			continue
		}
		if p.done {
			continue // stale wakeup
		}
		// A killed proc is still resumed: its goroutine must run once more
		// to unwind via the errKilled panic and release itself.
		e.running = p
		p.resume <- struct{}{}
		return true
	}
	return false
}

// exitDispatch passes the baton on when a proc yields or exits: either to
// the next runnable proc via dispatch, or back to the driver.
func (e *Engine) exitDispatch() {
	if !e.dispatch() {
		e.driver <- struct{}{}
	}
}

// runLoop drives dispatch from the caller's (driver's) context and blocks
// until the run is over.
func (e *Engine) runLoop() {
	if e.dispatch() {
		// The baton is with a proc; wait for it to come back.
		<-e.driver
	}
	e.running = nil
}

// Run processes events until the event queue is empty or Stop is called.
// Procs that are parked with no pending wakeup remain parked; use Deadlocked
// to inspect them.
func (e *Engine) Run() {
	e.stopped = false
	e.limit = ^Time(0)
	e.runLoop()
}

// RunUntil processes events up to and including virtual time t.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	e.limit = t
	e.runLoop()
	e.limit = ^Time(0)
	if e.now < t {
		e.now = t
	}
}

// Stop makes Run return after the current event completes. It may be called
// from engine callbacks or Procs.
func (e *Engine) Stop() { e.stopped = true }

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

// Close terminates all live procs, releasing their goroutines. The engine
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
		v.resume <- struct{}{}
		<-e.driver
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
// p runs, and its goroutine is released deterministically. It may be called
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
	// Whether p is parked, sleeping, or running (self-kill), one immediate
	// resume event unwinds it at its next yield; any other scheduled wakeup
	// finds p.done and is discarded.
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
