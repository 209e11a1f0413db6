package sim

import (
	"errors"

	"multikernel/internal/trace"
)

// errKilled is panicked inside a proc when the engine shuts it down; the
// spawn wrapper recovers it.
var errKilled = errors.New("sim: proc killed")

// Proc is a simulated sequential activity (a core, a device, an OS service,
// an application thread). All Proc methods must be called from the proc's own
// code unless documented otherwise.
type Proc struct {
	e    *Engine
	id   int
	name string

	next    func() (struct{}, bool) // resumes the coroutine (Run/Close caller only)
	yield   func(struct{}) bool     // suspends it, back to that caller
	done    bool
	killed  bool
	daemon  bool
	waiting bool // parked, waiting for Unpark
	token   bool // a wakeup arrived before Park
	timeout bool // last ParkTimeout expired
	parkSeq uint64
	// idle is the step of the Idle loop the proc is in. While its wakeup
	// is queued, dispatch runs the step instead of resuming the coroutine.
	idle func() (Time, bool)
	// quiet and settle are the Idle loop's schedule offer and catch-up
	// (see Idle); chain is the live run of its skipped steps, or nil.
	quiet  func(t1 Time) (sw *Sweep, first, act uint64)
	settle func(n uint64)
	chain  *chain
	// waiter is the proc's place in a Resource's queue while it waits.
	waiter resWaiter
}

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// SetDaemon marks the proc as a daemon: it is expected to park forever (for
// example, a server waiting for requests) and is excluded from deadlock
// reports. Safe to call from any context before or during the run.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// yieldToEngine runs the dispatch loop inline until a proc event is next.
// If that event is this proc's own, it continues with no switch; otherwise
// it suspends the coroutine back to the Run/Close caller, which resumes the
// next proc, and returns when the caller resumes this one.
func (p *Proc) yieldToEngine() {
	if p.e.dispatch() != p {
		p.yield(struct{}{})
	}
	if p.killed {
		panic(errKilled)
	}
}

// Sleep advances the proc's local time by d cycles. Other events proceed in
// the meantime. Sleep(0) yields: the proc is rescheduled after all events
// already queued for the current cycle.
//
// When the wakeup would be the next event dispatched anyway (no perturb
// hook, no Close pending, within the RunUntil limit, and every queued event
// strictly later), Sleep advances the clock in place. It leaves
// exactly what a push and pop of the wakeup would: the sequence number it
// would have taken and the queue depth it would have reached.
func (p *Proc) Sleep(d Time) {
	if p.e.sleepInPlace(d) {
		if p.e.chainAt != ^Time(0) {
			p.e.note(p.e.now, p.e.seq, nil)
		}
		return
	}
	p.e.schedule(d, p, nil)
	p.yieldToEngine()
}

// sleepInPlace is Sleep's in-place path: when a wakeup d cycles from now
// would be the next event dispatched, it takes the wakeup's sequence number,
// raises the queue's high-water mark to the depth the push would have reached,
// advances the clock and reports true. While chains are live the caller logs
// the wakeup as a dispatch point; the test stays here, so that this inlines.
func (e *Engine) sleepInPlace(d Time) bool {
	at := e.now + d
	if e.perturb != nil || e.closing || at > e.limit || e.headAt <= at || e.chainAt <= at {
		return false
	}
	e.seq++
	e.noteDepth(e.pending + 1 + len(e.chains))
	e.now = at
	return true
}

// Idle runs a polling loop. It behaves exactly like
//
//	for {
//		d, resume := step()
//		if resume {
//			return
//		}
//		p.Sleep(d)
//	}
//
// except where the steps run: once a sleep goes through the queue, the
// dispatch loop runs the following steps inline at their wakeups, as it runs
// After callbacks, and resumes the coroutine only when step reports resume
// or the proc has been killed. Each inline step takes the same wakeup as
// the Sleep it replaces (in place when next, else through the queue, with
// the same sequence number and perturb-hook call), so every event, sequence
// number and counter is the same as the loop's.
//
// step runs in engine context: it must not block, and it must make the
// side effects the loop body would make at that instant. A panic in step
// surfaces naming p, as one in p's own code does. Like an After closure, a
// pending step is Go state a checkpoint cannot capture.
//
// A loop that can say, after a step, what its next steps would do if
// nothing they read changed passes that quiet schedule as quiet and settle
// (both nil otherwise). When the engine asks (no perturb hook, not
// closing), quiet(t1) returns the loop's Sweep, the sweep index of the next
// step, which runs at t1, and act, the first step (1 = the next one) that
// must run, because it would find work or end the loop; act < 2 declines.
// The engine cuts an act past Forever to the last step before it, so a loop
// that would never act returns ^uint64(0). The engine then runs no event for the steps before act (quiet.go). Once
// steps 1..n have passed, it calls settle(n) before it runs a later step
// and before counters are read: settle must leave the loop's state and
// counters as those steps would have. The loop must call Nudge on its proc
// whenever something a quiet step reads changes (the lines it polls, its
// request queue, the flags that end it), at the instant it changes; the
// first step after that instant then runs, like every step from act on.
// The loop is still event-for-event the Sleep loop above, with the skipped
// steps' wakeups counted as dispatched.
func (p *Proc) Idle(step func() (d Time, resume bool), quiet func(t1 Time) (sw *Sweep, first, act uint64), settle func(n uint64)) {
	p.idle, p.quiet, p.settle = step, quiet, settle
	if p.e.runIdle(p) {
		p.yieldToEngine() // dispatch resumes p once a step asks to resume
	}
	p.idle, p.quiet, p.settle = nil, nil, nil
}

// runIdle runs p's idle step, and the steps after it while their sleeps
// wake in place or the engine skips them. It reports whether a step's
// sleep went through the queue or began a chain; false means a step asked
// to resume p.
func (e *Engine) runIdle(p *Proc) bool {
	e.stepping = p // a panic in the step is p's (see procPanic)
	for {
		d, resume := p.idle()
		if resume {
			e.stepping = nil
			return false
		}
		if p.quiet != nil && e.perturb == nil && !e.closing && e.startChain(p, d) {
			e.stepping = nil
			return true
		}
		if !e.sleepInPlace(d) {
			e.stepping = nil
			e.schedule(d, p, nil)
			return true
		}
		if e.chainAt != ^Time(0) {
			e.note(e.now, e.seq, nil)
		}
	}
}

// Park blocks the proc until another activity calls Unpark. If an Unpark
// arrived since the last Park (a "token"), Park consumes it and returns
// immediately, so the Unpark/Park pair cannot race in virtual time.
func (p *Proc) Park() {
	if p.token {
		p.token = false
		return
	}
	p.parkSeq++
	p.waiting = true
	p.yieldToEngine()
}

// ParkTimeout is Park with a timeout of d cycles. It reports whether the wait
// timed out rather than being ended by Unpark. Pass Forever for no timeout.
func (p *Proc) ParkTimeout(d Time) (timedOut bool) {
	if p.token {
		p.token = false
		return false
	}
	p.parkSeq++
	seq := p.parkSeq
	p.waiting = true
	p.timeout = false
	if d < Forever {
		p.e.After(d, func() {
			if p.waiting && p.parkSeq == seq {
				p.timeout = true
				p.waiting = false
				p.e.schedule(0, p, nil)
			}
		})
	}
	p.yieldToEngine()
	return p.timeout
}

// Unpark wakes target if it is parked, or leaves a token making its next Park
// return immediately. It may be called from any proc or engine callback, and
// is idempotent while the target remains parked-and-signalled.
func (p *Proc) Unpark(target *Proc) { p.e.Wake(target) }

// Wake is Unpark callable from engine callbacks (timers, device models).
func (e *Engine) Wake(target *Proc) {
	if target.done || target.killed {
		return
	}
	if target.waiting {
		target.waiting = false
		e.wakes++
		e.rec.Emit(uint64(e.now), trace.Instant, trace.SubSim, -1, "sim.wake", 0, uint64(target.id))
		e.schedule(0, target, nil)
		return
	}
	target.token = true
}
