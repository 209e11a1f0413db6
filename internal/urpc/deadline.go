package urpc

import (
	"math/bits"
	"sync"

	"multikernel/internal/cache"
	"multikernel/internal/sim"
)

// A receive under Deadline runs its ring checks as sim.Proc.Idle steps,
// three per check: the check charge, the probe of the slot's sequence word
// (which sleeps the hit latency), and the read, which on an empty ring also
// makes the deadline test and sleeps the backoff gap. These are the charges
// and side effects of the blocking loop Recv runs for the other waits, at
// the same instants, so the coroutine resumes only when a check finds a
// message, its probe misses, or the deadline passes.
//
// While the receiver holds the sequence word's line and the ring is empty,
// each check changes only the wait's position, a hit and a retry, so the
// wait hands the engine its quiet schedule: the backoff ladder (gaps 25 to
// 1,600), a sweep whose chain acts by its last step so that it never
// wraps, or, once the gap is capped, the repeating [check, hit, 1,600]
// sweep. The act is the first probe that would miss, the read that finds a
// message, or the first read at or after the deadline. The line is watched
// (cache.Watcher), so a reply, whether stored locally or delivered from
// another partition, nudges the receiver. Quiet declines while a tracer is
// installed, since the skipped reads' urpc.backoff instants could not be
// replayed in trace order, and while touch tracking is on; installing
// either nudges the engine's chains (sim.Engine.SetTracer,
// cache.System.StartTouchTracking).

// deadlineWait is a receiver's Deadline wait. A channel has one receiver,
// so it keeps one, and its Idle callbacks are made once.
type deadlineWait struct {
	c       *Channel
	until   sim.Time
	gap     sim.Time // the backoff after the current check's read
	check   Check
	expired bool
	watch   cache.Watcher // the sequence word's line; Proc is the receiver
	sweeps  *waitSweeps

	// The skipped stretch settleTo works from: its sweep, the sweep index
	// and time of its first step, and the steps settled so far.
	sw    *sim.Sweep
	first uint64
	t1    sim.Time
	done  uint64

	step   func() (sim.Time, bool)
	quiet  func(sim.Time) (*sim.Sweep, uint64, uint64)
	settle func(uint64)
}

// waitSweeps are a Deadline wait's two quiet schedules: the backoff ladder,
// one check per gap from pollGap up to maxBackoffGap, and the capped check
// that repeats after it.
type waitSweeps struct{ ladder, capped *sim.Sweep }

// ladderChecks is the number of checks on the ladder: pollGap doubles six
// times to maxBackoffGap.
const ladderChecks = 7

// waitSweepsByHit holds the sweeps for each L1 hit latency, shared by every
// engine, so that in-phase waits share one sweep (sim.Sweep is immutable).
var waitSweepsByHit sync.Map

// sweepsFor returns the sweeps of waits whose probes take hit cycles.
func sweepsFor(hit sim.Time) *waitSweeps {
	if s, ok := waitSweepsByHit.Load(hit); ok {
		return s.(*waitSweeps)
	}
	gaps := make([]sim.Time, 0, 3*ladderChecks)
	for j := range ladderChecks {
		gaps = append(gaps, recvCheckCost, hit, transportBackoff.Gap(j))
	}
	s, _ := waitSweepsByHit.LoadOrStore(hit, &waitSweeps{
		ladder: sim.NewSweep(gaps),
		capped: sim.NewSweep([]sim.Time{recvCheckCost, hit, maxBackoffGap}),
	})
	return s.(*waitSweeps)
}

// recvDeadline is Recv under Deadline, giving up at until.
func (c *Channel) recvDeadline(p *sim.Proc, buf []Message, until sim.Time) int {
	dw := c.wait
	if dw == nil {
		_, hit := c.CheckGaps()
		dw = &deadlineWait{c: c, sweeps: sweepsFor(hit)}
		dw.step, dw.quiet, dw.settle = dw.stepOnce, dw.quietFrom, dw.settleTo
		c.wait = dw
	}
	dw.until, dw.gap, dw.check, dw.expired = until, transportBackoff.Base, Check{}, false
	dw.watch.Proc = p
	for {
		p.Idle(dw.step, dw.quiet, dw.settle)
		if dw.expired {
			return 0
		}
		if n := c.Drain(p, buf, &dw.check); n > 0 {
			return n
		}
		// The probe missed and the load found the ring empty after all.
		if !c.idle(p, Deadline(0), c.Receiver, until, &dw.gap) {
			return 0
		}
	}
}

// stepOnce is one step of the wait: a step of the ring check, and after a
// read that found the ring empty, the deadline test and the backoff.
func (dw *deadlineWait) stepOnce() (sim.Time, bool) {
	c := dw.c
	d, done, work := c.CheckStep(&dw.check)
	if !done {
		return d, false
	}
	if work {
		return 0, true
	}
	d, ok := c.backoff(c.Receiver, dw.until, &dw.gap)
	dw.expired = !ok
	return d, !ok
}

// quietFrom is the wait's quiet schedule from the step at t1 on: its sweep,
// where that step stands in it, and the first step that must run (act),
// counting the step at t1 as step 1. Check j of a sweep is its steps at
// indices 3j (charge), 3j+1 (probe) and 3j+2 (read). A clean watch record
// means the line is still held and the ring empty (see Pass.quietFrom), so
// it is not watched again.
func (dw *deadlineWait) quietFrom(t1 sim.Time) (*sim.Sweep, uint64, uint64) {
	c := dw.c
	if c.eng.Tracer() != nil || c.sys.Tracking() {
		return nil, 0, 0
	}
	var pos uint64 // the next step's place in its check
	switch dw.check.state {
	case checkProbe:
		pos = 1
	case checkRead:
		pos = 2
	}
	sw, first, act := dw.sweeps.capped, pos, ^uint64(0)
	if dw.gap < maxBackoffGap {
		j := uint64(bits.TrailingZeros64(uint64(dw.gap / pollGap)))
		sw, first = dw.sweeps.ladder, 3*j+pos
		act = sw.Len() - first // the ladder's last step
	}
	at := func(k uint64) sim.Time { return t1 + sw.At(first+k-1) - sw.At(first) }
	read := 3 - pos // the first read; the first at or after until times out
	if sw == dw.sweeps.ladder {
		for read < act && at(read) < dw.until {
			read += 3
		}
	} else if t := at(read); t < dw.until {
		per := sw.At(sw.Len())
		read += 3 * uint64((dw.until-t+per-1)/per)
	}
	act = min(act, read)
	if !dw.watch.Clean {
		switch hit, ready := c.Watch(&dw.watch); {
		case !hit && pos == 2:
			return nil, 0, 0 // the next step reads a line nothing watches
		case !hit:
			act = min(act, 2-pos) // the next probe misses
		case ready:
			act = min(act, 3-pos) // the next read finds the message
		}
	}
	dw.sw, dw.first, dw.t1, dw.done = sw, first, t1, 0
	return sw, first, act
}

// settleTo leaves the wait as steps 1..k of the skipped stretch would: the
// probes' hits and the reads' retries counted, the gap moved up the
// ladder, and the check begun where its own step ran.
func (dw *deadlineWait) settleTo(k uint64) {
	c, sw := dw.c, dw.sw
	lo, hi := dw.first+dw.done, dw.first+k
	// in counts the sweep indices in [lo, hi) at place r of their check.
	in := func(r uint64) uint64 { return (hi+2-r)/3 - (lo+2-r)/3 }
	if hits := in(1); hits > 0 {
		c.sys.AddHits(c.Receiver, hits)
	}
	c.mRetries.Add(in(2))
	dw.done = k
	if sw == dw.sweeps.ladder {
		dw.gap = transportBackoff.Gap(int(hi / 3))
	}
	at := func(k uint64) sim.Time { return dw.t1 + sw.At(dw.first+k-1) - sw.At(dw.first) }
	switch hi % 3 {
	case 0:
		dw.check = Check{}
	case 1:
		c.SetCheck(&dw.check, at(k), false)
	default:
		c.SetCheck(&dw.check, at(k-1), true)
	}
}
