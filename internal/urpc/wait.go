package urpc

import (
	"math/bits"
	"sync"

	"multikernel/internal/cache"
	"multikernel/internal/sim"
)

// A receive that waits (Spin, Window or Deadline) runs its ring checks as
// sim.Proc.Idle steps, three per check: the check charge, the probe of the
// slot's sequence word (which sleeps the hit latency), and the read, which
// on an empty ring also makes the wait's test and sleeps its gap: pollGap
// under Spin, the window test and pollGap under Window, the deadline test
// and the backoff under Deadline. These are the charges and side effects of
// the blocking loop they replace, at the same instants, so the coroutine
// resumes only when a check finds a message, its probe misses, a window
// ends (the receiver parks until notified, then goes on) or a deadline
// passes.
//
// While the receiver holds the sequence word's line and the ring is empty,
// each check changes only the wait's position, a hit and, under Deadline, a
// retry, so the wait hands the engine its quiet schedule: under Spin and
// Window the repeating [check, hit, pollGap] sweep; under Deadline the
// backoff ladder (gaps 25 to 1,600), a sweep whose chain acts by its last
// step so that it never wraps, then the repeating [check, hit, 1,600]
// sweep. The act is the first probe that would miss, the read that finds a
// message, or the first read at or after the window's end or the deadline;
// a Spin wait never acts of itself, and the engine stops its stretch short
// of sim.Forever. The line is watched (cache.Watcher), so a message, whether
// stored locally or delivered from another partition, nudges the receiver.
// The wait declines while touch tracking is on, and a Deadline wait while a
// tracer is installed, since its skipped reads' urpc.backoff instants could
// not be replayed in trace order; installing either nudges the engine's
// chains (sim.Engine.SetTracer, cache.System.StartTouchTracking).

// recvWait is a receiver's wait. A channel has one receiver, so it keeps
// one, and its Idle callbacks are made once.
type recvWait struct {
	c      *Channel
	mode   waitMode
	until  sim.Time // the window's end or the deadline
	gap    sim.Time // Deadline: the backoff after the current check's read
	check  Check
	ended  bool          // the window ended or the deadline passed
	watch  cache.Watcher // the sequence word's line; Proc is the receiver
	sweeps *waitSweeps

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

// waitSweeps are a wait's quiet schedules: the check every pollGap of Spin
// and Window, and Deadline's backoff ladder, one check per gap from pollGap
// up to maxBackoffGap, and the capped check that repeats after it.
type waitSweeps struct{ poll, ladder, capped *sim.Sweep }

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
		poll:   sim.NewSweep([]sim.Time{recvCheckCost, hit, pollGap}),
		ladder: sim.NewSweep(gaps),
		capped: sim.NewSweep([]sim.Time{recvCheckCost, hit, maxBackoffGap}),
	})
	return s.(*waitSweeps)
}

// recvWait is Recv under a waiting w, which ends at until.
func (c *Channel) recvWait(p *sim.Proc, buf []Message, w Wait, until sim.Time) int {
	rw := c.wait
	if rw == nil {
		_, hit := c.CheckGaps()
		rw = &recvWait{c: c, sweeps: sweepsFor(hit)}
		rw.step, rw.quiet, rw.settle = rw.stepOnce, rw.quietFrom, rw.settleTo
		c.wait = rw
	}
	rw.mode, rw.until, rw.gap, rw.check, rw.ended = w.mode, until, transportBackoff.Base, Check{}, false
	rw.watch.Proc = p
	for {
		p.Idle(rw.step, rw.quiet, rw.settle)
		if rw.ended {
			if w.mode == modeDeadline {
				return 0
			}
			rw.ended = false
			c.park(p) // the window ended; the wait goes on once notified
			continue
		}
		if n := c.Drain(p, buf, &rw.check); n > 0 {
			return n
		}
		// The probe missed and the load found the ring empty after all.
		if !c.idle(p, w, c.Receiver, until, &rw.gap) {
			return 0
		}
	}
}

// stepOnce is one step of the wait: a step of the ring check, and after a
// read that found the ring empty, the wait's test and its gap.
func (rw *recvWait) stepOnce() (sim.Time, bool) {
	c := rw.c
	d, done, work := c.CheckStep(&rw.check)
	if !done {
		return d, false
	}
	if work {
		return 0, true
	}
	switch rw.mode {
	case modeWindow:
		rw.ended = c.eng.Now() >= rw.until
		return pollGap, rw.ended
	case modeDeadline:
		d, ok := c.backoff(c.Receiver, rw.until, &rw.gap)
		rw.ended = !ok
		return d, !ok
	}
	return pollGap, false
}

// quietFrom is the wait's quiet schedule from the step at t1 on: its sweep,
// where that step stands in it, and the first step that must run (act),
// counting the step at t1 as step 1. Check j of a sweep is its steps at
// indices 3j (charge), 3j+1 (probe) and 3j+2 (read). A clean watch record
// means the line is still held and the ring empty (see Pass.quietFrom), so
// it is not watched again.
func (rw *recvWait) quietFrom(t1 sim.Time) (*sim.Sweep, uint64, uint64) {
	c := rw.c
	if c.sys.Tracking() || rw.mode == modeDeadline && c.eng.Tracer() != nil {
		return nil, 0, 0
	}
	pos := rw.check.pos()
	sw, first, act := rw.sweeps.poll, pos, ^uint64(0)
	switch {
	case rw.mode != modeDeadline:
	case rw.gap < maxBackoffGap:
		j := uint64(bits.TrailingZeros64(uint64(rw.gap / pollGap)))
		sw, first = rw.sweeps.ladder, 3*j+pos
		act = sw.Len() - first // the ladder's last step
	default:
		sw = rw.sweeps.capped
	}
	at := func(k uint64) sim.Time { return t1 + sw.At(first+k-1) - sw.At(first) }
	if rw.mode != modeSpin {
		read := 3 - pos // the first read; the first at or after until ends the wait
		if sw == rw.sweeps.ladder {
			for read < act && at(read) < rw.until {
				read += 3
			}
		} else if t := at(read); t < rw.until {
			per := sw.At(sw.Len())
			read += 3 * uint64((rw.until-t+per-1)/per)
		}
		act = min(act, read)
	}
	if !rw.watch.Clean {
		switch hit, ready := c.Watch(&rw.watch); {
		case !hit && pos == 2:
			return nil, 0, 0 // the next step reads a line nothing watches
		case !hit:
			act = min(act, 2-pos) // the next probe misses
		case ready:
			act = min(act, 3-pos) // the next read finds the message
		}
	}
	rw.sw, rw.first, rw.t1, rw.done = sw, first, t1, 0
	return sw, first, act
}

// settleTo leaves the wait as steps 1..k of the skipped stretch would: the
// probes' hits counted, and under Deadline the reads' retries counted and
// the gap moved up the ladder, with the check begun where its own step ran.
func (rw *recvWait) settleTo(k uint64) {
	c, sw := rw.c, rw.sw
	lo, hi := rw.first+rw.done, rw.first+k
	// in counts the sweep indices in [lo, hi) at place r of their check.
	in := func(r uint64) uint64 { return (hi+2-r)/3 - (lo+2-r)/3 }
	if hits := in(1); hits > 0 {
		c.sys.AddHits(c.Receiver, hits)
	}
	rw.done = k
	if rw.mode == modeDeadline {
		c.mRetries.Add(in(2))
		if sw == rw.sweeps.ladder {
			rw.gap = transportBackoff.Gap(int(hi / 3))
		}
	}
	at := func(k uint64) sim.Time { return rw.t1 + sw.At(rw.first+k-1) - sw.At(rw.first) }
	switch hi % 3 {
	case 0:
		rw.check = Check{}
	case 1:
		c.SetCheck(&rw.check, at(k), false)
	default:
		c.SetCheck(&rw.check, at(k-1), true)
	}
}
