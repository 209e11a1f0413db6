package urpc

import (
	"multikernel/internal/cache"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// Pass runs a polling loop's checks of its receive rings as sim.Proc.Idle
// steps and hands the engine the loop's quiet schedule. The monitor's
// dispatch loop, the kv cluster's shard servers, the KV service, the NIC
// driver, KVClient.SelectRange's wait, the TCP accept loop and
// Channel.Recv's waits each drive one.
//
// A pass lets the owner act first (Begin), probes its lead line if it has
// one (the driver's next NIC descriptor), checks every ring in order, lets
// the owner act on what the rings brought (Service) and charges the plan's
// loop cost, if any. Then it ends: a pass that did work starts the next one
// at once; an idle one sleeps the plan's idle gap, or, once the loop has
// been idle for Park passes in a row and the owner need not keep polling
// (Busy), parks, unless a wake found the loop running during the pass
// (Notified), in which case it polls again. A plan with a backoff ladder
// instead sleeps a gap that climbs with the idle count, and counts each
// idle pass end as a retry (PassPlan). The steps run in engine context
// and resume the proc only at the points its own code handles: PassBegin
// (also when the lead has work or its probe misses), PassRing (drain the
// ring), PassService and PassPark. Each handler leaves At where the pass
// continues.
//
// Each ring keeps a watch record (cache.Watcher) across the engine's
// skipped stretches: a chain start re-watches only the rings whose record
// a write, a dropped copy, another record's watch, SetRings or a cache
// restore has dirtied since (see quietFrom). The records name the proc
// that drives the pass, and Next re-points them when another proc does.
type Pass struct {
	At       PassPoint
	Ring     int  // index in the rings of the one being checked
	Idle     int  // consecutive passes that did no work
	Progress bool // this pass did work
	Notified bool // a wake found the loop running; cleared every pass

	plan  *PassPlan
	owner PassOwner
	lead  *PassLead
	rings []*Channel
	// watches[i] is rings[i]'s watch record. Lines point at the records,
	// so SetRings gives new rings new ones and never moves the old.
	watches []cache.Watcher
	sweep   *sim.Sweep // the quiet schedule of one idle pass over rings
	ladder  *sim.Sweep // the plan's ladder passes as one sweep, or nil
	check   Check
	skip    skipRun
	proc    *sim.Proc

	// The Idle callbacks, made once so that a pass allocates nothing.
	step   func() (sim.Time, bool)
	quiet  func(sim.Time) (*sim.Sweep, uint64, uint64)
	settle func(uint64)
}

// PassPoint is where a pass stands between steps.
type PassPoint uint8

const (
	PassStart   PassPoint = iota // the next step begins a pass
	PassBegin                    // proc: the owner's work before the rings
	PassRing                     // checking rings[Ring]; proc: drain it
	PassService                  // proc: the owner's work after the rings
	PassLoop                     // the next step charges the loop cost
	PassEnd                      // the next step ends the pass
	PassPark                     // proc: park until woken
)

// PassOwner is what a pass asks the loop that drives it. Every method runs
// in engine context and must not block or charge time.
type PassOwner interface {
	// Begin reports, at a pass start, whether the proc must act before
	// the rings are checked.
	Begin() bool
	// Service reports, after the last ring's check, whether the proc must
	// act.
	Service() bool
	// Busy reports whether an idle loop must keep polling instead of
	// parking.
	Busy() bool
	// Quiet reports whether the engine may skip the loop's idle steps
	// now, and the earliest time at which Service will report true if
	// nothing changes that the loop must nudge its proc for (sim.Forever:
	// never).
	Quiet() (ok bool, service sim.Time)
}

// PassPlan is the fixed shape of one kind of loop's passes: the cycles a
// pass charges at its end (0: no step), the idle gap, and the idle passes
// after which the loop parks (0: never). Passes with equal shapes share
// one sweep (sim.NewSweep), which lets the engine order their skipped
// steps cheaply.
//
// Ladder is a Deadline receive's backoff (Channel.Recv): idle pass i
// sleeps Ladder[i] while i < len(Ladder), then Sleep, and every idle pass
// end counts one urpc.retries on the first ring, with its urpc.backoff
// instant.
type PassPlan struct {
	Loop, Sleep sim.Time
	Park        int
	Ladder      []sim.Time
}

// PassLead is a line a pass probes at each pass start, after Begin, from
// Core: one step that sleeps the hit latency. Line returns the line's
// address and whether the source behind it has work (the NIC driver's next
// receive descriptor, and whether the device has published it). With work,
// or if the probe misses, the step resumes the proc at PassBegin instead.
// The line is watched while steps are skipped; what makes Line report work
// must write the line or nudge the proc.
type PassLead struct {
	Sys  *cache.System
	Core topo.CoreID
	Line func() (memory.Addr, bool)

	watch cache.Watcher
	at    memory.Addr // the line watch last watched
}

// NewPass returns owner's pass over rings, which must all be received on
// lead's core if lead is not nil, and on one core, at a pass start. The
// passes of one plan all have a lead or none.
func (pl *PassPlan) NewPass(owner PassOwner, lead *PassLead, rings []*Channel) *Pass {
	ps := &Pass{plan: pl, owner: owner, lead: lead}
	ps.step, ps.quiet, ps.settle = ps.stepOnce, ps.quietFrom, ps.settleTo
	ps.SetRings(rings)
	return ps
}

// SetRings makes rings the pass's rings from its current position on; the
// ring being checked keeps its index. Every ring is watched afresh.
func (ps *Pass) SetRings(rings []*Channel) {
	pl := ps.plan
	// After the lead's probe, if any, at the pass start, step L+2i+1 probes
	// ring i's sequence word and step L+2i+2 reads it and starts the next
	// ring's check; the last one instead makes the service test and
	// charges the loop cost, and the step after it ends the pass. With no
	// loop cost the last read ends the pass.
	pass := make([]sim.Time, 0, 2*len(rings)+3)
	if ps.lead != nil {
		pass = append(pass, ps.lead.Sys.Machine().Costs.L1Hit)
	}
	for _, r := range rings {
		check, probe := r.CheckGaps()
		pass = append(pass, check, probe)
	}
	if pl.Loop > 0 {
		pass = append(pass, pl.Loop)
	}
	gaps := make([]sim.Time, 0, len(pass)*(len(pl.Ladder)+1))
	for _, g := range pl.Ladder {
		gaps = append(append(gaps, pass...), g)
	}
	if len(gaps) > 0 {
		ps.ladder = sim.NewSweep(gaps)
	}
	ps.sweep = sim.NewSweep(append(pass, pl.Sleep))
	ps.rings = rings
	ps.watches = make([]cache.Watcher, len(rings))
	for i := range ps.watches {
		ps.watches[i].Proc = ps.proc
	}
}

// Rings returns the number of rings the pass checks.
func (ps *Pass) Rings() int { return len(ps.rings) }

// Next runs the pass's steps on p, as sim.Proc.Idle steps, until one needs
// the proc, and returns the point it stopped at. A record left clean by
// another proc's run still names that proc, so a change of proc re-points
// every record: a write to a watched line must nudge p.
func (ps *Pass) Next(p *sim.Proc) PassPoint {
	if ps.proc != p {
		ps.proc = p
		for i := range ps.watches {
			ps.watches[i].Proc = p
		}
		if ps.lead != nil {
			ps.lead.watch.Proc = p
		}
	}
	p.Idle(ps.step, ps.quiet, ps.settle)
	return ps.At
}

// Drain copies the ready messages of the ring the pass stopped at into
// buf, as Channel.Drain, and marks the pass as having done work if there
// were any. The caller handles them and then moves on with Ring++.
func (ps *Pass) Drain(p *sim.Proc, buf []Message) int {
	n := ps.rings[ps.Ring].Drain(p, buf, &ps.check)
	if n > 0 {
		ps.Progress = true
	}
	return n
}

// DrainBulk is Drain for a ring that is b's descriptor ring (b.Ring()): it
// reads the next payload out of b's pool into dst, as BulkChannel.Recv
// does, and reports false if the ring was empty after all.
func (ps *Pass) DrainBulk(p *sim.Proc, b *BulkChannel, dst []byte) ([]byte, bool) {
	var m [1]Message
	if ps.Drain(p, m[:]) == 0 {
		return nil, false
	}
	return b.read(p, m[0], dst), true
}

// stepOnce runs the pass up to its next sleep, or to a point that needs
// the proc. Its side effects are the loop's own at the same instants: the
// flags cleared at a pass start, and each ring check's charges.
func (ps *Pass) stepOnce() (sim.Time, bool) {
	for {
		switch ps.At {
		case PassStart:
			ps.Progress, ps.Notified = false, false
			if ps.owner.Begin() {
				ps.At = PassBegin
				return 0, true
			}
			ps.At, ps.Ring = PassRing, 0
			if ld := ps.lead; ld != nil {
				a, work := ld.Line()
				if !work {
					if d, hit := ld.Sys.ProbeHit(ld.Core, a); hit {
						return d, false
					}
				}
				ps.At = PassBegin
				return 0, true
			}
		case PassRing:
			if ps.Ring == len(ps.rings) {
				if ps.owner.Service() {
					ps.At = PassService
					return 0, true
				}
				ps.At = PassLoop
				continue
			}
			d, done, work := ps.rings[ps.Ring].CheckStep(&ps.check)
			if !done {
				return d, false
			}
			if work {
				return 0, true
			}
			ps.Ring++
		case PassLoop:
			ps.At = PassEnd
			if ps.plan.Loop > 0 {
				return ps.plan.Loop, false
			}
		case PassEnd:
			ps.At = PassStart
			if ps.Progress {
				ps.Idle = 0
				continue
			}
			ps.Idle++
			if ps.plan.Park == 0 || ps.Idle < ps.plan.Park || ps.owner.Busy() {
				d := ps.plan.Sleep
				if l := ps.plan.Ladder; l != nil {
					if ps.Idle <= len(l) {
						d = l[ps.Idle-1]
					}
					ps.rings[0].retry(ps.rings[0].Receiver, d)
				}
				return d, false
			}
			if ps.Notified {
				// A wake arrived during this pass, possibly for a ring the
				// pass had already checked: poll again instead of parking
				// past it.
				continue
			}
			ps.At = PassPark
			return 0, true
		}
	}
}

// An idle pass's steps follow one fixed schedule while nothing arrives,
// its sweep of m = L+2n+E+1 steps for n rings, L lead probes (0 or 1) and
// E loop steps (0 or 1; see SetRings): step 0 starts a pass, step L+2n
// makes the service test, and the last step ends the pass. A plan's ladder
// passes differ only in their last gap, so they run as one sweep of m
// steps per pass, which a stretch never wraps: it acts by the ladder's
// last step, and the stretch after it runs on the repeating sweep.
// quietFrom hands the engine that schedule (sim.Proc.Idle); settleTo
// rebuilds the pass from the number of steps skipped. Both read a sweep
// index's place in its pass modulo m, on either sweep.

// skipRun is what settleTo needs of a skipped stretch: the sweep, the
// steps per pass and the rings it ran over, the sweep index and time of its
// first step, and how many steps it has been settled through.
type skipRun struct {
	sweep *sim.Sweep
	m     uint64
	rings []*Channel
	first uint64
	t1    sim.Time
	done  uint64
}

// leads returns L, the number of lead probes in a sweep.
func (ps *Pass) leads() uint64 {
	if ps.lead != nil {
		return 1
	}
	return 0
}

// quietFrom is the pass's quiet schedule from the step at t1 on: where
// that step stands in the sweep, and the first step that must run (act).
// That is the first step that finds a message or a lead with work, meets a
// probe that would miss, reaches a service point at or after the owner's
// service time, or parks; with work done or a wake seen in this pass, the
// pass's end; on a ladder, its last step. For a loop that parks it is at
// most Park passes away, so a stretch stays short. Every line the steps
// before act read is watched, so a write to one nudges the proc; the owner
// nudges it for everything else its hooks read. It declines (act 0) when
// the owner does, or with a wake flag that the next step, a pass start,
// would clear.
//
// A ring whose record is clean is not watched again: its line is still
// held and its sequence word unchanged since a watch that found the ring
// empty, so a watch now would report the same. Its cursor has not moved
// either, with no guard needed: a drain follows a check that found a
// message or missed, and either needs a write to, or a drop of, the
// watched line after that watch, which dirtied the record. The lead is
// watched again when its line has moved.
func (ps *Pass) quietFrom(t1 sim.Time) (*sim.Sweep, uint64, uint64) {
	ok, service := ps.owner.Quiet()
	if !ok {
		return nil, 0, 0
	}
	sw, lead := ps.sweep, ps.leads()
	m := sw.Len()
	var pos uint64 // the next step's place in its pass
	switch ps.At {
	case PassStart:
		if ps.Notified {
			return nil, 0, 0
		}
	case PassRing:
		pos = lead + 2*uint64(ps.Ring) + ps.check.pos()
	case PassEnd:
		pos = m - 1
	default:
		return nil, 0, 0
	}
	// at is the first step at place p of a pass.
	at := func(p uint64) uint64 { return (p+m-pos)%m + 1 }
	first, act := pos, ^uint64(0) // a loop that never parks
	if park := uint64(ps.plan.Park); park > 0 {
		act = at(m-1) + m*park
		if !ps.owner.Busy() {
			act = at(m-1) + m*(park-min(park, uint64(ps.Idle)+1))
		}
	}
	if ps.Idle < len(ps.plan.Ladder) {
		sw, first = ps.ladder, uint64(ps.Idle)*m+pos
		act = min(act, sw.Len()-first) // the ladder's last step
	}
	if pos != 0 && (ps.Progress || ps.Notified) {
		act = min(act, at(m-1))
	}
	if service < sim.Forever {
		// The first service point at or after service.
		i := sw.Ceil(max(service, t1) - t1 + sw.At(first))
		i += (lead + 2*uint64(len(ps.rings)) + m - i%m) % m
		act = min(act, i-first+1)
	}
	if ld := ps.lead; ld != nil {
		switch a, work := ld.Line(); {
		case work:
			act = min(act, at(0))
		case !ld.watch.Clean || a != ld.at:
			ld.at = a
			if _, hit := ld.Sys.Watch(ld.Core, a, &ld.watch); !hit {
				act = min(act, at(0))
			}
		}
	}
	for i, r := range ps.rings {
		w := &ps.watches[i]
		if w.Clean {
			continue
		}
		probe := lead + 2*uint64(i) + 1
		switch hit, ready := r.Watch(w); {
		case !hit && pos == probe+1:
			return nil, 0, 0 // the next step reads a line nothing watches
		case !hit:
			act = min(act, at(probe))
		case ready:
			act = min(act, at(probe+1))
		}
	}
	ps.skip = skipRun{sweep: sw, m: m, rings: ps.rings, first: first, t1: t1}
	return sw, first, act
}

// settleTo leaves the pass as steps 1..k of the skipped stretch would: the
// probes' hits counted, every pass end's idle count taken (and on a plan
// with a ladder its retry counted), and the pass positioned before step
// k+1 with its ring check begun where that check's own step ran.
func (ps *Pass) settleTo(k uint64) {
	q := &ps.skip
	sw, m, rings, lead := q.sweep, q.m, q.rings, ps.leads()
	nr := uint64(len(rings))
	// Steps done+1..k are at sweep indices [lo, hi). Lead probes sit at
	// place 0 of a pass, ring probes at places lead+1, lead+3, ... below
	// lead+2*nr, pass ends at place m-1.
	lo, hi := q.first+q.done, q.first+k
	probes := func(x uint64) uint64 { return x/m*nr + min(max(x%m, lead)-lead, 2*nr)/2 }
	if hits := probes(hi) - probes(lo); hits > 0 {
		rings[0].sys.AddHits(rings[0].Receiver, hits)
	}
	if ld := ps.lead; ld != nil {
		ld.Sys.AddHits(ld.Core, (hi+m-1)/m-(lo+m-1)/m)
	}
	ends := hi/m - lo/m
	ps.Idle += int(ends)
	if ps.plan.Ladder != nil {
		rings[0].mRetries.Add(ends)
	}
	q.done = k
	at := func(k uint64) sim.Time { return q.t1 + sw.At(q.first+k-1) - sw.At(q.first) }
	// The check before a probe began at the step before it; step 0 is
	// the step that began the stretch, a check a sweep gap before step 1.
	switch pos := hi % m; {
	case pos == 0:
		ps.At, ps.Ring, ps.check = PassStart, len(rings), Check{}
	case pos == m-1 && ps.plan.Loop > 0:
		ps.At, ps.Ring, ps.check = PassEnd, len(rings), Check{}
	case pos == lead:
		ps.At, ps.Ring, ps.check = PassRing, 0, Check{} // after the lead's probe
	case (pos-lead)%2 == 1:
		ps.At, ps.Ring = PassRing, int((pos-lead)/2)
		rings[ps.Ring].SetCheck(&ps.check, at(k), false)
	default:
		ps.At, ps.Ring = PassRing, int((pos-lead)/2-1)
		rings[ps.Ring].SetCheck(&ps.check, at(k-1), true)
	}
}
