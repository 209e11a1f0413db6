package cache

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// linePoller is a sim.Proc.Idle loop on core 0 that polls one word the way
// a URPC receiver polls a ring's sequence word: a probe that must hit, then
// a read that must find the word unchanged, then a gap. It resumes when a
// probe misses or the word changed, and its quiet schedule watches the line
// through System.Watch with one record that it keeps across quiet calls,
// as urpc.Pass does: every write path must dirty the record and nudge it.
type linePoller struct {
	s       *System
	a       memory.Addr
	want    uint64
	pos     uint64
	first   uint64
	done    uint64
	sweeps  int
	w       Watcher
	decline bool // quiet declines, so no chain is live
	sw      *sim.Sweep
}

const linePollGap = 9

func (l *linePoller) step() (sim.Time, bool) {
	if l.pos == 0 {
		d, hit := l.s.ProbeHit(0, l.a)
		if !hit {
			return 0, true
		}
		l.pos = 1
		return d, false
	}
	if l.s.Memory().LoadWord(l.a) != l.want {
		return 0, true
	}
	l.pos, l.sweeps = 0, l.sweeps+1
	if l.sweeps == 400 {
		return 0, true
	}
	return linePollGap, false
}

func (l *linePoller) quiet(sim.Time) (*sim.Sweep, uint64, uint64) {
	if l.decline {
		return nil, 0, 0
	}
	at := func(pos uint64) uint64 { return (pos+2-l.pos)%2 + 1 }
	act := at(1) + 2*uint64(max(0, 399-l.sweeps))
	if !l.w.Clean {
		v, held := l.s.Watch(0, l.a, &l.w)
		switch {
		case !held && l.pos == 1:
			return nil, 0, 0
		case !held:
			act = min(act, at(0))
		case v != l.want:
			l.w.Clean = false // the read must run
			act = min(act, at(1))
		}
	}
	l.first, l.done = l.pos, 0
	return l.sw, l.pos, act
}

func (l *linePoller) settle(k uint64) {
	lo, hi := l.first+l.done, l.first+k
	l.s.AddHits(0, (hi+1)/2-(lo+1)/2) // probes sit at even indices
	l.sweeps += int(hi/2 - lo/2)
	l.pos, l.done = hi%2, k
}

// TestWatchedLineWritesNudge runs a line poller on core 0 against each
// path that can change a watched line: an asynchronous store miss, a store
// queued behind another core's transfer, an RMW, a full-line store whose
// later words land after its first, the same store queued behind another
// core's transfer, and a DMA write. With no perturb hook
// the poller's quiet steps are skipped, with a zero hook each is an event;
// the two runs must agree on when the poller noticed each write, on the
// clock and on every counter. A path that does not nudge the poller lets
// the skipping run miss the write.
//
// In each path's "while quiet declines" row the poller polls the line's
// last word, which no write changes, and its quiet declines for the 50
// cycles before each write, so no chain is live when the write lands.
// The write lands just after a probe hit: only the next probe can notice
// it, and the next quiet call, which no longer declines, comes first. A
// path that leaves the record clean lets the chain started there skip
// that probe.
func TestWatchedLineWritesNudge(t *testing.T) {
	paths := map[string]func(r *rig, p *sim.Proc, a memory.Addr, v uint64){
		"store miss": func(r *rig, p *sim.Proc, a memory.Addr, v uint64) { r.sys.Store(p, 2, a, v) },
		"queued store": func(r *rig, p *sim.Proc, a memory.Addr, v uint64) {
			r.e.Spawn("rival", func(q *sim.Proc) { r.sys.Store(q, 3, a+8, 7) })
			p.Sleep(1)
			r.sys.Store(p, 2, a, v)
		},
		"rmw": func(r *rig, p *sim.Proc, a memory.Addr, v uint64) {
			r.sys.RMW(p, 2, a, func(uint64) uint64 { return v })
		},
		"line store": func(r *rig, p *sim.Proc, a memory.Addr, v uint64) {
			r.sys.StoreLine(p, 2, a, [memory.WordsPerLine]uint64{0, v})
		},
		"contended line store": func(r *rig, p *sim.Proc, a memory.Addr, v uint64) {
			// The first word's store queues behind the rival's transfer and
			// releases the line before the later words land, Store*7 cycles
			// on; the poller's prefetches take the line back in between.
			r.e.Spawn("rival", func(q *sim.Proc) { r.sys.Store(q, 3, a+16, 7) })
			p.Sleep(1)
			r.sys.StoreLine(p, 2, a, [memory.WordsPerLine]uint64{0, v})
		},
		"dma": func(r *rig, p *sim.Proc, a memory.Addr, v uint64) {
			var b [8]byte
			b[0] = byte(v)
			r.sys.DMAWrite(a, b[:], 1)
		},
	}
	for name, write := range paths {
		for _, declined := range []bool{false, true} {
			row := name
			if declined {
				row += " while quiet declines"
			}
			t.Run(row, func(t *testing.T) { watchRow(t, name, declined, write) })
		}
	}
}

// watchRow runs one row of TestWatchedLineWritesNudge.
func watchRow(t *testing.T, name string, declined bool, write func(r *rig, p *sim.Proc, a memory.Addr, v uint64)) {
	run := func(hook sim.PerturbFunc) ([]string, uint64) {
		r := newRig(topo.AMD2x2())
		defer r.e.Close()
		r.e.SetPerturb(hook)
		line := r.mem.AllocLines(1, 0).Base
		a := line
		switch {
		case declined:
			a = line + memory.LineSize - 8
		case strings.HasSuffix(name, "line store"):
			a = line + 8 // a word the line store writes after its first
		}
		refill := func(p *sim.Proc) uint64 { return r.sys.Load(p, 0, a) }
		if name == "contended line store" {
			// Refill by prefetches, which take the line as soon as a
			// transfer releases it, not a fill's latency later.
			refill = func(p *sim.Proc) uint64 {
				for {
					r.sys.Prefetch(p, 0, a)
					if v, held := r.sys.HeldWord(0, a); held {
						return v
					}
				}
			}
		}
		var log []string
		l := &linePoller{s: r.sys, a: a, sw: sim.NewSweep([]sim.Time{r.m.Costs.L1Hit, linePollGap})}
		l.w.Proc = r.e.Spawn("poller", func(p *sim.Proc) {
			for round := 0; round < 6; round++ {
				l.want = refill(p)
				l.pos, l.sweeps = 0, 0
				p.Idle(l.step, l.quiet, l.settle)
				log = append(log, fmt.Sprintf("t=%d noticed pos=%d sweeps=%d", p.Now(), l.pos, l.sweeps))
			}
		})
		r.e.Spawn("writer", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				gap := sim.Time(613 + 97*i)
				if declined {
					// The nudge ends the live chain at the poller's
					// next step; from then on its steps are events.
					p.Sleep(gap - 50)
					l.decline = true
					l.w.Proc.Nudge()
					p.Sleep(50)
					for l.pos != 1 {
						p.Sleep(1)
					}
					l.decline = false
				} else {
					p.Sleep(gap)
				}
				write(r, p, line, uint64(i+1))
				log = append(log, fmt.Sprintf("t=%d wrote", p.Now()))
			}
		})
		r.e.Run()
		snap := r.e.Metrics().Snapshot()
		log = append(log, fmt.Sprintf("t=%d %v %+v", r.e.Now(), snap.Counters, r.sys.Stats(0)))
		return log, r.e.SkippedSteps()
	}
	got, skipped := run(nil)
	want, _ := run(func(sim.Time, sim.Time, uint64) (sim.Time, uint64) { return 0, 0 })
	if skipped == 0 {
		t.Error("no poll was skipped")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("runs differ:\nreference: %v\nskipping:  %v", want, got)
	}
}
