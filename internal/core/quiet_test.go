package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/urpc"
)

// ringPoller polls one URPC ring as sim.Proc.Idle steps, a one-ring monitor
// loop: a sweep is the check charge, the probe of the sequence word and the
// read, then a gap. It keeps one watch record across quiet calls, as
// urpc.Pass does. It has no wake hook, so when the ring's sender is in
// another partition only the delivered line's own nudge can end a skipped
// stretch.
type ringPoller struct {
	sys         *cache.System
	ch          *urpc.Channel
	ck          urpc.Check
	next        uint64 // sweep position of the next step: check, probe or read
	w           cache.Watcher
	oneChain    bool // after a chain start, quiet declines until cleared
	decline     bool // quiet declines, so no chain is live
	sw          *sim.Sweep
	first, done uint64
	t1          sim.Time
}

const ringPollGap = 31

func (r *ringPoller) step() (sim.Time, bool) {
	d, done, work := r.ch.CheckStep(&r.ck)
	switch {
	case done && work:
		r.next = 0
		return 0, true
	case done:
		r.next = 0
		return ringPollGap, false
	}
	r.next++
	return d, false
}

func (r *ringPoller) quiet(t1 sim.Time) (*sim.Sweep, uint64, uint64) {
	if r.decline {
		return nil, 0, 0
	}
	first := r.next
	at := func(pos uint64) uint64 { return (pos+3-first)%3 + 1 }
	act := at(2) + 3*1000 // give up after a thousand quiet sweeps
	if !r.w.Clean {
		switch hit, ready := r.ch.Watch(&r.w); {
		case !hit && first == 2:
			return nil, 0, 0
		case !hit:
			act = min(act, at(1))
		case ready:
			act = min(act, at(2))
		}
	}
	if r.oneChain {
		act = min(act, at(2)+3*3) // a short chain, over before the next message
		r.decline = act >= 2
	}
	r.first, r.done, r.t1 = first, 0, t1
	return r.sw, first, act
}

func (r *ringPoller) settle(k uint64) {
	at := func(k uint64) sim.Time { return r.t1 + r.sw.At(r.first+k-1) - r.sw.At(r.first) }
	lo, hi := r.first+r.done, r.first+k
	r.sys.AddHits(r.ch.Receiver, (hi+1)/3-(lo+1)/3) // probes sit at index 1 mod 3
	r.done, r.next = k, hi%3
	switch r.next {
	case 0:
		r.ck = urpc.Check{}
	case 1:
		r.ch.SetCheck(&r.ck, at(k), false)
	default:
		r.ch.SetCheck(&r.ck, at(k-1), true)
	}
}

// TestRemoteRingLineNudgesPoller runs a ring poller on core 2 of a
// two-partition AMD2x2 whose sender, core 0, is in the other partition, so
// every message reaches the poller's replica as a delivered line. With no
// perturb hook the poller's quiet steps are skipped, with a zero hook in
// both partitions each is an event; the receive log, clocks, metrics and
// checkpoint image must be equal.
//
// In the "declined" run the poller starts one short chain after each
// drain, whose watch finds the ring's next line held and empty once an
// empty drain has loaded it, and then declines until the next line lands:
// every delivery finds the record clean and no chain live, and only the
// record, dirtied by the delivery, makes the next chain start watch the
// line again before its probe.
func TestRemoteRingLineNudgesPoller(t *testing.T) {
	for _, declined := range []bool{false, true} {
		got, gotImg, skipped := remoteRingRun(t, declined, nil)
		want, wantImg, _ := remoteRingRun(t, declined, func(sim.Time, sim.Time, uint64) (sim.Time, uint64) { return 0, 0 })
		if skipped == 0 {
			t.Errorf("declined=%v: no poll was skipped", declined)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("declined=%v: runs differ:\nreference: %v\nskipping:  %v", declined, want, got)
		}
		if !bytes.Equal(gotImg, wantImg) {
			t.Errorf("declined=%v: checkpoint images differ", declined)
		}
	}
}

// remoteRingRun runs TestRemoteRingLineNudgesPoller's system under hook
// and returns its receive log, checkpoint image and skipped step count.
func remoteRingRun(t *testing.T, declined bool, hook sim.PerturbFunc) ([]string, []byte, uint64) {
	m := topo.AMD2x2()
	pm := topo.PerSocket(m)
	pe := sim.NewParallelEngine(pm.NParts(), interconnect.Lookahead(m, pm), 5, 1)
	defer pe.Close()
	ps := BootParallel(pe, m, Options{})
	var log []string
	ps.Each(func(part int, s *System) {
		s.Eng.SetPerturb(hook)
		ch := urpc.New(s.Cache, 0, 2, urpc.Options{Home: -1, Slots: 4})
		if s.Cache.LocalCore(2) {
			check, probe := ch.CheckGaps()
			r := &ringPoller{sys: s.Cache, ch: ch, oneChain: declined, sw: sim.NewSweep([]sim.Time{check, probe, ringPollGap})}
			if declined {
				ch.OnRemoteDeliver = func() { r.decline = false }
			}
			r.w.Proc = s.Eng.Spawn("poller", func(p *sim.Proc) {
				buf := make([]urpc.Message, 2)
				for got := 0; got < 12; {
					p.Idle(r.step, r.quiet, r.settle)
					n := ch.Drain(p, buf, &r.ck)
					got += n
					log = append(log, fmt.Sprintf("t=%d drained %d", p.Now(), n))
					r.decline = false
				}
			})
		}
		if s.Cache.LocalCore(0) {
			s.Eng.Spawn("sender", func(p *sim.Proc) {
				for i := 0; i < 12; i++ {
					p.Sleep(sim.Time(400 + 173*(i%5)))
					ch.Send(p, []urpc.Message{{uint64(i)}}, urpc.Spin)
				}
			})
		}
	})
	pe.Run()
	var img bytes.Buffer
	if err := pe.Checkpoint(&img); err != nil {
		t.Fatal(err)
	}
	snap := pe.MetricsSnapshot()
	log = append(log, fmt.Sprintf("t=%d/%d %v", pe.Part(0).Now(), pe.Part(1).Now(), snap.Counters))
	return log, img.Bytes(), pe.Part(0).SkippedSteps() + pe.Part(1).SkippedSteps()
}
