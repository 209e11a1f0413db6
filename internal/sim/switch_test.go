package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"multikernel/internal/metrics"
)

// switchOutcome is everything a run of one TestInPlaceWakeupMatchesHeapPath
// row exposes: the (time, who) log, the final clock of every engine, and
// every engine's metrics snapshot (sim.events_dispatched,
// sim.heap_max_depth and sim.proc_wakes included).
type switchOutcome struct {
	log   []string
	now   []Time
	snaps []metrics.Snapshot
}

// serialRow adapts a scenario on one engine to a row: build sets up procs
// and drives the engine itself, logging through log.
func serialRow(build func(e *Engine, log func(who string))) func(PerturbFunc) switchOutcome {
	return func(hook PerturbFunc) switchOutcome {
		e := NewEngine(1)
		defer e.Close()
		e.SetPerturb(hook)
		var out switchOutcome
		build(e, func(who string) { out.log = append(out.log, fmt.Sprintf("t=%d %s", e.Now(), who)) })
		out.now = []Time{e.Now()}
		out.snaps = []metrics.Snapshot{e.Metrics().Snapshot()}
		return out
	}
}

// parallelStraddle runs four partitions whose procs sleep across the
// 100-cycle epoch ends at different offsets, post to the next partition, and
// wake a parked sink there. Each partition logs on its own, so the row runs
// at four workers.
func parallelStraddle(hook PerturbFunc) switchOutcome {
	const nparts = 4
	pe := NewParallelEngine(nparts, 100, 1, nparts)
	defer pe.Close()
	logs := make([][]string, nparts)
	recv := make([]func(k int), nparts)
	for i := 0; i < nparts; i++ {
		e := pe.Part(i)
		e.SetPerturb(hook)
		log := func(who string) { logs[i] = append(logs[i], fmt.Sprintf("p%d t=%d %s", i, e.Now(), who)) }
		sink := e.Spawn("sink", func(p *Proc) {
			p.SetDaemon(true)
			for {
				p.Park()
				log("sink")
			}
		})
		recv[i] = func(k int) {
			log(fmt.Sprintf("msg %d", k))
			e.Wake(sink)
		}
		e.Spawn("worker", func(p *Proc) {
			for k := 0; k < 24; k++ {
				p.Sleep(Time(29 + 13*i + k%5))
				log("worker")
				if k%3 == 0 {
					pe.Send(i, (i+1)%nparts, 100+Time(k), func() { recv[(i+1)%nparts](k) })
				}
			}
		})
	}
	pe.RunUntil(450) // a limit inside an epoch, resumed by Run
	pe.Run()
	var out switchOutcome
	for i := 0; i < nparts; i++ {
		out.log = append(out.log, logs[i]...)
		out.now = append(out.now, pe.Part(i).Now())
		out.snaps = append(out.snaps, pe.Part(i).Metrics().Snapshot())
	}
	return out
}

// TestInPlaceWakeupMatchesHeapPath runs each edge of the in-place wakeup
// twice: with no perturb hook, where a Sleep whose wakeup is next advances
// the clock in place, and with a hook that perturbs nothing, where every
// wakeup goes through the heap. Both runs must log the same (time, proc)
// sequence and end with the same clocks and metrics.
func TestInPlaceWakeupMatchesHeapPath(t *testing.T) {
	zero := func(Time, Time, uint64) (Time, uint64) { return 0, 0 }
	rows := []struct {
		name string
		run  func(PerturbFunc) switchOutcome
	}{
		{"tie with a queued event", serialRow(func(e *Engine, log func(string)) {
			e.After(10, func() { log("cb") })
			e.Spawn("a", func(p *Proc) {
				p.Sleep(10) // the callback queued first at 10 runs first
				log("a")
				p.Sleep(5) // b's wakeup at 15 is older: b runs first
				log("a")
				p.Sleep(5) // nothing queued
				log("a")
				for i := 0; i < 3; i++ {
					e.After(50, func() { log("cb") })
				}
				p.Sleep(1) // only later events queued: the deepest heap is 4
				log("a")
			})
			e.Spawn("b", func(p *Proc) {
				p.Sleep(15)
				log("b")
			})
			e.Run()
		})},
		{"sleep crosses a RunUntil limit", serialRow(func(e *Engine, log func(string)) {
			e.Spawn("a", func(p *Proc) {
				for i := 0; i < 6; i++ {
					p.Sleep(5)
					log("a")
				}
			})
			e.RunUntil(12) // the wakeup at 15 waits for the next call
			log("caller")
			e.RunUntil(22)
			log("caller")
			e.Run()
		})},
		{"Sleep(0)", serialRow(func(e *Engine, log func(string)) {
			e.Spawn("a", func(p *Proc) {
				p.Sleep(0) // nothing else this cycle
				log("a")
				e.After(0, func() { log("cb") })
				p.Sleep(0) // the same-cycle callback runs first
				log("a")
				p.Sleep(3)
				log("a")
				e.Spawn("b", func(p *Proc) {
					log("b")
					p.Sleep(0)
					log("b")
				})
				p.Sleep(0) // b starts first; b's Sleep(0) then queues behind a
				log("a")
			})
			e.Run()
		})},
		{"callback before the wakeup kills the sleeper", serialRow(func(e *Engine, log func(string)) {
			victim := e.Spawn("victim", func(p *Proc) {
				p.Sleep(2)
				log("victim")
				defer log("victim unwound")
				p.Sleep(10) // killed at 5; the wakeup at 12 is stale
				log("victim woke")
			})
			e.After(5, func() { e.Kill(victim) })
			e.Spawn("other", func(p *Proc) {
				for i := 0; i < 5; i++ {
					p.Sleep(4)
					log("other")
				}
			})
			e.Run()
		})},
		{"parallel engine, sleeps straddle epoch ends", parallelStraddle},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			inPlace, viaHeap := r.run(nil), r.run(zero)
			if len(inPlace.log) == 0 {
				t.Fatal("scenario logged nothing")
			}
			if !reflect.DeepEqual(inPlace.log, viaHeap.log) {
				t.Errorf("logs differ:\nno hook:   %s\nzero hook: %s",
					strings.Join(inPlace.log, ", "), strings.Join(viaHeap.log, ", "))
			}
			if !reflect.DeepEqual(inPlace.now, viaHeap.now) {
				t.Errorf("final clocks differ: no hook %v, zero hook %v", inPlace.now, viaHeap.now)
			}
			if !reflect.DeepEqual(inPlace.snaps, viaHeap.snaps) {
				t.Errorf("metrics differ:\nno hook:   %v\nzero hook: %v", inPlace.snaps, viaHeap.snaps)
			}
		})
	}
}

func explode() { panic("boom") }

// pollUntil is an idle step that polls every 10 cycles and explodes at t=50.
func pollUntil(p *Proc) func() (Time, bool) {
	return func() (Time, bool) {
		if p.Now() >= 50 {
			explode()
		}
		return 10, false
	}
}

// TestProcPanicReachesRunCaller: a panic in simulated code surfaces from
// Run, where the caller can recover it, and names the proc, the virtual
// time, the value and the panicking function. An idle step that panics
// names its own proc, whichever context dispatch ran it in.
func TestProcPanicReachesRunCaller(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proc  string
		at    string
		build func(e *Engine) // spawns the procs and runs up to the last Run
	}{
		{name: "proc code", proc: "crasher", at: "t=5", build: func(e *Engine) {
			e.Spawn("crasher", func(p *Proc) {
				p.Sleep(5)
				explode()
			})
			e.Spawn("bystander", func(p *Proc) { p.Sleep(100) })
		}},
		{name: "step in its own proc", proc: "poller", at: "t=50", build: func(e *Engine) {
			e.Spawn("poller", func(p *Proc) { p.Idle(pollUntil(p), nil, nil) })
		}},
		{name: "step inline in a yielding proc", proc: "poller", at: "t=50", build: func(e *Engine) {
			e.Spawn("poller", func(p *Proc) { p.Idle(pollUntil(p), nil, nil) })
			e.Spawn("other", func(p *Proc) {
				p.Sleep(45)
				p.Sleep(10) // dispatches the poller's t=50 step
			})
		}},
		{name: "step inline in an exiting proc", proc: "poller", at: "t=50", build: func(e *Engine) {
			e.Spawn("poller", func(p *Proc) { p.Idle(pollUntil(p), nil, nil) })
			e.Spawn("other", func(p *Proc) { p.Sleep(45) })
		}},
		{name: "step inline in the Run caller", proc: "poller", at: "t=50", build: func(e *Engine) {
			e.Spawn("poller", func(p *Proc) { p.Idle(pollUntil(p), nil, nil) })
			e.RunUntil(45) // the t=50 step is queued when Run starts
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			tc.build(e)
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				e.Run()
				return "Run returned"
			}()
			for _, want := range []string{fmt.Sprintf("proc %q", tc.proc), tc.at, "boom", "sim.explode"} {
				if !strings.Contains(msg, want) {
					t.Errorf("recovered panic lacks %q:\n%s", want, msg)
				}
			}
			if strings.Count(msg, "panicked") != 1 {
				t.Errorf("panic named more than once:\n%s", msg)
			}
			e.Close()
		})
	}
}
