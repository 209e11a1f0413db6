package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"multikernel/internal/metrics"
	"multikernel/internal/trace"
)

// pollLoop runs a polling loop on p: Proc.Idle, or the Sleep loop Idle must
// equal.
type pollLoop func(p *Proc, step func() (Time, bool))

// sleepLoop is the reference Proc.Idle is specified against.
func sleepLoop(p *Proc, step func() (Time, bool)) {
	for {
		d, resume := step()
		if resume {
			return
		}
		p.Sleep(d)
	}
}

func idleLoop(p *Proc, step func() (Time, bool)) { p.Idle(step, nil, nil) }

// idleOutcome is everything one run of a TestIdleMatchesSleepLoop row
// exposes: its (time, who) log, the final clock and sequence number, the
// metrics snapshot (sim.events_dispatched, sim.heap_max_depth and
// sim.proc_wakes included) and the exported trace.
type idleOutcome struct {
	log   []string
	now   Time
	seq   uint64
	snap  metrics.Snapshot
	trace []byte
}

// runIdleRow builds a row's scenario on a fresh traced engine with the
// given hook and loop, drives it, closes the engine and collects the
// outcome. Every log line is also a trace instant.
func runIdleRow(build func(e *Engine, loop pollLoop, log func(string)), hook PerturbFunc, loop pollLoop) idleOutcome {
	e := NewEngine(1)
	e.SetPerturb(hook)
	rec := trace.NewRecorder()
	e.SetTracer(rec)
	var out idleOutcome
	log := func(who string) {
		out.log = append(out.log, fmt.Sprintf("t=%d %s", e.Now(), who))
		rec.Emit(uint64(e.Now()), trace.Instant, trace.SubApp, 0, who, 0, 0)
	}
	build(e, loop, log)
	e.Close()
	out.now, out.seq = e.Now(), e.seq
	out.snap = e.Metrics().Snapshot()
	var b bytes.Buffer
	if err := trace.WriteJSON(&b, rec); err != nil {
		panic(err)
	}
	out.trace = b.Bytes()
	return out
}

// TestIdleMatchesSleepLoop runs every row with Proc.Idle and with the
// equivalent Sleep loop, under no hook (in-place wakeups on), a zero hook
// (every wakeup through the heap) and a seeded perturb hook (jitter and tie
// demotion). For each hook both runs must log the same (time, who)
// sequence and end with the same clock, sequence number, metrics and trace
// bytes.
func TestIdleMatchesSleepLoop(t *testing.T) {
	hooks := []struct {
		name string
		hook func() PerturbFunc
	}{
		{"no hook", func() PerturbFunc { return nil }},
		{"zero hook", func() PerturbFunc {
			return func(Time, Time, uint64) (Time, uint64) { return 0, 0 }
		}},
		{"seeded hook", func() PerturbFunc {
			r := NewRNG(7)
			return func(Time, Time, uint64) (Time, uint64) { return r.Time(3), r.Uint64() % 2 }
		}},
	}
	rows := []struct {
		name  string
		build func(e *Engine, loop pollLoop, log func(string))
	}{
		{"polls wake procs and arm callbacks", func(e *Engine, loop pollLoop, log func(string)) {
			consumer := e.Spawn("consumer", func(p *Proc) {
				p.SetDaemon(true)
				for {
					p.Park()
					log("consumer")
				}
			})
			e.Spawn("poller", func(p *Proc) {
				for round := 0; round < 4; round++ {
					polls := 0
					loop(p, func() (Time, bool) {
						polls++
						log(fmt.Sprintf("poll %d", polls))
						switch {
						case polls%3 == 0:
							e.Wake(consumer)
						case polls%5 == 0:
							e.After(7, func() { log("cb") })
						}
						return Time(polls % 4), polls == 8+round // Sleep(0) included
					})
					log("poller resumed")
					p.Sleep(11)
				}
			})
			e.Spawn("ticker", func(p *Proc) {
				for i := 0; i < 30; i++ {
					p.Sleep(Time(2 + i%3))
					log("ticker")
				}
			})
			e.Run()
		}},
		{"Kill from a proc while idling", func(e *Engine, loop pollLoop, log func(string)) {
			victim := e.Spawn("victim", func(p *Proc) {
				defer log("victim unwound")
				loop(p, func() (Time, bool) {
					log("victim poll")
					return 3, false
				})
				log("victim resumed")
			})
			e.Spawn("killer", func(p *Proc) {
				p.Sleep(10)
				e.Kill(victim)
				log("killed")
				p.Sleep(5)
				log("killer")
			})
			e.Run()
		}},
		{"Kill from a callback while idling", func(e *Engine, loop pollLoop, log func(string)) {
			victim := e.Spawn("victim", func(p *Proc) {
				defer log("victim unwound")
				loop(p, func() (Time, bool) {
					log("victim poll")
					return 5, false
				})
			})
			e.After(15, func() { e.Kill(victim) }) // ties with the poll at 15
			e.Spawn("other", func(p *Proc) {
				for i := 0; i < 6; i++ {
					p.Sleep(4)
					log("other")
				}
			})
			e.Run()
		}},
		{"RunUntil limit inside an idle run", func(e *Engine, loop pollLoop, log func(string)) {
			e.Spawn("poller", func(p *Proc) {
				polls := 0
				loop(p, func() (Time, bool) {
					polls++
					log("poll")
					return 4, polls == 12
				})
				log("poller done")
			})
			e.RunUntil(9) // the poll at 12 waits for the next call
			log("caller")
			e.RunUntil(9)
			e.RunUntil(21)
			log("caller")
			e.Run()
		}},
		{"Close while idling", func(e *Engine, loop pollLoop, log func(string)) {
			e.Spawn("victim", func(p *Proc) {
				defer log("victim unwound")
				loop(p, func() (Time, bool) {
					log("victim poll")
					return 5, false
				})
			})
			e.Spawn("other", func(p *Proc) {
				for {
					p.Sleep(7)
					log("other")
				}
			})
			e.RunUntil(23) // runIdleRow's Close unwinds both mid-loop
		}},
	}
	for _, r := range rows {
		for _, h := range hooks {
			t.Run(r.name+"/"+h.name, func(t *testing.T) {
				want, got := runIdleRow(r.build, h.hook(), sleepLoop), runIdleRow(r.build, h.hook(), idleLoop)
				if len(want.log) == 0 {
					t.Fatal("scenario logged nothing")
				}
				if !reflect.DeepEqual(want.log, got.log) {
					t.Errorf("logs differ:\nSleep loop: %s\nIdle:       %s",
						strings.Join(want.log, ", "), strings.Join(got.log, ", "))
				}
				if want.now != got.now || want.seq != got.seq {
					t.Errorf("clock/sequence differ: Sleep loop %d/%d, Idle %d/%d", want.now, want.seq, got.now, got.seq)
				}
				if !reflect.DeepEqual(want.snap, got.snap) {
					t.Errorf("metrics differ:\nSleep loop: %v\nIdle:       %v", want.snap, got.snap)
				}
				if !bytes.Equal(want.trace, got.trace) {
					t.Errorf("trace bytes differ:\nSleep loop: %s\nIdle:       %s", want.trace, got.trace)
				}
			})
		}
	}
}
