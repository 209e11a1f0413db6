package sim

import (
	"reflect"
	"testing"
	"testing/quick"

	"multikernel/internal/trace"
)

func TestSleepAdvancesTime(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Spawn("a", func(p *Proc) {
		p.Sleep(100)
		at = p.Now()
	})
	e.Run()
	if at != 100 {
		t.Fatalf("woke at %d, want 100", at)
	}
	if e.Now() != 100 {
		t.Fatalf("engine time %d, want 100", e.Now())
	}
}

func TestEventOrderingIsFIFOWithinCycle(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Sleep(50)
			order = append(order, i)
		})
	}
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

func TestAfterCallbackRunsAtScheduledTime(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.After(42, func() { at = e.Now() })
	e.Run()
	if at != 42 {
		t.Fatalf("callback at %d, want 42", at)
	}
}

func TestParkUnpark(t *testing.T) {
	e := NewEngine(1)
	var wokenAt Time
	sleeper := e.Spawn("sleeper", func(p *Proc) {
		p.Park()
		wokenAt = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(500)
		p.Unpark(sleeper)
	})
	e.Run()
	if wokenAt != 500 {
		t.Fatalf("woken at %d, want 500", wokenAt)
	}
	e.CheckQuiesced()
}

func TestUnparkBeforeParkLeavesToken(t *testing.T) {
	e := NewEngine(1)
	var ranToEnd bool
	var target *Proc
	target = e.Spawn("t", func(p *Proc) {
		p.Sleep(10) // let the waker go first
		p.Park()    // token already present: returns immediately
		ranToEnd = true
	})
	e.Spawn("w", func(p *Proc) {
		p.Sleep(5)
		p.Unpark(target)
	})
	e.Run()
	if !ranToEnd {
		t.Fatal("park with pending token blocked")
	}
	e.CheckQuiesced()
}

func TestParkTimeout(t *testing.T) {
	e := NewEngine(1)
	var timedOut bool
	var at Time
	e.Spawn("t", func(p *Proc) {
		timedOut = p.ParkTimeout(300)
		at = p.Now()
	})
	e.Run()
	if !timedOut {
		t.Fatal("expected timeout")
	}
	if at != 300 {
		t.Fatalf("timed out at %d, want 300", at)
	}
}

func TestParkTimeoutWokenEarly(t *testing.T) {
	e := NewEngine(1)
	var timedOut bool
	var at Time
	target := e.Spawn("t", func(p *Proc) {
		timedOut = p.ParkTimeout(1000)
		at = p.Now()
		p.Sleep(5000) // the stale timeout callback must not re-wake us early
	})
	e.Spawn("w", func(p *Proc) {
		p.Sleep(100)
		p.Unpark(target)
	})
	e.Run()
	if timedOut {
		t.Fatal("woken early but reported timeout")
	}
	if at != 100 {
		t.Fatalf("woke at %d, want 100", at)
	}
	if e.Now() != 5100 {
		t.Fatalf("end time %d, want 5100 (stale timeout interfered)", e.Now())
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("stuck", func(p *Proc) { p.Park() })
	e.Run()
	if d := e.Deadlocked(); len(d) != 1 || d[0] != "stuck" {
		t.Fatalf("deadlocked = %v, want [stuck]", d)
	}
	e.Close()
}

func TestDaemonExcludedFromDeadlock(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("server", func(p *Proc) {
		p.SetDaemon(true)
		p.Park()
	})
	e.Run()
	if d := e.Deadlocked(); len(d) != 0 {
		t.Fatalf("deadlocked = %v, want none", d)
	}
	e.Close()
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(100)
			ticks = append(ticks, p.Now())
		}
	})
	e.RunUntil(350)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks by t=350, want 3", len(ticks))
	}
	if e.Now() != 350 {
		t.Fatalf("now=%d, want 350", e.Now())
	}
	e.Run()
	if len(ticks) != 10 {
		t.Fatalf("got %d ticks after full run, want 10", len(ticks))
	}
}

func TestCloseKillsLiveProcs(t *testing.T) {
	e := NewEngine(1)
	cleaned := false
	e.Spawn("p", func(p *Proc) {
		defer func() {
			// defers still run on kill so models can release resources
			cleaned = true
			if r := recover(); r != nil {
				panic(r)
			}
		}()
		p.Park()
	})
	e.Run()
	e.Close()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on Close")
	}
	if len(e.procs) != 0 {
		t.Fatalf("%d procs alive after Close", len(e.procs))
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed uint64) []Time {
		e := NewEngine(seed)
		var log []Time
		for i := 0; i < 8; i++ {
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(e.RNG().Time(100) + 1)
					log = append(log, p.Now())
				}
			})
		}
		e.Run()
		return log
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different schedules")
	}
	c := run(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := NewEngine(1)
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(100)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(50)
			childAt = c.Now()
		})
	})
	e.Run()
	if childAt != 150 {
		t.Fatalf("child finished at %d, want 150", childAt)
	}
}

// Property: for any set of sleep durations, procs complete in nondecreasing
// time order and the engine clock ends at the max duration.
func TestSleepCompletionOrderProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 || len(durs) > 64 {
			return true
		}
		e := NewEngine(3)
		var finished []Time
		for _, d := range durs {
			d := Time(d)
			e.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				finished = append(finished, p.Now())
			})
		}
		e.Run()
		if len(finished) != len(durs) {
			return false
		}
		var max Time
		for i := 1; i < len(finished); i++ {
			if finished[i] < finished[i-1] {
				return false
			}
		}
		for _, d := range durs {
			if Time(d) > max {
				max = Time(d)
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerRecordsStructuredEvents(t *testing.T) {
	e := NewEngine(1)
	if e.Tracer() != nil {
		t.Fatal("tracing must be off by default")
	}
	rec := trace.NewRecorder()
	e.SetTracer(rec)
	e.Spawn("worker", func(p *Proc) {
		p.Sleep(50)
		e.Tracer().Emit(uint64(p.Now()), trace.Instant, trace.SubApp, 0, "phase", 0, 1)
		p.Sleep(50)
		e.Tracer().Emit(uint64(p.Now()), trace.Instant, trace.SubApp, 0, "phase", 0, 2)
	})
	e.Run()
	evs := rec.Events()
	if len(evs) != 2 {
		t.Fatalf("trace events: %v", evs)
	}
	if evs[0].At != 50 || evs[0].Arg != 1 || evs[1].At != 100 || evs[1].Arg != 2 {
		t.Fatalf("trace content: %v", evs)
	}
	// Removing the recorder disables tracing; emitting through the nil
	// recorder is a safe no-op.
	e.SetTracer(nil)
	e.Spawn("quiet", func(p *Proc) {
		e.Tracer().Emit(uint64(p.Now()), trace.Instant, trace.SubApp, 0, "ignored", 0, 0)
	})
	e.Run()
	if len(rec.Events()) != 2 {
		t.Fatal("trace recorded after recorder removal")
	}
}

// TestWakeEmitsTraceAndCounters pins the sim-layer instrumentation: proc
// wakeups show up as sim.wake instants when tracing and always move the
// sim.proc_wakes counter; the dispatch counter and heap high-water mark are
// sampled through the registry.
func TestWakeEmitsTraceAndCounters(t *testing.T) {
	e := NewEngine(1)
	rec := trace.NewRing(16)
	e.SetTracer(rec)
	var target *Proc
	target = e.Spawn("sleeper", func(p *Proc) { p.Park() })
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(10)
		p.Unpark(target)
	})
	e.Run()
	wakes := 0
	for _, ev := range rec.Events() {
		if ev.Name == "sim.wake" && ev.Kind == trace.Instant {
			wakes++
		}
	}
	if wakes != 1 {
		t.Fatalf("sim.wake instants = %d, want 1", wakes)
	}
	snap := e.Metrics().Snapshot()
	if snap.Counters["sim.proc_wakes"] != 1 {
		t.Fatalf("sim.proc_wakes = %d, want 1", snap.Counters["sim.proc_wakes"])
	}
	if snap.Counters["sim.events_dispatched"] == 0 || snap.Gauges["sim.heap_max_depth"] == 0 {
		t.Fatalf("engine counters not sampled: %v / %v", snap.Counters, snap.Gauges)
	}
}
