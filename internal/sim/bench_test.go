package sim

import (
	"fmt"
	"testing"

	"multikernel/internal/trace"
)

// BenchmarkScheduleDispatch measures the engine-context fast path: schedule
// an After callback and dispatch it, with no proc handoff. Steady state must
// be zero-alloc: events come from the free list and the callback closure is
// hoisted out of the loop.
func BenchmarkScheduleDispatch(b *testing.B) {
	e := NewEngine(1)
	n := 0
	fn := func() { n++ }
	// Warm the free list and heap capacity.
	e.After(1, fn)
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.Run()
	}
	if n != b.N+1 {
		b.Fatalf("dispatched %d callbacks, want %d", n, b.N+1)
	}
}

// BenchmarkScheduleDispatchDeep measures schedule+dispatch with 1,024
// far-future events queued. They sit in the heap, so each measured event,
// due next cycle, goes to the calendar and becomes the head at once.
func BenchmarkScheduleDispatchDeep(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	// A standing population of far-future events keeps the queue deep.
	for i := 0; i < 1024; i++ {
		e.After(Forever, fn)
	}
	e.After(1, fn)
	e.RunUntil(e.Now() + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.RunUntil(e.Now() + 1)
	}
}

// BenchmarkIdlePollDeep measures schedule and dispatch with a deep
// near-future population, the shape of idle monitors polling on 8x4: 32
// procs in Proc.Idle loops whose steps follow a monitor's idle sweep, a 10-
// and a 3-cycle step per peer ring for 31 peers, then 8 cycles of loop
// bookkeeping and a 140-cycle sleep. One op is one step, one event.
func BenchmarkIdlePollDeep(b *testing.B) {
	const procs, peers = 32, 31
	e := NewEngine(1)
	for i := 0; i < procs; i++ {
		k := 5 * i // stagger the procs across the sweep
		e.Spawn(fmt.Sprintf("mon%d", i), func(p *Proc) {
			p.Idle(func() (Time, bool) {
				k = (k + 1) % (2*peers + 2)
				switch {
				case k == 2*peers:
					return 8, false
				case k == 2*peers+1:
					return 140, false
				case k%2 == 0:
					return 10, false
				}
				return 3, false
			}, nil, nil)
		})
	}
	e.RunUntil(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for end := e.seq + uint64(b.N); e.seq < end; {
		e.RunUntil(e.Now() + 100)
	}
	b.StopTimer()
	e.Close()
}

// BenchmarkProcHandoff measures the proc resume path: one Sleep per
// iteration is one schedule, one switch from the Run caller to the proc and
// one switch back. Zero allocations in steady state.
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine(1)
	stop := false
	e.Spawn("worker", func(p *Proc) {
		for !stop {
			p.Sleep(1)
		}
	})
	// Reach steady state: the proc is parked in its Sleep loop.
	e.RunUntil(e.Now() + 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 1)
	}
	b.StopTimer()
	stop = true
	e.Run()
}

// BenchmarkParkUnpark measures the wakeup path underlying URPC blocking
// receives and monitor request loops: each virtual cycle, one proc wakes
// from Sleep and Unparks a parked peer (two proc switches per cycle).
func BenchmarkParkUnpark(b *testing.B) {
	e := NewEngine(1)
	stop := false
	var pong *Proc
	e.Spawn("ping", func(p *Proc) {
		for !stop {
			p.Sleep(1)
			p.Unpark(pong)
		}
	})
	pong = e.Spawn("pong", func(p *Proc) {
		p.SetDaemon(true)
		for {
			p.Park()
		}
	})
	e.RunUntil(e.Now() + 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 1)
	}
	b.StopTimer()
	stop = true
	e.Run()
	e.Close()
}

// benchWakeLoop is the ParkUnpark workload parameterized by tracer: it drives
// the instrumented paths (Wake emits a sim.wake instant when tracing), so the
// TraceOff/TraceOn pair below measures exactly the overhead the trace layer's
// disabled contract promises to keep under 2%.
func benchWakeLoop(b *testing.B, rec *trace.Recorder) {
	e := NewEngine(1)
	e.SetTracer(rec)
	stop := false
	var pong *Proc
	e.Spawn("ping", func(p *Proc) {
		for !stop {
			p.Sleep(1)
			p.Unpark(pong)
		}
	})
	pong = e.Spawn("pong", func(p *Proc) {
		p.SetDaemon(true)
		for {
			p.Park()
		}
	})
	e.RunUntil(e.Now() + 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 1)
	}
	b.StopTimer()
	stop = true
	e.Run()
	e.Close()
}

// BenchmarkTraceOffWake is the tracing-disabled baseline guarded by CI
// (ci/traceguard): a regression here means the nil-recorder fast path grew.
func BenchmarkTraceOffWake(b *testing.B) { benchWakeLoop(b, nil) }

// BenchmarkTraceOnWake is the same workload with a ring recorder attached,
// for judging the enabled-path cost (not guarded; tracing on may cost more).
func BenchmarkTraceOnWake(b *testing.B) { benchWakeLoop(b, trace.NewRing(1<<16)) }

// BenchmarkTraceOffDispatch is the engine-context schedule+dispatch fast path
// with tracing disabled — the second CI-guarded baseline, covering the
// dispatched/maxHeap counter bookkeeping added to the hot loop.
func BenchmarkTraceOffDispatch(b *testing.B) {
	e := NewEngine(1)
	n := 0
	fn := func() { n++ }
	e.After(1, fn)
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.Run()
	}
}
