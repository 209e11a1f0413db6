//go:build !race

package sim

import (
	"fmt"
	"testing"
)

// TestEpochBarrierAllocs pins the zero-allocation contract of the
// steady-state epoch path: events are pooled and outbox slices keep their
// capacity across epochs, so once the heaps and outboxes are warm, running
// epochs of cross-partition traffic that forwards pre-built closures
// performs no engine allocation. Gated out under -race because the race
// runtime instruments allocations.
func TestEpochBarrierAllocs(t *testing.T) {
	const nparts = 4
	L := Time(500)
	for _, workers := range []int{1, nparts} {
		pe := NewParallelEngine(nparts, L, 3, workers)
		// Perpetual ring: fwd[i] runs on partition i and sends fwd[i+1] on.
		fwd := make([]func(), nparts)
		for i := range fwd {
			next := (i + 1) % nparts
			fwd[i] = func() { pe.Send(i, next, L, fwd[next]) }
		}
		for i := 0; i < nparts; i++ {
			for k := 0; k < 8; k++ {
				pe.Send(i, (i+1)%nparts, L, fwd[(i+1)%nparts])
			}
		}
		// Warm up: grow heaps, outbox capacity, the event free lists and the
		// helpers' steady state.
		end := 50 * L
		pe.RunUntil(end)
		avg := testing.AllocsPerRun(20, func() {
			end += 10 * L
			pe.RunUntil(end)
		})
		pe.Stop()
		pe.Close()
		if avg > 0 {
			t.Errorf("workers=%d: steady-state epoch path allocates %.1f objects per 10 epochs, want 0", workers, avg)
		}
	}
}

// BenchmarkParallelEnginePinned is the fixed-cycle engine benchmark consumed
// by ci/traceguard: a deterministic cross-partition storm over a pinned
// virtual-time window, reported as simulated events per wall-second. The
// sub-benchmarks pin the worker count so serial and parallel engine
// executions are tracked side by side.
func BenchmarkParallelEnginePinned(b *testing.B) {
	const nparts = 4
	L := Time(500)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				pe := NewParallelEngine(nparts, L, 3, workers)
				// recv takes token v on partition p and sends v+1 on.
				var recv func(p int, v uint64)
				recv = func(p int, v uint64) {
					q := (p + 1) % nparts
					pe.Send(p, q, L+Time(v%63), func() { recv(q, v+1) })
				}
				for p := 0; p < nparts; p++ {
					e := pe.Part(p)
					pe.Spawn(p, fmt.Sprintf("local%d", p), func(pr *Proc) {
						for pr.Now() < 2000*L {
							pr.Sleep(1 + e.RNG().Time(100))
						}
					})
				}
				for p := 0; p < nparts; p++ {
					q := (p + 1) % nparts
					pe.Send(p, q, L, func() { recv(q, uint64(p)) })
				}
				pe.RunUntil(2000 * L)
				events = pe.MetricsSnapshot().Counters["sim.events_dispatched"]
				pe.Stop()
				pe.Close()
			}
			b.ReportMetric(float64(events), "simevents/op")
		})
	}
}

// TestSwitchAllocs pins the zero-allocation contract of a simulated context
// switch: Sleeps that wake in place, a resume from the Run caller, and
// hand-offs between two procs through it. Gated out under -race like
// TestEpochBarrierAllocs.
func TestSwitchAllocs(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	sleeper := e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Park()
			for i := 0; i < 100; i++ {
				p.Sleep(1) // nothing else queued: in place
			}
		}
	})
	e.Run()
	if avg := testing.AllocsPerRun(20, func() {
		e.Wake(sleeper)
		e.Run()
	}); avg != 0 {
		t.Errorf("in-place Sleep: %.1f allocs per 100 sleeps, want 0", avg)
	}
	var pong *Proc
	e.Spawn("ping", func(p *Proc) {
		for {
			p.Sleep(1)
			p.Unpark(pong)
		}
	})
	pong = e.Spawn("pong", func(p *Proc) {
		for {
			p.Park()
		}
	})
	e.RunUntil(e.Now() + 10)
	if avg := testing.AllocsPerRun(20, func() { e.RunUntil(e.Now() + 10) }); avg != 0 {
		t.Errorf("cross-proc hand-off: %.1f allocs per 20 switches, want 0", avg)
	}
}

// TestIdleStepAllocs pins the zero-allocation contract of an idle step run
// inline: a poller whose every poll is empty, interleaved with a ticker so
// its wakeups go through the heap, costs no allocation per step.
func TestIdleStepAllocs(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	polls := 0
	step := func() (Time, bool) {
		polls++
		return 3, false
	}
	e.Spawn("poller", func(p *Proc) { p.Idle(step, nil, nil) })
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(2)
		}
	})
	e.RunUntil(100)
	before := polls
	if avg := testing.AllocsPerRun(20, func() { e.RunUntil(e.Now() + 30) }); avg != 0 {
		t.Errorf("inline idle step: %.1f allocs per 10 steps, want 0", avg)
	}
	if polls-before < 200 {
		t.Fatalf("poller stepped %d times in 21 windows, want at least 200", polls-before)
	}
}

// TestQueueAllocs pins the zero-allocation contract of the event queue: 32
// callbacks rescheduling themselves with delays below, at and above the
// calendar's span keep both the calendar and the heap populated, and once
// the free list and the heap's capacity are warm, schedule and dispatch
// allocate nothing.
func TestQueueAllocs(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	delays := []Time{1, 3, 140, calSpan - 1, calSpan, calSpan + 1, 5 * calSpan}
	for i := 0; i < 32; i++ {
		d := delays[i%len(delays)]
		var fn func()
		fn = func() { e.After(d, fn) }
		e.After(Time(i), fn)
	}
	e.RunUntil(20 * calSpan)
	if calendar := e.pending - len(e.heap); calendar == 0 || len(e.heap) == 0 {
		t.Fatalf("%d events in the calendar and %d in the heap; want both in use", calendar, len(e.heap))
	}
	if avg := testing.AllocsPerRun(20, func() { e.RunUntil(e.Now() + 2*calSpan) }); avg != 0 {
		t.Errorf("steady-state schedule and dispatch: %.1f allocs per %d cycles, want 0", avg, 2*calSpan)
	}
}

// TestMailboxReusesItsArray pins sim.Queue's reuse of its backing array: a
// FIFO that holds a few items at a time allocates nothing once warm, however
// many items pass through it.
func TestMailboxReusesItsArray(t *testing.T) {
	q := NewQueue[[]byte](NewEngine(1))
	item := []byte("frame")
	for i := 0; i < 3; i++ {
		q.Push(item)
	}
	if avg := testing.AllocsPerRun(200, func() {
		q.Push(item)
		q.TryPop()
	}); avg != 0 {
		t.Errorf("steady-state push and pop: %.2f allocs per item, want 0", avg)
	}
}
