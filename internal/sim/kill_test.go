package sim

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the live goroutine count drops to at most bound,
// giving freshly unwound proc coroutines a moment to exit (each is backed by
// a goroutine, which may still be finishing after the switch back to Close).
func waitGoroutines(t *testing.T, bound int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > bound && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > bound {
		t.Fatalf("goroutine leak: %d live, want <= %d", n, bound)
	}
}

// TestKillUnwindsParkedProc fail-stops a parked proc at virtual time and
// verifies its goroutine is released without running any further simulated
// code, and that the kill lands at the right virtual time.
func TestKillUnwindsParkedProc(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	resumed := false
	victim := e.Spawn("victim", func(p *Proc) {
		p.Park()
		resumed = true
	})
	e.Spawn("killer", func(p *Proc) {
		p.Sleep(100)
		e.Kill(victim)
	})
	e.Run()
	if resumed {
		t.Fatal("killed proc ran past its Park")
	}
	if d := e.Deadlocked(); len(d) != 0 {
		t.Fatalf("deadlocked procs after kill: %v", d)
	}
	e.Close()
	waitGoroutines(t, base)
}

// TestKillFromEngineCallback is the fault-injector shape: a timer callback
// kills a proc that is mid-Sleep. The proc must unwind at the kill time, not
// at the end of its sleep, and its later sleep event must be discarded.
func TestKillFromEngineCallback(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	var died Time
	victim := e.Spawn("victim", func(p *Proc) {
		p.Sleep(10_000)
		t.Error("killed proc woke from Sleep")
	})
	e.After(50, func() { e.Kill(victim) })
	e.After(51, func() { died = e.Now() })
	e.Run()
	if died != 51 {
		t.Fatalf("run did not pass the kill window: t=%d", died)
	}
	if e.Now() != 10_000 {
		t.Fatalf("queue should still drain past the stale sleep event: now=%d", e.Now())
	}
	e.Close()
	waitGoroutines(t, base)
}

// TestKillIsIdempotent kills the same proc twice (second kill after the proc
// is already gone) and kills an already-finished proc.
func TestKillIsIdempotent(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	victim := e.Spawn("victim", func(p *Proc) { p.Park() })
	finished := e.Spawn("finished", func(p *Proc) {})
	e.Spawn("killer", func(p *Proc) {
		p.Sleep(10)
		e.Kill(victim)
		e.Kill(victim)
		p.Sleep(10)
		e.Kill(victim)
		e.Kill(finished)
	})
	e.Run()
	e.CheckQuiesced()
}

// TestSelfKillUnwindsAtNextYield: a proc killing itself keeps running until
// its next yield point, then unwinds.
func TestSelfKillUnwindsAtNextYield(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	reachedYield := false
	e.Spawn("suicidal", func(p *Proc) {
		e.Kill(p)
		reachedYield = true // code before the yield still runs
		p.Sleep(1)
		t.Error("self-killed proc survived its yield")
	})
	e.Run()
	if !reachedYield {
		t.Fatal("self-kill pre-empted straight-line code")
	}
	e.CheckQuiesced()
}

// TestCloseWithProcBlockedOnPoisonedChannel models a dead-peer wait: the
// producer is fail-stopped, leaving the consumer parked forever on a channel
// that will never be written. Close must reap the blocked consumer without
// hanging, and no goroutine may outlive it (the regression bound required by
// the fault model).
func TestCloseWithProcBlockedOnPoisonedChannel(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(7)
	q := NewQueue[int](e)
	producer := e.Spawn("producer", func(p *Proc) {
		p.Sleep(1000)
		q.Push(1) // never reached: killed at t=100
	})
	e.Spawn("consumer", func(p *Proc) {
		q.Pop(p) // blocks forever once the producer dies
		t.Error("consumer received from a poisoned channel")
	})
	e.After(100, func() { e.Kill(producer) })
	e.Run()
	if d := e.Deadlocked(); len(d) != 1 || d[0] != "consumer" {
		t.Fatalf("want exactly the consumer deadlocked, got %v", d)
	}
	e.Close()
	waitGoroutines(t, base)
}

// TestKilledProcNeverLeaksUnderChurn spawns and kills many procs across a run
// and bounds the goroutine count, the NumGoroutine regression guard from the
// fault-injection work.
func TestKilledProcNeverLeaksUnderChurn(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(3)
	for i := 0; i < 64; i++ {
		d := Time(i)
		victim := e.Spawn("victim", func(p *Proc) {
			for {
				p.Sleep(10)
			}
		})
		e.After(5+d, func() { e.Kill(victim) })
	}
	e.Run()
	e.Close()
	waitGoroutines(t, base+2)
}
