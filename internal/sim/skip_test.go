package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sweeper is a poll loop on p: at the start of each sweep it tests *stop,
// and it runs up to sweeps repeats of a three-sleep idle sweep (3, 4 and 5
// cycles), counting them in *done. With skip it first takes what SkipSweeps
// allows at each sweep boundary while *stop is clear, as a loop skips the
// sweeps whose quiet test holds.
func sweeper(p *Proc, sweeps int, stop *bool, skip bool, done *int) {
	for *done = 0; *done < sweeps && !*stop; *done++ {
		if skip {
			if *done += int(p.SkipSweeps(uint64(sweeps-*done), 3, 12)); *done == sweeps {
				break
			}
		}
		p.Sleep(3)
		p.Sleep(4)
		p.Sleep(5)
	}
}

// sweepLogged is sweeper logging how many sweeps it ran when it returns or
// unwinds.
func sweepLogged(p *Proc, sweeps int, stop *bool, skip bool, log func(string)) {
	var done int
	defer func() { log(fmt.Sprintf("%s after %d sweeps", p.name, done)) }()
	sweeper(p, sweeps, stop, skip, &done)
}

// TestSkipSweepsMatchesSleepLoop runs each row three ways: skipping with no
// perturb hook, skipping under a hook that perturbs nothing (SkipSweeps
// takes nothing, every wakeup goes through the queue), and the plain sleep
// loop with no hook. All three must log the same (time, who) sequence and
// end with the same clocks, sequence numbers and metrics.
func TestSkipSweepsMatchesSleepLoop(t *testing.T) {
	zero := func(Time, Time, uint64) (Time, uint64) { return 0, 0 }
	rows := []struct {
		name  string
		build func(e *Engine, skip bool, log func(string))
	}{
		{"nothing queued", func(e *Engine, skip bool, log func(string)) {
			e.Spawn("a", func(p *Proc) { sweepLogged(p, 50, new(bool), skip, log) })
			e.Run()
		}},
		{"callbacks inside the stretch", func(e *Engine, skip bool, log func(string)) {
			e.Spawn("a", func(p *Proc) {
				// Queued by the sweeper itself, so that only its first
				// sleep's wakeup can deepen the queue to 4.
				for _, at := range []Time{100, 101, 250} {
					e.After(at, func() { log("cb") })
				}
				sweepLogged(p, 40, new(bool), skip, log)
			})
			e.Run()
		}},
		{"the skip is the deepest point", func(e *Engine, skip bool, log func(string)) {
			e.Spawn("a", func(p *Proc) {
				for i := 0; i < 3; i++ {
					e.After(200, func() { log("cb") })
				}
				sweepLogged(p, 8, new(bool), skip, log) // all skipped: the queue peaks at 4
			})
			e.Run()
		}},
		{"stop at a sweep boundary", func(e *Engine, skip bool, log func(string)) {
			var stop bool
			e.Spawn("a", func(p *Proc) { sweepLogged(p, 20, &stop, skip, log) })
			// Queued before a's wakeup at 120: the next sweep sees stop.
			e.After(120, func() { stop = true })
			e.Run()
		}},
		{"stop inside a sweep", func(e *Engine, skip bool, log func(string)) {
			var stop bool
			e.Spawn("a", func(p *Proc) { sweepLogged(p, 20, &stop, skip, log) })
			e.After(127, func() { stop = true })
			e.Run()
		}},
		{"another proc's wakeups", func(e *Engine, skip bool, log func(string)) {
			var stop bool
			e.Spawn("a", func(p *Proc) { sweepLogged(p, 30, &stop, skip, log) })
			e.Spawn("b", func(p *Proc) {
				p.Sleep(96) // the end of a's eighth sweep: a tie
				stop = true
				log("b")
				sweepLogged(p, 10, new(bool), skip, log)
			})
			e.Run()
		}},
		{"RunUntil limits inside the stretch", func(e *Engine, skip bool, log func(string)) {
			e.Spawn("a", func(p *Proc) { sweepLogged(p, 60, new(bool), skip, log) })
			e.RunUntil(100)
			log("caller")
			e.RunUntil(240) // a sweep boundary
			log("caller")
			e.Run()
		}},
		{"Kill from a callback", func(e *Engine, skip bool, log func(string)) {
			a := e.Spawn("a", func(p *Proc) { sweepLogged(p, 100, new(bool), skip, log) })
			e.After(500, func() { e.Kill(a) })
			e.Run()
		}},
		{"Close inside the stretch", func(e *Engine, skip bool, log func(string)) {
			e.Spawn("a", func(p *Proc) { sweepLogged(p, 1000, new(bool), skip, log) })
			e.RunUntil(300)
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			run := func(hook PerturbFunc, skip bool) switchOutcome {
				e := NewEngine(1)
				e.SetPerturb(hook)
				var out switchOutcome
				r.build(e, skip, func(who string) { out.log = append(out.log, fmt.Sprintf("t=%d %s", e.Now(), who)) })
				e.Close()
				out.now = []Time{e.Now(), Time(e.seq)}
				out.snaps = append(out.snaps, e.Metrics().Snapshot())
				return out
			}
			skipped, reference, loop := run(nil, true), run(zero, true), run(nil, false)
			if len(loop.log) == 0 {
				t.Fatal("scenario logged nothing")
			}
			for _, o := range []struct {
				name string
				out  switchOutcome
			}{{"zero hook", reference}, {"sleep loop", loop}} {
				if !reflect.DeepEqual(skipped.log, o.out.log) {
					t.Errorf("logs differ:\nskip:       %s\n%-11s %s", strings.Join(skipped.log, ", "), o.name+":", strings.Join(o.out.log, ", "))
				}
				if !reflect.DeepEqual(skipped.now, o.out.now) {
					t.Errorf("final clock and sequence differ: skip %v, %s %v", skipped.now, o.name, o.out.now)
				}
				if !reflect.DeepEqual(skipped.snaps, o.out.snaps) {
					t.Errorf("metrics differ:\nskip: %v\n%s: %v", skipped.snaps, o.name, o.out.snaps)
				}
			}
		})
	}
}

// TestSkipSweepsAcrossEpochEnds: on a parallel engine each partition's
// RunUntil to the epoch end bounds a skip, so skipping sweeps that straddle
// the 100-cycle epochs ends where the sleep loop does, at any worker count.
func TestSkipSweepsAcrossEpochEnds(t *testing.T) {
	run := func(skip bool, workers int) switchOutcome {
		const nparts = 2
		pe := NewParallelEngine(nparts, 100, 1, workers)
		defer pe.Close()
		logs := make([][]string, nparts)
		logAt := make([]func(string), nparts)
		for i := 0; i < nparts; i++ {
			e := pe.Part(i)
			log := func(who string) { logs[i] = append(logs[i], fmt.Sprintf("p%d t=%d %s", i, e.Now(), who)) }
			logAt[i] = log
			e.Spawn("sweeper", func(p *Proc) {
				sweepLogged(p, 40+7*i, new(bool), skip, log)
				pe.Send(i, 1-i, 100, func() { logAt[1-i](fmt.Sprintf("msg %d", i)) })
			})
		}
		pe.RunUntil(250) // a limit inside an epoch, resumed by Run
		pe.Run()
		var out switchOutcome
		for i := 0; i < nparts; i++ {
			out.log = append(out.log, logs[i]...)
			out.now = append(out.now, pe.Part(i).Now(), Time(pe.Part(i).seq))
			out.snaps = append(out.snaps, pe.Part(i).Metrics().Snapshot())
		}
		return out
	}
	want := run(false, 1)
	for _, workers := range []int{1, 2} {
		if got := run(true, workers); !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: skipping run differs from the sleep loop:\nskip: %v\nloop: %v", workers, got, want)
		}
	}
}

// TestSkipSweepsStopsAtForever: with nothing queued and no limit, a skip of
// unbounded repeats leaves the clock within one sweep of Forever, never past
// it, and takes nothing once there.
func TestSkipSweepsStopsAtForever(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	var first, second uint64
	e.Spawn("a", func(p *Proc) {
		p.Sleep(5)
		first = p.SkipSweeps(^uint64(0), 2, 1000)
		second = p.SkipSweeps(^uint64(0), 2, 1000)
	})
	e.Run()
	if now := e.Now(); now > Forever || Forever-now >= 1000 {
		t.Fatalf("clock %d after the skip, want within 1000 cycles of Forever (%d) and not past it", now, Forever)
	}
	if want := uint64(Forever-5) / 1000; first != want || second != 0 {
		t.Fatalf("skips took %d then %d repeats, want %d then 0", first, second, want)
	}
	if got, want := e.seq, 2+2*first; got != want { // the start and the Sleep, then the skipped sleeps
		t.Fatalf("sequence %d after the skip, want %d", got, want)
	}
}
