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

// quietPoller is a toy Proc.Idle loop with a quiet schedule. Its sweep has
// one step per gap; the step at sweep position i reads words[i%len(words)]
// and resumes the proc if it is set, the step at position 0 resumes it if
// flag is set, and the last step of the park-th sweep resumes it for good.
// Every step counts a hit. A write to a word or the flag must nudge the
// proc, as a cache write nudges a watched line's poller.
type quietPoller struct {
	name   string
	gaps   []Time
	sw     *Sweep
	words  []uint64
	flag   bool
	park   int
	pos    uint64 // sweep position of the next step
	sweeps int    // sweeps completed
	hits   uint64
	first  uint64 // the skipped stretch's first step and steps settled
	done   uint64
	p      *Proc
}

func (q *quietPoller) step() (Time, bool) {
	i := q.pos
	q.hits++
	if q.words[i%uint64(len(q.words))] != 0 || i == 0 && q.flag {
		return 0, true
	}
	q.pos = (i + 1) % uint64(len(q.gaps))
	if q.pos == 0 {
		if q.sweeps++; q.sweeps >= q.park {
			return 0, true
		}
	}
	return q.gaps[i], false
}

func (q *quietPoller) quiet(Time) (*Sweep, uint64, uint64) {
	n := uint64(len(q.gaps))
	at := func(pos uint64) uint64 { return (pos+n-q.pos)%n + 1 }
	act := at(n-1) + n*uint64(max(0, q.park-1-q.sweeps))
	if q.flag {
		act = min(act, at(0))
	}
	for i := uint64(0); i < n; i++ {
		if q.words[i%uint64(len(q.words))] != 0 {
			act = min(act, at(i))
		}
	}
	q.first, q.done = q.pos, 0
	return q.sw, q.pos, act
}

func (q *quietPoller) settle(k uint64) {
	n := uint64(len(q.gaps))
	lo, hi := q.first+q.done, q.first+k
	q.hits += hi - lo
	q.sweeps += int(hi/n - lo/n)
	q.pos, q.done = hi%n, k
}

// write sets word i (or the flag, for i < 0) and nudges the poller.
func (q *quietPoller) write(i int) {
	if i < 0 {
		q.flag = true
	} else {
		q.words[i] = 1
	}
	q.p.Nudge()
}

// quietRig holds one scenario run's pollers, log and trace.
type quietRig struct {
	e       *Engine
	pollers []*quietPoller
	log     []string
	rec     *trace.Recorder
}

func (r *quietRig) note(who string) {
	r.log = append(r.log, fmt.Sprintf("t=%d %s", r.e.Now(), who))
	r.rec.Emit(uint64(r.e.Now()), trace.Instant, trace.SubApp, 0, who, 0, 0)
}

// snap logs a registry snapshot taken now, as an obs sampler would.
func (r *quietRig) snap() {
	s := r.e.Metrics().Snapshot()
	r.note(fmt.Sprintf("snap %v %v", s.Counters, s.Gauges))
}

// poller spawns a poller that idles in rounds until it has resumed
// rounds times, logging each resume.
func (r *quietRig) poller(e *Engine, name string, gaps []Time, words, park, rounds int) *quietPoller {
	q := &quietPoller{name: name, gaps: gaps, sw: NewSweep(gaps), words: make([]uint64, words), park: park}
	r.pollers = append(r.pollers, q)
	e.Metrics().CounterFunc("toy.hits."+name, func() uint64 { e.Settle(); return q.hits })
	q.p = e.Spawn(name, func(p *Proc) {
		defer func() { r.note(name + " unwound") }()
		for i := 0; i < rounds; i++ {
			p.Idle(q.step, q.quiet, q.settle)
			r.note(fmt.Sprintf("%s resumed pos=%d sweeps=%d hits=%d", name, q.pos, q.sweeps, q.hits))
			q.flag = false
			for j := range q.words {
				q.words[j] = 0
			}
			q.sweeps = 0
			p.Sleep(3)
		}
	})
	return q
}

// quietOutcome is what a scenario run exposes: the log, the clock, the
// reference schedule's sequence number, the final snapshot and the trace.
type quietOutcome struct {
	log   []string
	now   Time
	seq   uint64
	snap  metrics.Snapshot
	trace []byte
}

func runQuiet(build func(r *quietRig), hook PerturbFunc) (out quietOutcome, skipped uint64) {
	r := &quietRig{e: NewEngine(1), rec: trace.NewRecorder()}
	r.e.SetPerturb(hook)
	r.e.SetTracer(r.rec)
	build(r)
	skipped = r.e.SkippedSteps()
	r.e.Close()
	r.e.Settle()
	out.log, out.now = r.log, r.e.Now()
	out.seq = r.e.seq + r.e.starts + r.e.skips
	out.snap = r.e.Metrics().Snapshot()
	var b bytes.Buffer
	if err := trace.WriteJSON(&b, r.rec); err != nil {
		panic(err)
	}
	out.trace = b.Bytes()
	return out, skipped
}

func zeroHook(Time, Time, uint64) (Time, uint64) { return 0, 0 }

// compareQuiet runs build with no hook, where the engine skips quiet
// steps, and with a zero hook, where every step is an event, and fails on
// any difference. It returns how many steps the first run skipped.
func compareQuiet(t *testing.T, build func(r *quietRig)) uint64 {
	t.Helper()
	got, skipped := runQuiet(build, nil)
	want, none := runQuiet(build, zeroHook)
	if none != 0 {
		t.Fatalf("the zero-hook reference skipped %d steps", none)
	}
	if len(want.log) == 0 {
		t.Fatal("scenario logged nothing")
	}
	if !reflect.DeepEqual(want.log, got.log) {
		for i := range want.log {
			if i >= len(got.log) || want.log[i] != got.log[i] {
				lo := max(0, i-3)
				t.Fatalf("logs differ at line %d:\nreference: %s\nskipping:  %s", i,
					strings.Join(want.log[lo:min(len(want.log), i+3)], " | "), strings.Join(got.log[lo:min(len(got.log), i+3)], " | "))
			}
		}
		t.Fatalf("skipping run logged %d more lines: %v", len(got.log)-len(want.log), got.log[len(want.log):])
	}
	if want.now != got.now || want.seq != got.seq {
		t.Errorf("clock/sequence differ: reference %d/%d, skipping %d/%d", want.now, want.seq, got.now, got.seq)
	}
	if !reflect.DeepEqual(want.snap, got.snap) {
		t.Errorf("metrics differ:\nreference: %v\nskipping:  %v", want.snap, got.snap)
	}
	if !bytes.Equal(want.trace, got.trace) {
		t.Errorf("trace bytes differ")
	}
	return skipped
}

// TestQuietChainsMatchSteppedLoop is the exactness table for skipped idle
// steps: each row runs with no hook, where the engine skips the pollers'
// quiet steps, and with a zero hook, where each step is an event, and the
// two must agree on every logged (time, who) line, mid-run registry
// snapshots, the clock, the reference sequence number, the final metrics
// and the trace bytes.
func TestQuietChainsMatchSteppedLoop(t *testing.T) {
	runQuietRows(t, []quietRow{
		{"chains collide with each other and with sleepers", func(r *quietRig) {
			e := r.e
			a := r.poller(e, "a", []Time{5, 7, 2}, 3, 4, 3)
			b := r.poller(e, "b", []Time{5, 7, 2}, 2, 5, 3) // same sweep, same phase as a
			c := r.poller(e, "c", []Time{7, 5, 2}, 2, 3, 3) // same period, other gaps
			r.poller(e, "d", []Time{3, 3, 3, 5}, 1, 6, 2)
			e.Spawn("writer", func(p *Proc) {
				for i := 0; i < 40; i++ {
					p.Sleep(Time(3 + i%5))
					if i%7 == 3 {
						[]*quietPoller{a, b, c}[i%3].write(i % 2)
						r.note("wrote")
					}
					if i%9 == 4 {
						r.snap()
					}
				}
			})
			e.Run()
		}},
		{"a real event at a filed poll's cycle", func(r *quietRig) {
			// The poller's steps fall at 0, 5, 12, 14, 19, 26, 28, ...
			// Writers wake at every cycle from 10 to 30 and write; each is
			// scheduled at every cycle from 0 up to its wakeup, so each
			// filed poll meets events scheduled before, at and after the
			// cycle of the poll before it.
			e := r.e
			q := r.poller(e, "q", []Time{5, 7, 2}, 2, 30, 200)
			for at := Time(10); at <= 30; at++ {
				for from := Time(0); from <= at; from++ {
					e.Spawn(fmt.Sprintf("w%d-%d", at, from), func(p *Proc) {
						p.Sleep(from)
						if from%2 == 0 {
							e.After(at-from, func() { q.write(0); r.note("cb") })
							return
						}
						p.Sleep(at - from)
						q.write(int(from%3) - 1)
						r.note("w")
					})
				}
			}
			e.Run()
		}},
		{"a lone chain's log trimmed after an older chain's act", func(r *quietRig) {
			// a and c run one sweep in phase, c started at one of a's
			// steps. a acts at 140, where c skips a step; 1,100 callbacks
			// at 141 then fill the dispatch log while c is alone, and a
			// write at c's next step orders it against a's act, a walk
			// back that reaches c's entry at 28 and a's step there. The
			// trim must keep those points.
			e := r.e
			a := r.poller(e, "a", []Time{5, 7, 2}, 1, 1000, 1)
			var c *quietPoller
			e.Spawn("late", func(p *Proc) {
				p.Sleep(28)
				c = r.poller(e, "c", []Time{5, 7, 2}, 1, 1000, 1)
			})
			e.Spawn("writer", func(p *Proc) {
				p.Sleep(139)
				a.write(0)
				p.Sleep(6)
				c.write(0)
				r.note("wrote")
			})
			for range 1100 {
				e.After(141, func() {})
			}
			e.Run()
		}},
		{"inline idle steps in place beside chains", func(r *quietRig) {
			// A plain Idle loop steps every cycle, in place while nothing
			// is queued, and arms callbacks that land on the chained
			// poller's steps; each was scheduled while the poller's steps
			// were being skipped, so their order rests on the logged
			// in-place points.
			e := r.e
			q := r.poller(e, "q", []Time{5, 7, 2}, 1, 30, 100)
			e.Spawn("stepper", func(p *Proc) {
				n := 0
				p.Idle(func() (Time, bool) {
					n++
					if n%17 == 0 {
						e.After(Time(1+n/17%6), func() { q.write(0); r.note("cb") })
					}
					return 1, n == 1200
				}, nil, nil)
				r.note("stepper done")
			})
			e.Run()
		}},
		{"in-place sleeps beside chains", func(r *quietRig) {
			// A sweeper's sleeps and a sleeper's mostly wake in place while
			// two pollers' steps are skipped; the sleeper's pokes end a's
			// stretches and the sweeper's sweeps.
			e := r.e
			a := r.poller(e, "a", []Time{4, 9}, 2, 6, 3)
			r.poller(e, "b", []Time{6, 2, 5}, 3, 4, 3)
			var word uint64
			e.Spawn("sweeper", func(p *Proc) {
				hits := uint64(0)
				for round := 0; round < 3; round++ {
					for word == 0 {
						p.Sleep(4)
						hits++
						p.Sleep(6)
						hits++
					}
					word = 0
					r.note(fmt.Sprintf("sweeper woke hits=%d", hits))
				}
			})
			e.Spawn("sleeper", func(p *Proc) {
				for i := 0; i < 25; i++ {
					p.Sleep(Time(1 + i%4)) // mostly in place
					if i%6 == 5 {
						word = 1
						a.write(i % 2)
						r.note("poked")
					}
				}
			})
			e.Run()
		}},
		{"RunUntil limits inside chains", func(r *quietRig) {
			e := r.e
			a := r.poller(e, "a", []Time{5, 7, 2}, 2, 8, 2)
			b := r.poller(e, "b", []Time{3, 4}, 1, 10, 2)
			for _, lim := range []Time{4, 12, 12, 13, 40, 41, 90} {
				e.RunUntil(lim)
				r.note("limit")
				r.snap()
				if lim == 40 {
					a.write(1) // from driver context, at the boundary
					e.Spawn("late", func(p *Proc) { p.Sleep(2); b.write(0); r.note("late") })
				}
			}
			e.Run()
		}},
		{"Kill mid-chain", func(r *quietRig) {
			e := r.e
			a := r.poller(e, "a", []Time{5, 7, 2}, 1, 50, 1)
			r.poller(e, "b", []Time{5, 7, 2}, 1, 20, 1)
			e.Spawn("killer", func(p *Proc) {
				p.Sleep(33)
				e.Kill(a.p)
				r.note("killed")
			})
			e.After(60, func() { r.note("cb") })
			e.Run()
		}},
		{"Kill at a poll's cycle from a callback", func(r *quietRig) {
			e := r.e
			a := r.poller(e, "a", []Time{5, 7, 2}, 1, 50, 1)
			e.After(26, func() { e.Kill(a.p); r.note("killed") }) // a polls at 26
			e.Run()
		}},
		{"Close mid-chain", func(r *quietRig) {
			e := r.e
			r.poller(e, "a", []Time{5, 7, 2}, 1, 50, 1)
			r.poller(e, "b", []Time{3, 4}, 1, 50, 1)
			e.RunUntil(61)
			r.snap()
		}},
		{"SetPerturb mid-chain", func(r *quietRig) {
			e := r.e
			a := r.poller(e, "a", []Time{5, 7, 2}, 1, 8, 2)
			r.poller(e, "b", []Time{3, 4}, 1, 9, 2)
			e.Spawn("hooker", func(p *Proc) {
				p.Sleep(29)
				e.SetPerturb(zeroHook)
				r.note("hooked")
				p.Sleep(11)
				a.write(0)
			})
			e.Run()
		}},
	})
}

// TestLoneChainsMatchSteppedLoop runs the same comparison as
// TestQuietChainsMatchSteppedLoop for one poller's chain at a time: a sweep
// of 3, 4 and 5 cycles whose first step stops the poller once its flag is
// set, against callbacks, RunUntil limits, Kill, Close and another proc's
// wakeups.
func TestLoneChainsMatchSteppedLoop(t *testing.T) {
	runQuietRows(t, []quietRow{
		{"nothing queued", func(r *quietRig) {
			r.poller(r.e, "a", []Time{3, 4, 5}, 1, 50, 1)
			r.e.Run()
		}},
		{"callbacks inside the stretch", func(r *quietRig) {
			e := r.e
			for _, at := range []Time{100, 101, 250} {
				e.After(at, func() { r.note("cb") })
			}
			r.poller(e, "a", []Time{3, 4, 5}, 1, 40, 1)
			e.Run()
		}},
		{"the skip is the deepest point", func(r *quietRig) {
			e := r.e
			for i := 0; i < 3; i++ {
				e.After(200, func() { r.note("cb") })
			}
			r.poller(e, "a", []Time{3, 4, 5}, 1, 8, 1) // the queue peaks with its chain
			e.Run()
		}},
		{"stop at a sweep boundary", func(r *quietRig) {
			a := r.poller(r.e, "a", []Time{3, 4, 5}, 1, 20, 1)
			r.e.After(120, func() { a.write(-1) }) // queued before a's step at 120
			r.e.Run()
		}},
		{"stop inside a sweep", func(r *quietRig) {
			a := r.poller(r.e, "a", []Time{3, 4, 5}, 1, 20, 1)
			r.e.After(127, func() { a.write(-1) })
			r.e.Run()
		}},
		{"another proc's wakeups", func(r *quietRig) {
			e := r.e
			a := r.poller(e, "a", []Time{3, 4, 5}, 1, 30, 1)
			e.Spawn("b", func(p *Proc) {
				p.Sleep(96) // the end of a's eighth sweep: a tie
				a.write(-1)
				r.note("b")
				r.poller(e, "c", []Time{3, 4, 5}, 1, 10, 1)
			})
			e.Run()
		}},
		{"RunUntil limits inside the stretch", func(r *quietRig) {
			e := r.e
			r.poller(e, "a", []Time{3, 4, 5}, 1, 60, 1)
			e.RunUntil(100)
			r.note("caller")
			e.RunUntil(240) // a sweep boundary
			r.note("caller")
			e.Run()
		}},
		{"Kill from a callback", func(r *quietRig) {
			a := r.poller(r.e, "a", []Time{3, 4, 5}, 1, 100, 1)
			r.e.After(500, func() { r.e.Kill(a.p) })
			r.e.Run()
		}},
		{"Close inside the stretch", func(r *quietRig) {
			r.poller(r.e, "a", []Time{3, 4, 5}, 1, 1000, 1)
			r.e.RunUntil(300)
		}},
	})
}

// quietRow is one scenario of an exactness table.
type quietRow struct {
	name  string
	build func(r *quietRig)
}

// runQuietRows runs each row under compareQuiet and fails a row that
// skipped no step, since it would not exercise the skip.
func runQuietRows(t *testing.T, rows []quietRow) {
	t.Helper()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if compareQuiet(t, row.build) == 0 {
				t.Error("no step was skipped: the row does not exercise the skip")
			}
		})
	}
}

// TestQuietChainStopsAtForever: a poller that never acts (no word is ever
// set and it never parks) runs one chain from its second step on, which the
// engine stops at the last step before Forever, never past it.
// RunUntil(Forever) leaves the clock at Forever with every step up to it
// counted, one event for the act and every other step skipped, and Close
// then unwinds the poller, whose next wakeup lies past Forever.
func TestQuietChainStopsAtForever(t *testing.T) {
	e := NewEngine(1)
	q := &quietPoller{name: "q", gaps: []Time{5, 7, 2}, words: make([]uint64, 1), park: 1 << 60}
	q.sw = NewSweep(q.gaps)
	unwound := false
	q.p = e.Spawn("q", func(p *Proc) {
		defer func() { unwound = true }()
		p.Idle(q.step, q.quiet, q.settle)
	})
	e.RunUntil(Forever)
	e.Settle()
	// Steps run at 14j, 14j+5 and 14j+12.
	steps := 3 * uint64(Forever/14)
	for _, off := range []Time{0, 5, 12} {
		if Forever%14 >= off {
			steps++
		}
	}
	if now := e.Now(); now != Forever {
		t.Fatalf("RunUntil(Forever) left the clock at %d, want %d", now, Forever)
	}
	if q.hits != steps || e.SkippedSteps() != steps-2 {
		t.Fatalf("%d steps ran, %d of them skipped; want the %d steps at or before Forever, all but the first and the act skipped", q.hits, e.SkippedSteps(), steps)
	}
	e.Close()
	if !unwound {
		t.Fatal("Close did not unwind the poller")
	}
}

// TestQuietChainsOnParallelEngine runs pollers in two partitions of a
// ParallelEngine whose cross-partition messages write their words: epoch
// ends fall inside chains and deliveries land at barriers. With no hook and
// with a zero hook in every partition, at one worker and at two, each
// partition must log the same lines and end with the same clock, sequence
// number and metrics.
func TestQuietChainsOnParallelEngine(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprint(workers, " workers"), func(t *testing.T) { quietChainsOnParallelEngine(t, workers) })
	}
}

func quietChainsOnParallelEngine(t *testing.T, workers int) {
	run := func(hook PerturbFunc) ([]string, []Time, []uint64, metrics.Snapshot, uint64) {
		pe := NewParallelEngine(2, 20, 3, workers)
		var logs [2][]string // one per partition: at two workers they run at once
		var qs [2]*quietPoller
		for part := 0; part < 2; part++ {
			e := pe.Part(part)
			e.SetPerturb(hook)
			q := &quietPoller{name: fmt.Sprint("q", part), gaps: []Time{5, 7, 2}, words: make([]uint64, 2), park: 12}
			q.sw = NewSweep(q.gaps)
			qs[part] = q
			e.Metrics().CounterFunc("toy.hits", func() uint64 { e.Settle(); return q.hits })
			q.p = e.Spawn(q.name, func(p *Proc) {
				for i := 0; i < 4; i++ {
					p.Idle(q.step, q.quiet, q.settle)
					logs[part] = append(logs[part], fmt.Sprintf("t=%d resumed pos=%d hits=%d", p.Now(), q.pos, q.hits))
					q.words[0], q.words[1], q.sweeps = 0, 0, 0
					p.Sleep(1)
				}
			})
			e.Spawn(fmt.Sprint("sender", part), func(p *Proc) {
				for i := 0; i < 6; i++ {
					p.Sleep(Time(17 + 9*i + part))
					dst := 1 - part
					pe.Send(part, dst, 20+Time(i%3), func() { qs[dst].write(i % 2) })
				}
			})
		}
		pe.RunUntil(150)
		logs[0] = append(logs[0], "staged")
		logs[1] = append(logs[1], "staged")
		pe.Run()
		var skipped uint64
		var now []Time
		var seq []uint64
		for part := 0; part < 2; part++ {
			e := pe.Part(part)
			skipped += e.SkippedSteps()
			now = append(now, e.Now())
			seq = append(seq, e.seq+e.starts+e.skips)
		}
		snap := pe.MetricsSnapshot()
		pe.Close()
		return append(logs[0], logs[1]...), now, seq, snap, skipped
	}
	gotLog, gotNow, gotSeq, gotSnap, skipped := run(nil)
	wantLog, wantNow, wantSeq, wantSnap, _ := run(zeroHook)
	if !reflect.DeepEqual(gotLog, wantLog) {
		t.Errorf("logs differ:\nreference: %v\nskipping:  %v", wantLog, gotLog)
	}
	if !reflect.DeepEqual(gotNow, wantNow) || !reflect.DeepEqual(gotSeq, wantSeq) {
		t.Errorf("clock/sequence differ: reference %v/%v, skipping %v/%v", wantNow, wantSeq, gotNow, gotSeq)
	}
	if !reflect.DeepEqual(gotSnap, wantSnap) {
		t.Errorf("metrics differ:\nreference: %v\nskipping:  %v", wantSnap, gotSnap)
	}
	if skipped == 0 {
		t.Error("no step was skipped")
	}
}

// TestCheckpointRefusedWhileStepsSkipped: a chain is an idle loop
// mid-flight, so the engine must not write an image while one is live,
// and must again once it has ended.
func TestCheckpointRefusedWhileStepsSkipped(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	q := &quietPoller{name: "q", gaps: []Time{5, 7}, words: make([]uint64, 1), park: 10}
	q.sw = NewSweep(q.gaps)
	q.p = e.Spawn("q", func(p *Proc) {
		p.SetDaemon(true)
		p.Idle(q.step, q.quiet, q.settle)
		p.Park()
	})
	e.RunUntil(30)
	if len(e.chains) == 0 {
		t.Fatal("no chain is live at t=30")
	}
	if err := e.Checkpoint(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "skipped") {
		t.Fatalf("Checkpoint with a live chain returned %v", err)
	}
	e.Run()
	if err := e.Checkpoint(&bytes.Buffer{}); err != nil {
		t.Fatalf("Checkpoint after the chain ended: %v", err)
	}
}
