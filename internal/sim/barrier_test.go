package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"multikernel/internal/trace"
)

// The turns workload: tokens travel around turnParts partitions, each
// handled by the partition that holds it and passed on one to three
// epochs later, so the set of partitions with work due changes from epoch
// to epoch and some epochs have none at all. A third of the hops also poke
// a partition the token skips.
const (
	turnParts = 4
	turnHops  = 90
)

// turnSeat is one partition of the turns workload: its proc and the hop
// budgets of the tokens it holds.
type turnSeat struct {
	proc *Proc
	held []uint64
}

// turnsResult is everything a turns run exposes: per-partition trace
// events, the merged metrics, the final image and clocks, and the clocks
// at which Stop halted the run.
type turnsResult struct {
	events  [][]trace.Event
	metrics []byte
	ckpt    []byte
	clocks  []Time
	stopped []Time
}

// turnsStopAt is when a callback in partition 2 stops the run, if asked.
const turnsStopAt = 45*ringLookahead + 17

// runTurns runs the turns workload at workers: RunUntil at each of cuts,
// then Run, which the callback at turnsStopAt stops if stop is set, then
// Run to completion.
func runTurns(t *testing.T, workers int, cuts []Time, stop bool) turnsResult {
	t.Helper()
	pe := NewParallelEngine(turnParts, ringLookahead, 11, workers)
	defer pe.Close()
	recs := make([]*trace.Recorder, turnParts)
	seats := make([]*turnSeat, turnParts)
	var pass func(src, dst int, hop uint64)
	for i := range turnParts {
		e, s := pe.Part(i), &turnSeat{}
		seats[i], recs[i] = s, trace.NewRecorder()
		e.SetTracer(recs[i])
		turns := e.Metrics().Counter("turns.taken")
		s.proc = e.Spawn(fmt.Sprintf("turn%d", i), func(p *Proc) {
			p.SetDaemon(true)
			for {
				for len(s.held) == 0 {
					p.Park()
				}
				hop := s.held[0]
				s.held = s.held[1:]
				turns.Inc()
				e.Tracer().Emit(uint64(p.Now()), trace.Instant, trace.SubSim, int32(i), "turn", hop, 0)
				for range 1 + e.RNG().Intn(3) {
					p.Sleep(1 + e.RNG().Time(80))
				}
				if hop > 0 {
					pass(i, (i+1+e.RNG().Intn(2))%turnParts, hop-1)
				}
			}
		})
	}
	pass = func(src, dst int, hop uint64) {
		e := pe.Part(src)
		pe.Send(src, dst, ringLookahead+e.RNG().Time(2*ringLookahead), func() {
			seats[dst].held = append(seats[dst].held, hop)
			pe.Part(dst).Wake(seats[dst].proc)
		})
		if hop%3 == 0 {
			poked := (dst + 1) % turnParts
			pe.Send(src, poked, ringLookahead+e.RNG().Time(ringLookahead), func() {
				d := pe.Part(poked)
				d.Tracer().Emit(uint64(d.Now()), trace.Instant, trace.SubSim, int32(poked), "poke", hop, 0)
			})
		}
	}
	pe.Part(2).After(turnsStopAt, func() {
		if stop {
			pe.Stop()
		}
	})
	seats[0].held = []uint64{turnHops}
	seats[2].held = []uint64{turnHops / 2}
	for _, cut := range cuts {
		pe.RunUntil(cut)
		for i := range turnParts {
			if now := pe.Part(i).Now(); now != cut {
				t.Fatalf("workers=%d: after RunUntil(%d) partition %d is at t=%d", workers, cut, i, now)
			}
		}
	}
	var out turnsResult
	pe.Run()
	for i := range turnParts {
		out.stopped = append(out.stopped, pe.Part(i).Now())
	}
	pe.Run()
	if dl := pe.Deadlocked(); len(dl) > 0 {
		t.Fatalf("workers=%d: deadlocked procs %v", workers, dl)
	}
	var img bytes.Buffer
	if err := pe.Checkpoint(&img); err != nil {
		t.Fatalf("workers=%d: checkpoint: %v", workers, err)
	}
	js, err := json.Marshal(pe.MetricsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	out.metrics, out.ckpt = js, img.Bytes()
	for i := range turnParts {
		out.clocks = append(out.clocks, pe.Part(i).Now())
		out.events = append(out.events, recs[i].Events())
	}
	return out
}

// TestParallelActiveSetChangesEveryEpoch: runEpoch runs only the
// partitions with work due, and the turns workload changes that set from
// epoch to epoch. At 2 and 4 workers, and across RunUntil limits inside
// epochs and a Stop, every run must be byte-identical to the uninterrupted
// one-worker run: trace events, merged metrics, final image and clocks.
func TestParallelActiveSetChangesEveryEpoch(t *testing.T) {
	L := ringLookahead
	ref := runTurns(t, 1, nil, false)
	var turns int
	for _, evs := range ref.events {
		for _, ev := range evs {
			if ev.Name == "turn" {
				turns++
			}
		}
	}
	if want := turnHops + 1 + turnHops/2 + 1; turns != want {
		t.Fatalf("the reference run took %d turns, want %d", turns, want)
	}
	for _, w := range []int{1, 2, 4} {
		for _, staged := range []bool{false, true} {
			var cuts []Time
			if staged {
				cuts = []Time{L/2 + 3, 7*L + 1, 7*L + 2, 20*L - 1, 31*L + L/3}
			}
			got := runTurns(t, w, cuts, staged)
			name := fmt.Sprintf("workers=%d staged=%v", w, staged)
			if want := turnsStopAt - turnsStopAt%L + L - 1; staged && got.stopped[0] != want {
				t.Errorf("%s: Stop halted partition 0 at t=%d, want the epoch end %d", name, got.stopped[0], want)
			}
			if !reflect.DeepEqual(got.events, ref.events) {
				t.Errorf("%s: trace events differ from the one-worker run", name)
			}
			if !bytes.Equal(got.metrics, ref.metrics) {
				t.Errorf("%s: metrics differ from the one-worker run:\n got: %s\nwant: %s", name, got.metrics, ref.metrics)
			}
			if !bytes.Equal(got.ckpt, ref.ckpt) {
				t.Errorf("%s: final image differs from the one-worker run", name)
			}
			if !reflect.DeepEqual(got.clocks, ref.clocks) {
				t.Errorf("%s: final clocks %v, want %v", name, got.clocks, ref.clocks)
			}
		}
	}
}

// panicAfter is an engine callback that panics.
func panicAfter() { panic("callback boom") }

// letterBomb is a letter recipient that panics.
type letterBomb struct{}

func (letterBomb) Receive(*Letter) { panic("letter boom") }

// TestParallelCallbackPanicKeepsStack: a panic in an engine callback, an
// After function or a letter delivery, surfaces from Run naming the
// partition, the virtual time, the value and the callback's function, at
// every worker count. Partition 1 has no procs, so the callback runs on
// whichever goroutine runs the partition, not inside a proc.
func TestParallelCallbackPanicKeepsStack(t *testing.T) {
	for _, tc := range []struct {
		name, value, fn, at string
		plant               func(pe *ParallelEngine)
	}{
		{"After callback", "callback boom", "sim.panicAfter", "t=5", func(pe *ParallelEngine) {
			pe.Part(1).After(5, panicAfter)
		}},
		{"letter delivery", "letter boom", "sim.letterBomb.Receive", fmt.Sprintf("t=%d", ringLookahead+5), func(pe *ParallelEngine) {
			pe.Post(0, 1, ringLookahead+5, &Letter{To: letterBomb{}})
		}},
	} {
		for _, w := range []int{1, 2, 4} {
			pe := NewParallelEngine(4, ringLookahead, 1, w)
			for i := range pe.NParts() {
				if i != 1 {
					pe.Spawn(i, fmt.Sprintf("proc%d", i), func(p *Proc) { p.Sleep(3 * ringLookahead) })
				}
			}
			tc.plant(pe)
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				pe.Run()
				return "Run returned"
			}()
			for _, want := range []string{"partition 1", tc.at, tc.value, tc.fn} {
				if !strings.Contains(msg, want) {
					t.Errorf("%s, workers=%d: recovered panic lacks %q:\n%s", tc.name, w, want, msg)
				}
			}
			if strings.Count(msg, "panicked") != 1 {
				t.Errorf("%s, workers=%d: panic named more than once:\n%s", tc.name, w, msg)
			}
			pe.Close()
		}
	}
}
