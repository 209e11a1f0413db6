package urpc

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// pollOwner is a pass owner with nothing to do but poll: it never parks,
// so the engine skips its idle passes from the first chain start on.
type pollOwner struct{}

func (pollOwner) Begin() bool             { return false }
func (pollOwner) Service() bool           { return false }
func (pollOwner) Busy() bool              { return true }
func (pollOwner) Quiet() (bool, sim.Time) { return true, sim.Forever }

// recordRig is a Pass on core 2 of an AMD2x2 over rings from cores 0, 1
// and 3, whose proc drains up to two messages at a time, prefetching each
// next slot. With two partitions, cores 0 and 1 are in the other one, so
// their rings' lines reach the pass's replica as deliveries.
type recordRig struct {
	pe     *sim.ParallelEngine // nil on one engine
	e      *sim.Engine         // the pass's engine
	sys    []*cache.System     // one per partition; the pass's is last
	rings  [][]*Channel        // rings[part][i]
	ps     *Pass
	poller *sim.Proc
	drains [][]int // the dirty records right after each drain that took messages
}

func newRecordRig(parts int) *recordRig {
	m := topo.AMD2x2()
	rg := &recordRig{}
	if parts == 1 {
		rg.e = sim.NewEngine(1)
		rg.sys = []*cache.System{cache.New(rg.e, m, memory.New(m), interconnect.New(m))}
	} else {
		pm := topo.PerSocket(m)
		rg.pe = sim.NewParallelEngine(pm.NParts(), interconnect.Lookahead(m, pm), 1, 1)
		for i := 0; i < pm.NParts(); i++ {
			s := cache.New(rg.pe.Part(i), m, memory.New(m), interconnect.New(m))
			s.SetPartition(pm, i, rg.pe)
			rg.sys = append(rg.sys, s)
		}
		for _, s := range rg.sys {
			s.SetPeers(rg.sys)
		}
		rg.e = rg.pe.Part(parts - 1)
	}
	for _, s := range rg.sys {
		var rings []*Channel
		for _, c := range []topo.CoreID{0, 1, 3} {
			rings = append(rings, New(s, c, 2, Options{Home: -1, Slots: 4, Prefetch: true}))
		}
		rg.rings = append(rg.rings, rings)
	}
	plan := &PassPlan{Loop: 20, Sleep: 60, Park: 8}
	rg.ps = plan.NewPass(pollOwner{}, nil, rg.rings[parts-1])
	rg.poller = rg.e.Spawn("poller", func(p *sim.Proc) {
		p.SetDaemon(true)
		var buf [2]Message
		for {
			if rg.ps.Next(p) == PassRing {
				if rg.ps.Drain(p, buf[:]) > 0 {
					rg.drains = append(rg.drains, rg.dirty())
				}
				rg.ps.Ring++
			}
		}
	})
	return rg
}

// dirty returns the indices of the rings whose record is not clean.
func (rg *recordRig) dirty() []int {
	out := []int{}
	for i := range rg.ps.watches {
		if !rg.ps.watches[i].Clean {
			out = append(out, i)
		}
	}
	return out
}

func (rg *recordRig) runUntil(t sim.Time) {
	if rg.pe != nil {
		rg.pe.RunUntil(t)
		return
	}
	rg.e.RunUntil(t)
}

func (rg *recordRig) close() {
	if rg.pe != nil {
		rg.pe.Close()
		return
	}
	rg.e.Close()
}

// line returns the base of the line that ring i of partition part polls
// next: a write to its first word leaves the ring empty.
func (rg *recordRig) line(part, i int) memory.Addr {
	ch := rg.rings[part][i]
	return ch.seqWord(ch.recvSeq).Line().Base()
}

// TestPassWatchRecords checks the pass's watch records directly: after a
// chain start every ring's record is clean (each ring is held and empty),
// and each event below leaves exactly the records it names dirty, the
// write paths at the instant the write's own call returns (or, for a
// delivery, runs its doorbell). After every event but a restore, the next
// chain start watches those rings again and leaves every record clean.
func TestPassWatchRecords(t *testing.T) {
	const settle, later = 20_000, 40_000
	// write runs do, a write by ring 1's sender core, on a proc at
	// settle+100 and records the dirty rings when it returns.
	write := func(do func(rg *recordRig, p *sim.Proc, a memory.Addr)) func(*testing.T, *recordRig) []int {
		return func(_ *testing.T, rg *recordRig) []int {
			var got []int
			rg.e.Spawn("writer", func(p *sim.Proc) {
				p.Sleep(100)
				do(rg, p, rg.line(0, 1))
				got = rg.dirty()
			})
			rg.runUntil(settle + 2_000)
			return got
		}
	}
	// deliver writes ring 1's line from partition 0 and records the dirty
	// rings when the delivered line rings the pass's replica's doorbell.
	deliver := func(do func(rg *recordRig, p *sim.Proc, a memory.Addr)) func(*testing.T, *recordRig) []int {
		return func(_ *testing.T, rg *recordRig) []int {
			var got []int
			rg.rings[1][1].OnRemoteDeliver = func() { got = rg.dirty() }
			rg.pe.Part(0).Spawn("writer", func(p *sim.Proc) {
				p.Sleep(100)
				do(rg, p, rg.line(0, 1))
			})
			rg.runUntil(settle + 2_000)
			return got
		}
	}
	firstWord := func(rg *recordRig, a memory.Addr) [memory.WordsPerLine]uint64 {
		vals := rg.sys[0].Memory().LoadLine(a)
		vals[0]++
		return vals
	}
	rows := []struct {
		name  string
		parts int
		event func(*testing.T, *recordRig) []int
		want  []int
	}{
		{"store miss", 1, write(func(rg *recordRig, p *sim.Proc, a memory.Addr) {
			rg.sys[0].Store(p, 1, a, 99)
		}), []int{1}},
		{"store queued behind a third core's fill", 1, write(func(rg *recordRig, p *sim.Proc, a memory.Addr) {
			rg.e.Spawn("reader", func(q *sim.Proc) { rg.sys[0].Load(q, 3, a) })
			p.Sleep(1)
			rg.sys[0].Store(p, 1, a, 99)
		}), []int{1}},
		{"rmw", 1, write(func(rg *recordRig, p *sim.Proc, a memory.Addr) {
			rg.sys[0].RMW(p, 1, a, func(v uint64) uint64 { return v + 1 })
		}), []int{1}},
		{"line store", 1, write(func(rg *recordRig, p *sim.Proc, a memory.Addr) {
			rg.sys[0].StoreLine(p, 1, a, firstWord(rg, a))
		}), []int{1}},
		{"dma", 1, func(t *testing.T, rg *recordRig) []int {
			rg.sys[0].DMAWrite(rg.line(0, 1), []byte{1}, 0)
			return rg.dirty()
		}, []int{1}},
		{"delivered line", 2, deliver(func(rg *recordRig, p *sim.Proc, a memory.Addr) {
			rg.sys[0].StoreLine(p, 1, a, firstWord(rg, a))
		}), []int{1}},
		{"delivered bytes", 2, deliver(func(rg *recordRig, p *sim.Proc, a memory.Addr) {
			b := []byte{1, 2, 3}
			rg.sys[0].Memory().StoreBytes(a, b)
			rg.sys[0].MirrorBytes(a, b)
		}), []int{1}},
		{"another record's watch", 1, func(t *testing.T, rg *recordRig) []int {
			other := cache.Watcher{Proc: rg.poller}
			ch := rg.rings[0][1]
			if _, held := rg.sys[0].Watch(2, ch.seqWord(ch.recvSeq), &other); !held || !other.Clean {
				t.Error("the second watch did not take the line")
			}
			return rg.dirty()
		}, []int{1}},
		{"drains", 1, func(t *testing.T, rg *recordRig) []int {
			// The first drain takes two messages and prefetches the third's
			// slot, so the next watch of the ring finds it held with a
			// message: that watch must leave the record dirty, or the
			// second drain would move the cursor under a clean record.
			rg.e.Spawn("sender", func(p *sim.Proc) {
				p.Sleep(100)
				rg.rings[0][1].Send(p, []Message{{7}, {8}, {9}}, Spin)
			})
			rg.runUntil(settle + 2_000)
			if len(rg.drains) != 2 {
				t.Fatalf("%d drains took messages, want 2", len(rg.drains))
			}
			return append(rg.drains[0], rg.drains[1]...)
		}, []int{1, 1}},
		{"SetRings", 1, func(t *testing.T, rg *recordRig) []int {
			rg.e.Settle()
			rg.poller.Nudge()
			rg.ps.SetRings(rg.ps.rings)
			return rg.dirty()
		}, []int{0, 1, 2}},
		{"RestoreState", 1, func(t *testing.T, rg *recordRig) []int {
			var img bytes.Buffer
			if err := rg.sys[0].CheckpointState(&img); err != nil {
				t.Fatal(err)
			}
			if err := rg.sys[0].RestoreState(&img); err != nil {
				t.Fatal(err)
			}
			return rg.dirty()
		}, []int{0, 1, 2}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			rg := newRecordRig(r.parts)
			defer rg.close()
			rg.runUntil(settle)
			if d := rg.dirty(); len(d) != 0 || rg.e.SkippedSteps() == 0 {
				t.Fatalf("after a chain start: records %v dirty, %d steps skipped; want none dirty and some skipped", d, rg.e.SkippedSteps())
			}
			if got := r.event(t, rg); !reflect.DeepEqual(got, r.want) {
				t.Errorf("dirty records %v, want %v", got, r.want)
			}
			if r.name == "RestoreState" {
				return
			}
			rg.runUntil(later)
			if d := rg.dirty(); len(d) != 0 {
				t.Errorf("records %v still dirty %d cycles on", d, later-settle)
			}
		})
	}
}

// leadOwner drives TestPassLeadMatchesStepped's pass: it parks after its
// plan's idle passes and is quiet unless touch tracking is on.
type leadOwner struct{ sys *cache.System }

func (leadOwner) Begin() bool               { return false }
func (leadOwner) Service() bool             { return false }
func (leadOwner) Busy() bool                { return false }
func (o leadOwner) Quiet() (bool, sim.Time) { return !o.sys.Tracking(), sim.Forever }

// TestPassLeadMatchesStepped runs a pass with a lead line and no loop cost,
// the NIC driver's shape, beside a busy proc: a device on core 2's lead
// line posts work by a count, as the NIC does by its index. Some posts
// write the line, some only nudge the proc, which the lead's contract
// allows, so the quiet schedule must read the count; others send on the
// pass's ring. They land at many phases of a pass while the proc polls,
// and once after it has parked. With no hook and with a zero hook, traced and
// untraced, the log, mid-run snapshots, clock, sequence number, metrics
// and trace bytes must be equal.
func TestPassLeadMatchesStepped(t *testing.T) {
	compareSkipRuns(t, skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
		line := sys.Memory().AllocLines(1, 0).Base
		ring := New(sys, 0, 2, Options{Home: -1})
		work := 0
		lead := &PassLead{Sys: sys, Core: 2, Line: func() (memory.Addr, bool) { return line, work > 0 }}
		ps := (&PassPlan{Sleep: 60, Park: 150}).NewPass(leadOwner{sys}, lead, []*Channel{ring})
		proc := e.Spawn("poller", func(p *sim.Proc) {
			p.SetDaemon(true)
			var buf [2]Message
			for {
				switch ps.Next(p) {
				case PassBegin:
					if work > 0 {
						work--
						ps.Progress = true
						log("took work")
					}
					sys.Load(p, 2, line)
					ps.At, ps.Ring = PassRing, 0
				case PassRing:
					if n := ps.Drain(p, buf[:]); n > 0 {
						log(fmt.Sprintf("drained %d", n))
					}
					ps.Ring++
				case PassPark:
					p.Park()
					ps.Idle = 0
					ps.At = PassStart
				}
			}
		})
		busy(e, 13, 340_000)
		snapEvery(e, 20_011, 340_000, log)
		for k := sim.Time(0); k < 36; k++ {
			at := 2_000 + 7_919*k + k*k%83 + 30_000*(k/18) // it parks once, mid-table
			switch k % 3 {
			case 0: // work with no line write: only the nudge says so
				e.After(at, func() { work++; proc.Nudge(); e.Wake(proc) })
			case 1: // work published by a write to the lead line
				e.After(at, func() { sys.DMAWrite(line, []byte{1}, 0); work++; e.Wake(proc) })
			default:
				e.Spawn("send", func(p *sim.Proc) {
					p.Sleep(at)
					ring.Send(p, []Message{{uint64(k)}}, Spin)
					p.Unpark(proc)
				})
			}
		}
		e.RunUntil(360_000)
	}))
}
