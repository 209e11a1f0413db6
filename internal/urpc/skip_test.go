package urpc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/memory"
	"multikernel/internal/metrics"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// skipOutcome is everything one engine of a skip row exposes: its (time,
// what) log, final clock and sequence number, metrics snapshot and exported
// trace.
type skipOutcome struct {
	log   []string
	now   sim.Time
	seq   uint64
	snap  metrics.Snapshot
	trace []byte
}

// seqOf returns the number of sequence numbers e has handed out: a hook
// installed after the run sees the one the next event takes.
func seqOf(e *sim.Engine) uint64 {
	var seq uint64
	e.SetPerturb(func(_, _ sim.Time, s uint64) (sim.Time, uint64) { seq = s; return 0, 0 })
	e.After(0, func() {})
	return seq - 1
}

// outcome closes e and collects what it exposes, the lines logged while
// Close unwinds procs included; rec may be nil.
func outcome(e *sim.Engine, rec *trace.Recorder, log *[]string) skipOutcome {
	e.Close()
	out := skipOutcome{log: *log, now: e.Now(), snap: e.Metrics().Snapshot(), seq: seqOf(e)}
	if rec != nil {
		var b bytes.Buffer
		if err := trace.WriteJSON(&b, rec); err != nil {
			panic(err)
		}
		out.trace = b.Bytes()
	}
	return out
}

// skipRunner runs a scenario under a perturb hook, traced or not, and
// returns each engine's outcome.
type skipRunner func(hook sim.PerturbFunc, traced bool) []skipOutcome

// skipRow builds a scenario on a fresh AMD2x2 engine under hook, traced if
// asked, drives it, and returns the outcome.
func skipRow(build func(e *sim.Engine, sys *cache.System, log func(string))) skipRunner {
	return func(hook sim.PerturbFunc, traced bool) []skipOutcome {
		e, sys := newSys(topo.AMD2x2())
		e.SetPerturb(hook)
		var rec *trace.Recorder
		if traced {
			rec = trace.NewRecorder()
			e.SetTracer(rec)
		}
		var log []string
		build(e, sys, func(s string) { log = append(log, fmt.Sprintf("t=%d %s", e.Now(), s)) })
		return []skipOutcome{outcome(e, rec, &log)}
	}
}

// snapEvery logs a registry snapshot every d cycles from d to end, as an
// obs sampler would: a read mid-stretch must find every skipped poll's
// counts.
func snapEvery(e *sim.Engine, d, end sim.Time, log func(string)) {
	for t := d; t <= end; t += d {
		e.After(t, func() {
			s := e.Metrics().Snapshot()
			log(fmt.Sprintf("snap hits=%d recv=%d retries=%d events=%d", s.Counters["cache.hits"], s.Counters["urpc.received"], s.Counters["urpc.retries"], s.Counters["sim.events_dispatched"]))
		})
	}
}

// busy spawns a proc that sleeps steps of d cycles until end: other procs'
// events inside every quiet stretch, so that a skipped stretch cannot wake
// in place.
func busy(e *sim.Engine, d, end sim.Time) {
	e.Spawn("busy", func(p *sim.Proc) {
		for p.Now() < end {
			p.Sleep(d)
		}
	})
}

// compareSkipRuns runs row, traced and untraced, with no hook, where quiet
// receive polls are skipped, and with a hook that perturbs nothing, where
// every poll runs and wakes through the queue, and requires equal outcomes.
func compareSkipRuns(t *testing.T, row skipRunner) {
	for _, traced := range []bool{true, false} {
		t.Run(map[bool]string{true: "traced", false: "untraced"}[traced], func(t *testing.T) {
			compareSkipRun(t, row, traced)
		})
	}
}

func compareSkipRun(t *testing.T, row skipRunner, traced bool) {
	t.Helper()
	zero := func(sim.Time, sim.Time, uint64) (sim.Time, uint64) { return 0, 0 }
	skipped, reference := row(nil, traced), row(zero, traced)
	for i := range reference {
		s, r := skipped[i], reference[i]
		if len(r.log) == 0 {
			t.Fatal("scenario logged nothing")
		}
		if !reflect.DeepEqual(s.log, r.log) {
			t.Errorf("engine %d logs differ:\nno hook:   %s\nzero hook: %s", i, strings.Join(s.log, ", "), strings.Join(r.log, ", "))
		}
		if s.now != r.now || s.seq != r.seq {
			t.Errorf("engine %d ends at t=%d seq=%d with no hook, t=%d seq=%d with a zero hook", i, s.now, s.seq, r.now, r.seq)
		}
		if !reflect.DeepEqual(s.snap, r.snap) {
			t.Errorf("engine %d metrics differ:\nno hook:   %v\nzero hook: %v", i, s.snap, r.snap)
		}
		if !bytes.Equal(s.trace, r.trace) {
			t.Errorf("engine %d traces differ (%d and %d bytes)", i, len(s.trace), len(r.trace))
		}
	}
}

// TestRecvSkipMatchesPolling: a receive's skipped sweeps leave every clock,
// sequence number, counter, trace record and delivery exactly where the
// polls that run one by one leave them.
func TestRecvSkipMatchesPolling(t *testing.T) {
	recv := func(ch *Channel, p *sim.Proc, w Wait, log func(string)) {
		var buf [4]Message
		n := ch.Recv(p, buf[:], w)
		log(fmt.Sprintf("got %d, first %d", n, buf[0][0]))
	}
	rows := []struct {
		name string
		row  skipRunner
	}{
		{"spin across quiet stretches", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			ch := New(sys, 0, 2, Options{Home: -1})
			e.Spawn("recv", func(p *sim.Proc) {
				for i := 0; i < 3; i++ {
					recv(ch, p, Spin, log)
				}
			})
			e.Spawn("send", func(p *sim.Proc) {
				for i := 1; i <= 3; i++ {
					p.Sleep(200_000)
					ch.Send(p, []Message{{uint64(i)}}, Spin)
				}
			})
			e.Run()
		})},
		{"sender stores at every offset into a sweep", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			// One sweep is the check charge, the hit and the poll gap: the
			// sends at consecutive cycles land on every offset, a sweep
			// boundary among them, of a receiver that started when they did.
			sweep := recvCheckCost + sys.Machine().Costs.L1Hit + pollGap
			e.Spawn("driver", func(p *sim.Proc) {
				for off := sim.Time(0); off <= sweep+1; off++ {
					ch := New(sys, 0, 2, Options{Home: -1})
					done := false
					e.Spawn("recv", func(q *sim.Proc) {
						recv(ch, q, Spin, log)
						done = true
						q.Unpark(p)
					})
					e.Spawn("send", func(q *sim.Proc) {
						q.Sleep(3_000 + off)
						ch.Send(q, []Message{{uint64(off)}}, Spin)
					})
					for !done {
						p.Park()
					}
				}
			})
			e.Run()
		})},
		{"deadline expires inside a stretch", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			ch := New(sys, 0, 2, Options{Home: -1})
			e.Spawn("recv", func(p *sim.Proc) {
				recv(ch, p, Deadline(100_000), log)
				recv(ch, p, Deadline(100_000), log)
			})
			e.Spawn("send", func(p *sim.Proc) {
				p.Sleep(150_000)
				ch.Send(p, []Message{{7}}, Spin)
			})
			e.Run()
		})},
		{"deadline expires at every offset into a sweep", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			// Past the backoff ladder a sweep is the check charge, the hit
			// and the capped gap: deadlines at consecutive cycles put the
			// expiry test on every offset, a sweep boundary among them.
			ch := New(sys, 0, 2, Options{Home: -1})
			sweep := recvCheckCost + sys.Machine().Costs.L1Hit + maxBackoffGap
			e.Spawn("recv", func(p *sim.Proc) {
				for off := sim.Time(0); off <= sweep+1; off++ {
					if ch.Recv(p, make([]Message, 1), Deadline(20_000+off)) != 0 {
						log("delivered")
					}
				}
				log("timed out")
			})
			e.Run()
		})},
		{"window parks at every offset into a sweep", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			ch := New(sys, 0, 2, Options{Home: -1})
			sweep := recvCheckCost + sys.Machine().Costs.L1Hit + pollGap
			e.Spawn("recv", func(p *sim.Proc) {
				for off := sim.Time(0); off <= sweep+1; off++ {
					recv(ch, p, Window(2_000+off), log)
				}
			})
			e.Spawn("send", func(p *sim.Proc) {
				for off := sim.Time(0); off <= sweep+1; off++ {
					p.Sleep(10_000)
					ch.Send(p, []Message{{uint64(off)}}, Spin)
				}
			})
			e.Run()
		})},
		{"a write leaves the polled line empty", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			// A device write to a payload word invalidates the receiver's
			// copy of the slot without making it ready: the next poll
			// misses. The writes land at several offsets into a sweep.
			ch := New(sys, 0, 2, Options{Home: -1})
			e.Spawn("recv", func(p *sim.Proc) { recv(ch, p, Spin, log) })
			for k := sim.Time(0); k < 8; k++ {
				e.After(50_000+k*5_007, func() { sys.DMAWrite(ch.slotAddr(ch.recvSeq), []byte{9}, 0) })
			}
			e.Spawn("send", func(p *sim.Proc) {
				p.Sleep(100_000)
				ch.Send(p, []Message{{5}}, Spin)
			})
			e.Run()
		})},
		{"a prefetched slot is ready", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			// A single-message receive prefetches the next slot, which the
			// sender has already written: the receiver holds a ready line.
			ch := New(sys, 0, 2, Options{Home: -1, Prefetch: true})
			e.Spawn("recv", func(p *sim.Proc) {
				p.Sleep(5_000)
				for i := 0; i < 3; i++ {
					_, _ = recvOne(ch, p, Spin)
					log("got one")
				}
			})
			e.Spawn("send", func(p *sim.Proc) {
				ch.Send(p, []Message{{1}, {2}}, Spin)
				p.Sleep(100_000)
				ch.Send(p, []Message{{3}}, Spin)
			})
			e.Run()
		})},
		{"spin beside a busy proc", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			// The busy proc's 7-cycle sleeps land inside every sweep of the
			// receiver's quiet stretches, and the sends at offsets into
			// them; registry snapshots read the skipped polls' hits.
			ch := New(sys, 0, 2, Options{Home: -1})
			busy(e, 7, 250_000)
			snapEvery(e, 23_011, 250_000, log)
			e.Spawn("recv", func(p *sim.Proc) {
				for i := 0; i < 4; i++ {
					recv(ch, p, Spin, log)
				}
			})
			e.Spawn("send", func(p *sim.Proc) {
				for i := 1; i <= 4; i++ {
					p.Sleep(sim.Time(40_000 + 13*i))
					ch.Send(p, []Message{{uint64(i)}}, Spin)
				}
			})
			e.Run()
		})},
		{"window ends mid-stretch beside a busy proc", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			// Each window ends inside a stretch that the busy proc's
			// events cross: the first read at or after its end parks, and
			// the send notifies the parked receiver; one message lands
			// inside a window.
			ch := New(sys, 0, 2, Options{Home: -1})
			busy(e, 11, 400_000)
			snapEvery(e, 17_003, 400_000, log)
			e.Spawn("recv", func(p *sim.Proc) {
				for i := 0; i < 4; i++ {
					recv(ch, p, Window(sim.Time(30_000+1_001*i)), log)
				}
			})
			e.Spawn("send", func(p *sim.Proc) {
				for i := 1; i <= 4; i++ {
					p.Sleep(sim.Time(70_000 + 7*i - 50_000*(i/4)))
					ch.Send(p, []Message{{uint64(i)}}, Spin)
				}
			})
			e.Run()
		})},
		{"window parks at its end", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			ch := New(sys, 0, 2, Options{Home: -1})
			e.Spawn("recv", func(p *sim.Proc) {
				recv(ch, p, Window(5_000), log)  // delivered inside the window
				recv(ch, p, Window(20_000), log) // parks, then notified
			})
			e.Spawn("send", func(p *sim.Proc) {
				p.Sleep(3_000)
				ch.Send(p, []Message{{1}}, Spin)
				p.Sleep(100_000)
				ch.Send(p, []Message{{2}}, Spin)
			})
			e.Run()
		})},
		{"bulk receive", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			b := NewBulk(sys, 0, 2, BulkOptions{Home: -1, Prefetch: true})
			e.Spawn("recv", func(p *sim.Proc) {
				for i := 0; i < 2; i++ {
					data, ok := b.Recv(p, Spin, nil)
					log(fmt.Sprintf("got %d bytes %v", len(data), ok))
				}
			})
			e.Spawn("send", func(p *sim.Proc) {
				for i := 0; i < 2; i++ {
					p.Sleep(80_000)
					b.Send(p, bytes.Repeat([]byte{byte(i)}, 1000))
				}
			})
			e.Run()
		})},
		{"RunUntil limits inside a stretch", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			ch := New(sys, 0, 2, Options{Home: -1})
			e.Spawn("recv", func(p *sim.Proc) { recv(ch, p, Spin, log) })
			e.Spawn("send", func(p *sim.Proc) {
				p.Sleep(300_000)
				ch.Send(p, []Message{{3}}, Spin)
			})
			e.RunUntil(100_000)
			log("caller")
			e.RunUntil(200_003)
			log("caller")
			e.Run()
		})},
		{"a second receiver waits after the first timed out", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			// A's wait times out on an empty ring, which leaves the ring's
			// watch record clean. B's wait then runs on the same record:
			// the reply must nudge B, not A.
			ch := New(sys, 0, 2, Options{Home: -1})
			e.Spawn("recv-a", func(p *sim.Proc) { recv(ch, p, Deadline(5_000), log) })
			e.Spawn("recv-b", func(p *sim.Proc) {
				p.Sleep(20_000)
				recv(ch, p, Deadline(1_000_000), log)
			})
			e.Spawn("send", func(p *sim.Proc) {
				p.Sleep(60_000)
				ch.Send(p, []Message{{8}}, Spin)
			})
			e.Run()
		})},
		{"Kill from a callback", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			ch := New(sys, 0, 2, Options{Home: -1})
			victim := e.Spawn("recv", func(p *sim.Proc) {
				defer log("recv unwound")
				recv(ch, p, Deadline(1_000_000), log)
			})
			e.After(300_001, func() { e.Kill(victim) })
			e.Run()
		})},
		{"Close inside a stretch", skipRow(func(e *sim.Engine, sys *cache.System, log func(string)) {
			ch := New(sys, 0, 2, Options{Home: -1})
			e.Spawn("recv", func(p *sim.Proc) {
				defer log("recv unwound")
				recv(ch, p, Spin, log)
			})
			e.RunUntil(400_000)
		})},
		{"parallel engine epoch ends", skipParallel},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { compareSkipRuns(t, r.row) })
	}
}

// skipParallel runs a receiver and a sender in each of two partitions of a
// ParallelEngine with 1,000-cycle epochs, at two workers. Each sender parks
// until a message posted from the other partition wakes it, so every
// receiver's quiet stretch crosses several epoch ends.
func skipParallel(hook sim.PerturbFunc, traced bool) []skipOutcome {
	const nparts = 2
	m := topo.AMD2x2()
	pe := sim.NewParallelEngine(nparts, 1_000, 1, nparts)
	recs := make([]*trace.Recorder, nparts)
	logs := make([][]string, nparts)
	sends := make([]*sim.Proc, nparts)
	for i := 0; i < nparts; i++ {
		e := pe.Part(i)
		e.SetPerturb(hook)
		if traced {
			recs[i] = trace.NewRecorder()
			e.SetTracer(recs[i])
		}
		sys := cache.New(e, m, memory.New(m), interconnect.New(m))
		ch := New(sys, 0, 2, Options{Home: -1})
		log := func(s string) { logs[i] = append(logs[i], fmt.Sprintf("t=%d %s", e.Now(), s)) }
		sends[i] = e.Spawn("send", func(p *sim.Proc) {
			p.Park()
			ch.Send(p, []Message{{uint64(i)}}, Spin)
		})
		e.Spawn("recv", func(p *sim.Proc) {
			var buf [1]Message
			ch.Recv(p, buf[:], Spin)
			log(fmt.Sprintf("got %d", buf[0][0]))
		})
		e.Spawn("post", func(p *sim.Proc) {
			p.Sleep(sim.Time(4_321 + 1_000*i))
			pe.Send(i, 1-i, 1_000, func() { pe.Part(1 - i).Wake(sends[1-i]) })
		})
	}
	pe.RunUntil(2_500)
	pe.Run()
	var out []skipOutcome
	for i := 0; i < nparts; i++ {
		out = append(out, outcome(pe.Part(i), recs[i], &logs[i]))
	}
	return out
}

// TestQuietSpinRecvIsSkipped fails if Recv stops skipping quiet sweeps. The
// message lands 2^50 cycles after the receive starts: polled one by one,
// the receive would take about 3*10^13 polls, which no host finishes, and
// skipped it finishes at once. Host time is the only witness, since a
// skip leaves every virtual count where the polls would.
func TestQuietSpinRecvIsSkipped(t *testing.T) {
	const at = sim.Time(1) << 50
	e, sys := newSys(topo.AMD2x2())
	ch := New(sys, 0, 2, Options{Home: -1})
	var got Message
	e.Spawn("recv", func(p *sim.Proc) { got, _ = recvOne(ch, p, Spin) })
	e.Spawn("send", func(p *sim.Proc) {
		p.Sleep(at)
		sendOne(ch, p, Message{42}, Spin)
	})
	done := make(chan struct{})
	go func() {
		e.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("a Spin receive quiet for 2^50 cycles did not finish in 60 s: its polls are not skipped")
	}
	if got[0] != 42 || e.Now() < at {
		t.Fatalf("received %v at t=%d, want message 42 after t=%d", got, e.Now(), at)
	}
	sweeps := uint64(at) / uint64(recvCheckCost+sys.Machine().Costs.L1Hit+pollGap)
	if hits := e.Metrics().Snapshot().Counters["cache.hits"]; hits < sweeps {
		t.Fatalf("cache.hits = %d, want at least the %d skipped polls", hits, sweeps)
	}
	e.Close()
}

// TestRecvWaitPinned pins each kind of waiting receive to the outcome its
// polls gave when every poll was an event: the end clock, the sequence
// number, the wait's counters, its probes' hits and the SHA-256 of the
// exported trace. Each row runs traced with a zero hook (every poll an
// event), then traced and untraced with no hook (polls skipped where the
// engine may); every run must read the pinned values, the untraced one
// apart from the trace. The exactness tables compare two runs of the
// current code; this one also holds the waits to fixed numbers, so a
// change that moves a wait's backoff instants, its park point or its
// counters on both paths alike fails here.
func TestRecvWaitPinned(t *testing.T) {
	type pin struct {
		now                               sim.Time
		seq                               uint64
		retries, timeouts, notifies, hits uint64
		trace                             string // hex SHA-256 of the exported trace
	}
	recv := func(ch *Channel, p *sim.Proc, w Wait, log func(string)) {
		var buf [2]Message
		n := ch.Recv(p, buf[:], w)
		log(fmt.Sprintf("got %d, first %d", n, buf[0][0]))
	}
	// sendAt sends messages 1, 2, ... on ch at the given times.
	sendAt := func(e *sim.Engine, ch *Channel, times ...sim.Time) {
		e.Spawn("send", func(p *sim.Proc) {
			for i, at := range times {
				p.Sleep(at - p.Now())
				ch.Send(p, []Message{{uint64(i + 1)}}, Spin)
			}
		})
	}
	rows := []struct {
		name  string
		build func(e *sim.Engine, sys *cache.System, log func(string))
		want  pin
	}{
		{"spin", func(e *sim.Engine, sys *cache.System, log func(string)) {
			ch := New(sys, 0, 2, Options{Home: -1})
			e.Spawn("recv", func(p *sim.Proc) {
				recv(ch, p, Spin, log)
				recv(ch, p, Spin, log)
			})
			sendAt(e, ch, 50_000, 120_007)
			e.Run()
		}, pin{now: 120_751, seq: 9_431, hits: 3_164, trace: "cce086a228338b1d1439c7059206c462a032caf898e5591b94f2c69ecc3f6c3c"}},
		{"window parks and is notified", func(e *sim.Engine, sys *cache.System, log func(string)) {
			// A device write to the slot inside the window makes one
			// probe miss; the window then ends and the receiver parks.
			ch := New(sys, 0, 2, Options{Home: -1})
			e.Spawn("recv", func(p *sim.Proc) { recv(ch, p, Window(5_000), log) })
			e.After(2_003, func() { sys.DMAWrite(ch.slotAddr(ch.recvSeq), []byte{9}, 0) })
			sendAt(e, ch, 40_000)
			e.Run()
		}, pin{now: 42_125, seq: 381, notifies: 1, hits: 134, trace: "8efb020191847ba2a7383c2205dbeb538f76aac45943dbee10d39e1934873dff"}},
		{"polls after the window ended", func(e *sim.Engine, sys *cache.System, log func(string)) {
			// A wake that brings no message finds the window over: the
			// receiver polls once and parks again, until the send.
			ch := New(sys, 0, 2, Options{Home: -1})
			r := e.Spawn("recv", func(p *sim.Proc) { recv(ch, p, Window(3_000), log) })
			e.After(20_011, func() { e.Wake(r) })
			e.After(31_007, func() { sys.DMAWrite(ch.slotAddr(ch.recvSeq), []byte{9}, 0) })
			e.After(32_000, func() { e.Wake(r) })
			sendAt(e, ch, 60_000)
			e.Run()
		}, pin{now: 62_125, seq: 250, notifies: 1, hits: 89, trace: "be9556b0ecbad6c095ba8def1c9aab4d8707075e73e2a16398cab6b6af2ff5b9"}},
		{"deadline reply on the ladder", func(e *sim.Engine, sys *cache.System, log func(string)) {
			ch := New(sys, 0, 2, Options{Home: -1})
			e.Spawn("recv", func(p *sim.Proc) { recv(ch, p, Deadline(100_000), log) })
			sendAt(e, ch, 601)
			e.Run()
		}, pin{now: 1_562, seq: 28, retries: 4, hits: 18, trace: "a5afcc20bf2490ce3919dfd3e3e6190638671417809678e6bacc84b66d4fc825"}},
		{"deadline reply in the capped phase", func(e *sim.Engine, sys *cache.System, log func(string)) {
			ch := New(sys, 0, 2, Options{Home: -1})
			e.Spawn("recv", func(p *sim.Proc) {
				recv(ch, p, Deadline(100_000), log)
				recv(ch, p, Deadline(100_000), log)
			})
			sendAt(e, ch, 30_001, 47_777)
			e.Run()
		}, pin{now: 49_985, seq: 147, retries: 40, hits: 70, trace: "e861a1a8cbc993a37c5264da1e019fae3640d416138b48bb90117ea4b0d62666"}},
		{"deadline expiry", func(e *sim.Engine, sys *cache.System, log func(string)) {
			ch := New(sys, 0, 2, Options{Home: -1})
			e.Spawn("recv", func(p *sim.Proc) {
				recv(ch, p, Deadline(20_000), log)
				recv(ch, p, Deadline(900), log)
			})
			e.Run()
		}, pin{now: 22_905, seq: 77, retries: 24, timeouts: 2, hits: 25, trace: "f2031eaba4c903991e56d10fa56ac2fc58aeb2ec45aa52ae054089ff6020e6e6"}},
	}
	zero := func(sim.Time, sim.Time, uint64) (sim.Time, uint64) { return 0, 0 }
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for _, run := range []struct {
				name   string
				hook   sim.PerturbFunc
				traced bool
			}{{"stepped", zero, true}, {"traced", nil, true}, {"untraced", nil, false}} {
				out := skipRow(r.build)(run.hook, run.traced)[0]
				c := out.snap.Counters
				got := pin{now: out.now, seq: out.seq, retries: c["urpc.retries"], timeouts: c["urpc.timeouts"], notifies: c["urpc.notifies"], hits: c["cache.hits"]}
				want := r.want
				if run.traced {
					sum := sha256.Sum256(out.trace)
					got.trace = hex.EncodeToString(sum[:])
				} else {
					want.trace = ""
				}
				if got != want {
					t.Errorf("%s: got %+v\nwant %+v", run.name, got, want)
				}
			}
		})
	}
}
