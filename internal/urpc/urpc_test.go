package urpc

import (
	"testing"
	"testing/quick"

	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

func newSys(m *topo.Machine) (*sim.Engine, *cache.System) {
	e := sim.NewEngine(1)
	return e, cache.New(e, m, memory.New(m), interconnect.New(m))
}

// sendOne and recvOne move a single message through a one-slot buffer.
func sendOne(ch *Channel, p *sim.Proc, m Message, w Wait) bool {
	return ch.Send(p, []Message{m}, w) == 1
}

func recvOne(ch *Channel, p *sim.Proc, w Wait) (Message, bool) {
	var buf [1]Message
	ok := ch.Recv(p, buf[:], w) == 1
	return buf[0], ok
}

// assertFaultFree verifies that a fault-free workload never took a timeout or
// backoff-retry path: those are reserved for fault handling, and any nonzero
// registry count is an accidental latency regression.
func assertFaultFree(t *testing.T, e *sim.Engine) {
	t.Helper()
	snap := e.Metrics().Snapshot()
	if to, re := snap.Counters["urpc.timeouts"], snap.Counters["urpc.retries"]; to != 0 || re != 0 {
		t.Errorf("fault-free run recorded urpc.timeouts=%d urpc.retries=%d, want 0/0", to, re)
	}
}

func TestSingleMessageRoundTrip(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	ch := New(sys, 0, 2, Options{Home: -1})
	var got Message
	e.Spawn("recv", func(p *sim.Proc) { got, _ = recvOne(ch, p, Spin) })
	e.Spawn("send", func(p *sim.Proc) {
		p.Sleep(100)
		sendOne(ch, p, Message{1, 2, 3, 4, 5, 6, 7}, Spin)
	})
	e.Run()
	if got != (Message{1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("got %v", got)
	}
	assertFaultFree(t, e)
}

func TestFIFOOrderAcrossManyMessages(t *testing.T) {
	e, sys := newSys(topo.AMD4x4())
	ch := New(sys, 0, 12, Options{Home: -1, Slots: 4})
	const n = 100
	var got []uint64
	e.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m, _ := recvOne(ch, p, Spin)
			got = append(got, m[0])
		}
	})
	e.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			sendOne(ch, p, Message{uint64(i)}, Spin)
		}
	})
	e.Run()
	e.CheckQuiesced()
	if len(got) != n {
		t.Fatalf("received %d messages", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("message %d carried %d (reordering or loss)", i, v)
		}
	}
	st := ch.Stats()
	if st.Sent != n || st.Received != n {
		t.Fatalf("stats %+v", st)
	}
	assertFaultFree(t, e)
}

func TestSenderBlocksWhenRingFull(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	ch := New(sys, 0, 2, Options{Home: -1, Slots: 4})
	e.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			sendOne(ch, p, Message{uint64(i)}, Spin)
		}
	})
	e.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(50_000) // let the sender hit the full ring
		for i := 0; i < 20; i++ {
			recvOne(ch, p, Spin)
		}
	})
	e.Run()
	e.CheckQuiesced()
	if ch.Stats().FullStall == 0 {
		t.Fatal("sender never stalled on a 4-slot ring with a slow receiver")
	}
	if ch.Stats().Received != 20 {
		t.Fatalf("received %d", ch.Stats().Received)
	}
	assertFaultFree(t, e)
}

func TestOneWayLatencyMatchesPaperBallpark(t *testing.T) {
	// Paper Table 2: same-socket URPC on the 2×2 AMD system is ~450 cycles;
	// cross-socket one-hop is ~530. Accept ±25%.
	check := func(sender, receiver topo.CoreID, wantLo, wantHi sim.Time) {
		e, sys := newSys(topo.AMD2x2())
		ch := New(sys, sender, receiver, Options{Home: -1})
		var sentAt, gotAt sim.Time
		e.Spawn("recv", func(p *sim.Proc) {
			recvOne(ch, p, Spin) // warm-up message: fills the ack line and slot caches
			recvOne(ch, p, Spin)
			gotAt = p.Now()
		})
		e.Spawn("send", func(p *sim.Proc) {
			sendOne(ch, p, Message{1}, Spin)
			p.Sleep(2000)
			sentAt = p.Now()
			sendOne(ch, p, Message{42}, Spin)
		})
		e.Run()
		lat := gotAt - sentAt
		if lat < wantLo || lat > wantHi {
			t.Errorf("latency %d->%d = %d cycles, want in [%d, %d]", sender, receiver, lat, wantLo, wantHi)
		}
		assertFaultFree(t, e)
	}
	check(0, 1, 340, 560) // same socket: ~450
	check(0, 2, 400, 660) // one hop: ~532
}

func TestPipelinedThroughputBeatsLatencyBound(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	ch := New(sys, 0, 2, Options{Home: -1, Slots: 16})
	const n = 500
	var start, end sim.Time
	e.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			recvOne(ch, p, Spin)
		}
		end = p.Now()
	})
	e.Spawn("send", func(p *sim.Proc) {
		start = p.Now()
		for i := 0; i < n; i++ {
			sendOne(ch, p, Message{uint64(i)}, Spin)
		}
	})
	e.Run()
	perMsg := (end - start) / n
	// One-way latency is ~450 cycles; pipelining should push per-message cost
	// well below it (paper: 3.42 msgs/kcycle = ~290 cycles/msg).
	if perMsg >= 430 {
		t.Fatalf("pipelined cost %d cycles/msg, want < 430", perMsg)
	}
	assertFaultFree(t, e)
}

func TestRecvWindowBlocksAndIsNotified(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	ch := New(sys, 0, 2, Options{Home: -1})
	var got Message
	var recvDone sim.Time
	e.Spawn("recv", func(p *sim.Proc) {
		got, _ = recvOne(ch, p, Window(1000))
		recvDone = p.Now()
	})
	e.Spawn("send", func(p *sim.Proc) {
		p.Sleep(500_000) // far beyond the polling window
		sendOne(ch, p, Message{7}, Spin)
	})
	e.Run()
	e.CheckQuiesced()
	if got[0] != 7 {
		t.Fatalf("got %v", got)
	}
	if recvDone < 500_000 {
		t.Fatal("receiver completed before the message was sent")
	}
	if ch.Stats().Notifies != 1 {
		t.Fatalf("notifies=%d, want 1", ch.Stats().Notifies)
	}
	assertFaultFree(t, e)
}

func TestRecvWindowFastPathNoNotify(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	ch := New(sys, 0, 2, Options{Home: -1})
	e.Spawn("recv", func(p *sim.Proc) { recvOne(ch, p, Window(100_000)) })
	e.Spawn("send", func(p *sim.Proc) {
		p.Sleep(300)
		sendOne(ch, p, Message{1}, Spin)
	})
	e.Run()
	if ch.Stats().Notifies != 0 {
		t.Fatal("message within polling window should not need notification")
	}
	assertFaultFree(t, e)
}

func TestPrefetchImprovesThroughput(t *testing.T) {
	measure := func(prefetch bool) sim.Time {
		e, sys := newSys(topo.AMD8x4())
		ch := New(sys, 0, 4, Options{Home: -1, Slots: 16, Prefetch: prefetch})
		const n = 300
		var end sim.Time
		e.Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				recvOne(ch, p, Spin)
			}
			end = p.Now()
		})
		e.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				sendOne(ch, p, Message{uint64(i)}, Spin)
			}
		})
		e.Run()
		assertFaultFree(t, e)
		return end
	}
	plain, pf := measure(false), measure(true)
	if pf > plain {
		t.Fatalf("prefetch made throughput worse: %d vs %d", pf, plain)
	}
}

func TestNUMAHomePlacement(t *testing.T) {
	_, sys := newSys(topo.AMD4x4())
	ch := New(sys, 0, 12, Options{Home: -1}) // receiver core 12 is socket 3
	if got := sys.Memory().Home(ch.ring.Base); got != 3 {
		t.Fatalf("ring homed on socket %d, want 3 (receiver's)", got)
	}
	ch2 := New(sys, 0, 12, Options{Home: 1})
	if got := sys.Memory().Home(ch2.ring.Base); got != 1 {
		t.Fatalf("explicit home ignored: %d", got)
	}
}

func TestTinyRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, sys := newSys(topo.AMD2x2())
	New(sys, 0, 1, Options{Slots: 1})
}

// Property: any payload survives the channel bit-exactly, in order, for any
// ring size >= 2.
func TestPayloadIntegrityProperty(t *testing.T) {
	f := func(payloads [][7]uint64, slots uint8) bool {
		if len(payloads) == 0 || len(payloads) > 60 {
			return true
		}
		e, sys := newSys(topo.AMD2x2())
		ch := New(sys, 1, 3, Options{Home: -1, Slots: int(slots%14) + 2})
		ok := true
		e.Spawn("recv", func(p *sim.Proc) {
			for _, want := range payloads {
				if got, _ := recvOne(ch, p, Spin); got != Message(want) {
					ok = false
				}
			}
		})
		e.Spawn("send", func(p *sim.Proc) {
			for _, m := range payloads {
				sendOne(ch, p, Message(m), Spin)
			}
		})
		e.Run()
		st := ch.Stats()
		snap := e.Metrics().Snapshot()
		return ok && st.Sent == uint64(len(payloads)) &&
			snap.Counters["urpc.timeouts"] == 0 && snap.Counters["urpc.retries"] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCanSendAndPending(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	ch := New(sys, 0, 2, Options{Home: -1, Slots: 2})
	if ch.InFlight() >= ch.Slots() {
		t.Fatal("fresh channel cannot send")
	}
	if ch.Pending() {
		t.Fatal("fresh channel has pending message")
	}
	e.Spawn("send", func(p *sim.Proc) {
		sendOne(ch, p, Message{1}, Spin)
		sendOne(ch, p, Message{2}, Spin)
		if sendOne(ch, p, Message{3}, Poll) {
			t.Error("Poll send pushed into a full ring")
		}
	})
	e.Run()
	if ch.InFlight() < ch.Slots() {
		t.Fatal("full 2-slot ring still claims send space")
	}
	if !ch.Pending() {
		t.Fatal("messages sent but none pending")
	}
	e.Spawn("recv", func(p *sim.Proc) {
		recvOne(ch, p, Spin)
		recvOne(ch, p, Spin)
	})
	e.Run()
	if ch.Pending() {
		t.Fatal("drained channel still pending")
	}
	if got := ch.Slots(); got != 2 {
		t.Fatalf("slots=%d", got)
	}
	if s := ch.String(); s == "" {
		t.Fatal("empty String()")
	}
	assertFaultFree(t, e)
}

// TestSendTimeoutFastPathMatchesSend: with ring space available, a Deadline
// send must be cycle-identical to a Spin send — the deadline machinery may not
// slow the fault-free path.
func TestSendTimeoutFastPathMatchesSend(t *testing.T) {
	measure := func(useTimeout bool) sim.Time {
		e, sys := newSys(topo.AMD2x2())
		ch := New(sys, 0, 2, Options{Home: -1})
		var took sim.Time
		e.Spawn("send", func(p *sim.Proc) {
			start := p.Now()
			if useTimeout {
				if !sendOne(ch, p, Message{1}, Deadline(10_000)) {
					t.Error("Deadline send failed with ring space available")
				}
			} else {
				sendOne(ch, p, Message{1}, Spin)
			}
			took = p.Now() - start
		})
		e.Run()
		if useTimeout {
			assertFaultFree(t, e)
		}
		return took
	}
	plain, timed := measure(false), measure(true)
	if plain != timed {
		t.Fatalf("Deadline send fast path took %d cycles, Spin send took %d", timed, plain)
	}
}

// TestSendTimeoutExpiresOnDeadReceiver: a receiver that never drains the ring
// (fail-stopped) makes a Deadline send give up by the deadline, with exponential
// backoff visible in the retry count.
func TestSendTimeoutExpiresOnDeadReceiver(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	ch := New(sys, 0, 2, Options{Home: -1, Slots: 2})
	const timeout = 20_000
	var gaveUpAt sim.Time
	var sent, failed int
	e.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if sendOne(ch, p, Message{uint64(i)}, Deadline(timeout)) {
				sent++
			} else {
				failed++
				gaveUpAt = p.Now()
				return
			}
		}
	})
	e.Run()
	e.CheckQuiesced()
	if sent != 2 || failed != 1 {
		t.Fatalf("sent=%d failed=%d, want 2 slots filled then 1 timeout", sent, failed)
	}
	snap := e.Metrics().Snapshot()
	timeouts, retries := snap.Counters["urpc.timeouts"], snap.Counters["urpc.retries"]
	if timeouts != 1 {
		t.Fatalf("urpc.timeouts=%d, want 1", timeouts)
	}
	if retries == 0 {
		t.Fatal("no backoff retries recorded before the timeout")
	}
	// Exponential backoff keeps the retry count well below timeout/pollGap.
	if retries >= uint64(timeout/pollGap/2) {
		t.Fatalf("urpc.retries=%d suggests linear polling, want exponential backoff", retries)
	}
	if gaveUpAt > timeout+maxBackoffGap+1000 {
		t.Fatalf("gave up at %d, deadline was ~%d", gaveUpAt, timeout)
	}
}

// TestRecvTimeoutExpiresAndDelivers: a Deadline receive returns 0 after the
// deadline on a silent channel, and still delivers when a message arrives
// in time.
func TestRecvTimeoutExpiresAndDelivers(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	ch := New(sys, 0, 2, Options{Home: -1})
	var firstOK, secondOK bool
	var second Message
	e.Spawn("recv", func(p *sim.Proc) {
		_, firstOK = recvOne(ch, p, Deadline(5_000)) // nothing sent yet: must expire
		second, secondOK = recvOne(ch, p, Deadline(100_000))
	})
	e.Spawn("send", func(p *sim.Proc) {
		p.Sleep(30_000)
		sendOne(ch, p, Message{42}, Spin)
	})
	e.Run()
	e.CheckQuiesced()
	if firstOK {
		t.Fatal("Deadline receive delivered from an empty channel")
	}
	if !secondOK || second[0] != 42 {
		t.Fatalf("second recv: ok=%v msg=%v", secondOK, second)
	}
	snap := e.Metrics().Snapshot()
	if snap.Counters["urpc.timeouts"] != 1 || snap.Counters["urpc.retries"] == 0 {
		t.Fatalf("urpc.timeouts=%d urpc.retries=%d, want exactly 1 timeout and some retries",
			snap.Counters["urpc.timeouts"], snap.Counters["urpc.retries"])
	}
}

// TestTraceLinksSendToRecv: every transmitted message produces a FlowOut
// inside the sender's urpc.send span and a FlowIn inside the receiver's
// urpc.recv span carrying the same flow id, so an exported trace renders the
// cross-core message arrow. Channels on one engine must never share flow ids.
func TestTraceLinksSendToRecv(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	rec := trace.NewRecorder()
	e.SetTracer(rec)
	ch := New(sys, 0, 2, Options{Home: -1})
	ch2 := New(sys, 1, 3, Options{Home: -1})
	const n = 3
	e.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			recvOne(ch, p, Spin)
		}
	})
	e.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			sendOne(ch, p, Message{uint64(i)}, Spin)
		}
	})
	e.Spawn("recv2", func(p *sim.Proc) { recvOne(ch2, p, Spin) })
	e.Spawn("send2", func(p *sim.Proc) { sendOne(ch2, p, Message{9}, Spin) })
	e.Run()
	out := map[uint64]int32{} // flow id -> emitting core
	in := map[uint64]int32{}
	for _, ev := range rec.Events() {
		if ev.Name != "urpc.msg" {
			continue
		}
		switch ev.Kind {
		case trace.FlowOut:
			if _, dup := out[ev.ID]; dup {
				t.Fatalf("flow id %#x emitted twice by senders", ev.ID)
			}
			out[ev.ID] = ev.Core
		case trace.FlowIn:
			in[ev.ID] = ev.Core
		}
	}
	if len(out) != n+1 || len(in) != n+1 {
		t.Fatalf("flow events: %d out, %d in, want %d each", len(out), len(in), n+1)
	}
	for id, senderCore := range out {
		recvCore, ok := in[id]
		if !ok {
			t.Fatalf("send flow %#x has no matching recv", id)
		}
		if senderCore == recvCore {
			t.Fatalf("flow %#x stayed on core %d, want cross-core link", id, senderCore)
		}
	}
}

// TestChannelDeadVerdict: MarkDead makes further deadline sends fail
// immediately without polling; draining already-written slots still works.
func TestChannelDeadVerdict(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	ch := New(sys, 0, 2, Options{Home: -1})
	e.Spawn("send", func(p *sim.Proc) {
		if !sendOne(ch, p, Message{7}, Deadline(10_000)) {
			t.Error("send before verdict failed")
		}
		ch.MarkDead()
		start := p.Now()
		if sendOne(ch, p, Message{8}, Deadline(10_000)) {
			t.Error("send succeeded on a dead channel")
		}
		if p.Now() != start {
			t.Error("dead-channel send burned cycles")
		}
	})
	e.Run()
	if !ch.Dead() {
		t.Fatal("verdict not recorded")
	}
	var got Message
	e.Spawn("recv", func(p *sim.Proc) { got, _ = recvOne(ch, p, Spin) })
	e.Run()
	if got[0] != 7 {
		t.Fatalf("in-flight message lost after verdict: %v", got)
	}
}
