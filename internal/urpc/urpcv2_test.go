package urpc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// TestSendBatchFIFOThroughSmallRing: a vectored batch larger than the ring
// must arrive complete and in order — Send internally splits it into
// ring-sized bursts.
func TestSendBatchFIFOThroughSmallRing(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	ch := New(sys, 0, 2, Options{Home: -1, Slots: 4})
	const n = 40
	var got []uint64
	e.Spawn("recv", func(p *sim.Proc) {
		buf := make([]Message, 8)
		for len(got) < n {
			k := ch.Recv(p, buf, Poll)
			if k == 0 {
				p.Sleep(pollGap)
				continue
			}
			for _, m := range buf[:k] {
				got = append(got, m[0])
			}
		}
	})
	e.Spawn("send", func(p *sim.Proc) {
		msgs := make([]Message, n)
		for i := range msgs {
			msgs[i] = Message{uint64(i), uint64(n - i)}
		}
		ch.Send(p, msgs, Spin)
	})
	e.Run()
	e.CheckQuiesced()
	if len(got) != n {
		t.Fatalf("received %d of %d", len(got), n)
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

// TestSendSkipsAckReadWithProvenSpace is the satellite-2 regression test: a
// sender whose cached view already proves ring space must not touch the ack
// line at all. FullStall counts exactly the ack-line reads of the wait path,
// so filling the ring from empty must leave it at zero, and the first send
// past a drained-but-stale view must cost exactly one.
func TestSendSkipsAckReadWithProvenSpace(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	ch := New(sys, 0, 2, Options{Home: -1, Slots: 4})
	e.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			sendOne(ch, p, Message{uint64(i)}, Spin)
		}
	})
	e.Run()
	if st := ch.Stats(); st.FullStall != 0 {
		t.Fatalf("filling an empty ring paid %d ack reads, want 0", st.FullStall)
	}
	// Drain the ring; the sender's view is now stale (it still believes the
	// ring is full).
	e.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			recvOne(ch, p, Spin)
		}
	})
	e.Run()
	if ch.InFlight() != 4 {
		t.Fatalf("sender view refreshed without an ack read: InFlight=%d", ch.InFlight())
	}
	// One more send: exactly one ack read discovers the drained ring, and the
	// recovered view then proves space for three more sends for free.
	e.Spawn("send2", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			sendOne(ch, p, Message{uint64(i)}, Spin)
		}
	})
	e.Run()
	if st := ch.Stats(); st.FullStall != 1 {
		t.Fatalf("stale-view refill paid %d ack reads, want exactly 1", st.FullStall)
	}
	assertFaultFree(t, e)
}

// TestSendBatchCoalescesNotify: a parked receiver woken by a burst pays one
// notification for the whole burst, not one per message.
func TestSendBatchCoalescesNotify(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	ch := New(sys, 0, 2, Options{Home: -1})
	const burst = 5
	var got int
	e.Spawn("recv", func(p *sim.Proc) {
		recvOne(ch, p, Window(1000)) // polls out the window, then parks
		got++
		buf := make([]Message, burst)
		for got < burst {
			got += ch.Recv(p, buf, Poll)
		}
	})
	e.Spawn("send", func(p *sim.Proc) {
		p.Sleep(500_000) // far beyond the receiver's polling window
		msgs := make([]Message, burst)
		for i := range msgs {
			msgs[i] = Message{uint64(i)}
		}
		ch.Send(p, msgs, Spin)
	})
	e.Run()
	e.CheckQuiesced()
	if got != burst {
		t.Fatalf("received %d of %d", got, burst)
	}
	if n := ch.Stats().Notifies; n != 1 {
		t.Fatalf("burst of %d woke the receiver %d times, want exactly 1", burst, n)
	}
	assertFaultFree(t, e)
}

// TestRecvAllChargesCheckOncePerPoll: draining k ready messages with one
// k-slot Poll receive must be strictly cheaper than k one-slot Poll receives,
// because the poll check is charged once per call rather than once per
// message.
func TestRecvAllChargesCheckOncePerPoll(t *testing.T) {
	const k = 8
	measure := func(burst bool) sim.Time {
		e, sys := newSys(topo.AMD2x2())
		ch := New(sys, 0, 2, Options{Home: -1})
		e.Spawn("send", func(p *sim.Proc) {
			msgs := make([]Message, k)
			for i := range msgs {
				msgs[i] = Message{uint64(i)}
			}
			ch.Send(p, msgs, Spin)
		})
		e.Run()
		var took sim.Time
		e.Spawn("recv", func(p *sim.Proc) {
			start := p.Now()
			if burst {
				buf := make([]Message, k)
				if n := ch.Recv(p, buf, Poll); n != k {
					t.Errorf("burst receive drained %d of %d ready messages", n, k)
				}
			} else {
				for i := 0; i < k; i++ {
					if _, ok := recvOne(ch, p, Poll); !ok {
						t.Errorf("one-slot receive %d found empty ring", i)
					}
				}
			}
			took = p.Now() - start
		})
		e.Run()
		assertFaultFree(t, e)
		return took
	}
	single, burst := measure(false), measure(true)
	if burst >= single {
		t.Fatalf("burst drain took %d cycles, k one-slot receives took %d — burst not cheaper", burst, single)
	}
	// The saving is at least the (k-1) skipped check charges.
	if single-burst < (k-1)*recvCheckCost {
		t.Fatalf("burst saving %d cycles, want >= %d (k-1 check charges)", single-burst, (k-1)*recvCheckCost)
	}
}

// TestRecvAllEmptyRing: an empty poll returns 0, receives nothing, and leaves
// no urpc.recv slice in the trace (the span open is retroactive on first
// delivery).
func TestRecvAllEmptyRing(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	rec := trace.NewRecorder()
	e.SetTracer(rec)
	ch := New(sys, 0, 2, Options{Home: -1})
	e.Spawn("recv", func(p *sim.Proc) {
		buf := make([]Message, 4)
		if n := ch.Recv(p, buf, Poll); n != 0 {
			t.Errorf("Poll receive on empty ring returned %d", n)
		}
	})
	e.Run()
	if st := ch.Stats(); st.Received != 0 {
		t.Fatalf("stats %+v", st)
	}
	for _, ev := range rec.Events() {
		if ev.Name == "urpc.recv" {
			t.Fatal("empty poll left a urpc.recv slice in the trace")
		}
	}
}

// TestBatchedVsUnbatchedEquivalence runs the same 30-message workload with an
// identical burst-draining receiver, sending either as vectored batches
// or one message at a time. Each variant must be fully
// deterministic — byte-identical exported traces across repeated runs — and
// the batched sender must retire its sends at a strictly earlier virtual time
// (the amortized per-burst setup is the point), delivering the identical
// payload sequence. The receiver's completion time gets a few idle-poll
// cycles of slack: its phase relative to the last arrival shifts with the
// batching.
func TestBatchedVsUnbatchedEquivalence(t *testing.T) {
	const n = 30
	run := func(batched bool) (traceBytes []byte, sendEnd, end sim.Time, got []uint64) {
		e, sys := newSys(topo.AMD2x2())
		rec := trace.NewRecorder()
		e.SetTracer(rec)
		ch := New(sys, 0, 2, Options{Home: -1})
		e.Spawn("recv", func(p *sim.Proc) {
			buf := make([]Message, DefaultSlots)
			for len(got) < n {
				k := ch.Recv(p, buf, Poll)
				if k == 0 {
					p.Sleep(pollGap)
					continue
				}
				for _, m := range buf[:k] {
					got = append(got, m[0])
				}
			}
			end = p.Now()
		})
		e.Spawn("send", func(p *sim.Proc) {
			if batched {
				msgs := make([]Message, n)
				for i := range msgs {
					msgs[i] = Message{uint64(i)}
				}
				ch.Send(p, msgs, Spin)
			} else {
				for i := 0; i < n; i++ {
					sendOne(ch, p, Message{uint64(i)}, Spin)
				}
			}
			sendEnd = p.Now()
		})
		e.Run()
		assertFaultFree(t, e)
		var buf bytes.Buffer
		if err := trace.WriteJSON(&buf, rec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), sendEnd, end, got
	}
	for _, batched := range []bool{true, false} {
		tr1, s1, end1, _ := run(batched)
		tr2, s2, end2, _ := run(batched)
		if !bytes.Equal(tr1, tr2) || s1 != s2 || end1 != end2 {
			t.Fatalf("batched=%v: repeated runs diverged (end %d vs %d)", batched, end1, end2)
		}
	}
	_, batchedSend, batchedEnd, batchedGot := run(true)
	_, plainSend, plainEnd, plainGot := run(false)
	for i := range plainGot {
		if batchedGot[i] != plainGot[i] {
			t.Fatalf("payload %d differs: batched %d, unbatched %d", i, batchedGot[i], plainGot[i])
		}
	}
	if batchedSend >= plainSend {
		t.Fatalf("batched sender retired at %d, not before unbatched at %d", batchedSend, plainSend)
	}
	if slack := sim.Time(pollGap + recvCheckCost + recvCopyCost); batchedEnd > plainEnd+slack*10 {
		t.Fatalf("batched delivery finished at %d, far after unbatched at %d", batchedEnd, plainEnd)
	}
}

// TestSendBatchRecvAllProperty: for random ring capacities, burst shapes,
// receive-buffer sizes and wait policies on both sides, the receiver must
// drain exactly the sequence the sender wrote — same count, same order, same
// payload words — with the channel counters agreeing and no deadline ever
// expiring. Inputs are pre-generated from the trial seed so the workload
// never depends on the schedule, and each failure names its trial.
func TestSendBatchRecvAllProperty(t *testing.T) {
	const trials, generous = 40, 100_000_000
	sendWaits := []struct {
		name string
		w    Wait
	}{{"spin", Spin}, {"deadline", Deadline(generous)}}
	recvWaits := []struct {
		name string
		w    Wait
	}{{"poll", Poll}, {"spin", Spin}, {"window", Window(500)}, {"deadline", Deadline(generous)}}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(0x5ba7c4 + int64(trial)))
		slots := 2 + rng.Intn(31)
		bufN := 1 + rng.Intn(2*slots+1)
		nBursts := 1 + rng.Intn(8)
		bursts := make([][]Message, nBursts)
		gaps := make([]sim.Time, nBursts)
		var want []Message
		for b := range bursts {
			n := 1 + rng.Intn(3*slots)
			bursts[b] = make([]Message, n)
			for i := range bursts[b] {
				bursts[b][i] = Message{rng.Uint64(), uint64(len(want) + i), uint64(b)}
			}
			want = append(want, bursts[b]...)
			gaps[b] = sim.Time(rng.Intn(4000))
		}
		sw, rw := sendWaits[rng.Intn(len(sendWaits))], recvWaits[rng.Intn(len(recvWaits))]
		name := fmt.Sprintf("trial %d (slots %d buf %d send %s recv %s)", trial, slots, bufN, sw.name, rw.name)

		e, sys := newSys(topo.AMD2x2())
		ch := New(sys, 0, 2, Options{Home: -1, Slots: slots})
		var got []Message
		e.Spawn("recv", func(p *sim.Proc) {
			buf := make([]Message, bufN)
			for len(got) < len(want) {
				k := ch.Recv(p, buf, rw.w)
				if k == 0 {
					p.Sleep(pollGap)
					continue
				}
				got = append(got, buf[:k]...)
			}
		})
		e.Spawn("send", func(p *sim.Proc) {
			for b, msgs := range bursts {
				if n := ch.Send(p, msgs, sw.w); n != len(msgs) {
					t.Errorf("%s: burst %d pushed %d of %d", name, b, n, len(msgs))
				}
				p.Sleep(gaps[b])
			}
		})
		e.Run()
		e.CheckQuiesced()

		if len(got) != len(want) {
			t.Fatalf("%s: received %d of %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: message %d is %v, want %v", name, i, got[i], want[i])
			}
		}
		if st := ch.Stats(); st.Sent != uint64(len(want)) || st.Received != uint64(len(want)) {
			t.Fatalf("%s: stats %+v, want %d sent and received", name, st, len(want))
		}
		if to := e.Metrics().Snapshot().Counters["urpc.timeouts"]; to != 0 {
			t.Fatalf("%s: urpc.timeouts=%d under a generous deadline", name, to)
		}
		if sw.name != "deadline" && rw.name != "deadline" {
			assertFaultFree(t, e) // only Deadline waits may count retries
		}
		e.Close()
	}
}
