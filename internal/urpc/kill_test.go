package urpc

import (
	"bytes"
	"testing"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// Regression: Engine.Kill landing inside an in-flight batch Send must never
// strand a parked receiver. Two windows are dangerous:
//
//   - inside notify(), after the receiver was claimed (c.blocked cleared) but
//     during the IPI-delivery sleep — the kill unwinds the sender before the
//     Unpark, so the wakeup must be delivered on the unwind path;
//   - between pushing slots and reaching notify() at all — messages are in
//     the ring, the receiver is parked, and nobody is left to send the IPI.
//
// The test sweeps the kill time across the entire batch (one fresh engine per
// offset) so every interleaving of the two windows is hit, and asserts the
// parked receiver always drains what was actually published.
func TestKillDuringSendBatchWakesParkedReceiver(t *testing.T) {
	const (
		batch   = 6
		sendAt  = 5_000 // receiver is parked well before this
		span    = 2_500 // covers the Send end to end (it runs ~1200 cycles)
		horizon = 200_000
	)
	for off := sim.Time(0); off < span; off += 3 {
		e, sys := newSys(topo.AMD2x2())
		ch := New(sys, 0, 1, Options{Slots: 4, Home: -1})

		got := 0
		e.Spawn("recv", func(p *sim.Proc) {
			p.SetDaemon(true)
			for {
				recvOne(ch, p, Window(100)) // parks long before the send starts
				got++
			}
		})
		sender := e.Spawn("send", func(p *sim.Proc) {
			p.Sleep(sendAt)
			msgs := make([]Message, batch)
			for i := range msgs {
				msgs[i] = Message{uint64(i), 0, 0}
			}
			ch.Send(p, msgs, Spin)
		})
		e.After(sendAt+off, func() { e.Kill(sender) })
		e.RunUntil(horizon)

		// Whatever made it into the ring must reach the receiver: a parked
		// receiver with undelivered messages is the deadlock this guards
		// against.
		if ch.Pending() {
			t.Fatalf("kill at +%d: receiver parked with messages pending (drained %d)", off, got)
		}
		if deadlocked := e.Deadlocked(); len(deadlocked) > 0 {
			t.Fatalf("kill at +%d: deadlocked procs %v", off, deadlocked)
		}
		e.Close()
	}
}

// The same window with the batch split across ring wraps: the sender blocks
// mid-batch on a full ring (the receiver drains one message at a time), so
// the kill can land while the sender is spinning for space with messages
// already published.
func TestKillWhileBatchBlockedOnFullRing(t *testing.T) {
	const horizon = 400_000
	for off := sim.Time(0); off < 20_000; off += 251 {
		e, sys := newSys(topo.AMD2x2())
		ch := New(sys, 0, 1, Options{Slots: 2, Home: -1})

		got := 0
		e.Spawn("recv", func(p *sim.Proc) {
			p.SetDaemon(true)
			for {
				recvOne(ch, p, Window(50))
				got++
				p.Sleep(3_000) // slow consumer forces FullStall in the sender
			}
		})
		sender := e.Spawn("send", func(p *sim.Proc) {
			msgs := make([]Message, 12)
			for i := range msgs {
				msgs[i] = Message{uint64(i), 0, 0}
			}
			ch.Send(p, msgs, Spin)
		})
		e.After(off, func() { e.Kill(sender) })
		e.RunUntil(horizon)

		if ch.Pending() {
			t.Fatalf("kill at %d: receiver parked with messages pending (drained %d)", off, got)
		}
		e.Close()
	}
}

// Regression: a receiver killed while parked in a Window wait must release
// the channel. Otherwise the dead proc stays registered as the blocked
// receiver: the next Window receiver panics, the channel can never be
// checkpointed, and the next sender pays an IPI to notify a corpse.
func TestKillParkedReceiverReleasesChannel(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	ch := New(sys, 0, 2, Options{Home: -1})
	dead := e.Spawn("recv1", func(p *sim.Proc) {
		recvOne(ch, p, Window(100)) // parks long before the kill
	})
	e.After(5_000, func() { e.Kill(dead) })
	e.Run()

	if err := ch.CheckpointState(&bytes.Buffer{}); err != nil {
		t.Fatalf("channel not quiescent after its parked receiver died: %v", err)
	}
	e.Spawn("send1", func(p *sim.Proc) { sendOne(ch, p, Message{1}, Spin) })
	e.Run()
	if n := ch.Stats().Notifies; n != 0 {
		t.Fatalf("send with no live receiver counted %d notifies, want 0", n)
	}

	var got []uint64
	e.Spawn("recv2", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			m, _ := recvOne(ch, p, Window(100)) // the second parks until send2
			got = append(got, m[0])
		}
	})
	e.Spawn("send2", func(p *sim.Proc) {
		p.Sleep(50_000)
		sendOne(ch, p, Message{2}, Spin)
	})
	e.Run()
	e.CheckQuiesced()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fresh receiver got %v, want [1 2]", got)
	}
	if n := ch.Stats().Notifies; n != 1 {
		t.Fatalf("notifies=%d, want exactly the live receiver's 1", n)
	}
}
