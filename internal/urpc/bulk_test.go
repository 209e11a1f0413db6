package urpc

import (
	"bytes"
	"testing"

	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// TestBulkRoundTrip: payloads of every size class — sub-line, exact-line,
// ragged multi-line, full slot — survive the channel bit-exactly and in order.
func TestBulkRoundTrip(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	b := NewBulk(sys, 0, 2, BulkOptions{Slots: 4, SlotLines: 8, Home: -1})
	sizes := []int{1, 63, 64, 65, 200, 8 * memory.LineSize}
	payloads := make([][]byte, len(sizes))
	for i, sz := range sizes {
		payloads[i] = make([]byte, sz)
		for j := range payloads[i] {
			payloads[i][j] = byte(i*31 + j)
		}
	}
	var got [][]byte
	e.Spawn("recv", func(p *sim.Proc) {
		// One receive buffer, too short for the larger payloads: each
		// receive overwrites it and grows it when it must.
		buf := make([]byte, 0, 16)
		for len(got) < len(payloads) {
			buf, _ = b.Recv(p, Spin, buf)
			got = append(got, bytes.Clone(buf))
		}
	})
	e.Spawn("send", func(p *sim.Proc) {
		for _, pl := range payloads {
			b.Send(p, pl)
		}
	})
	e.Run()
	e.CheckQuiesced()
	for i, want := range payloads {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("payload %d corrupted: %d bytes in, %d bytes out", i, len(want), len(got[i]))
		}
	}
	if st := b.Stats(); st.Sent != uint64(len(payloads)) || st.Received != uint64(len(payloads)) {
		t.Fatalf("descriptor stats %+v", st)
	}
	assertFaultFree(t, e)
}

// TestBulkBackpressureGatesSlotReuse: the pool has one payload slot per
// descriptor slot, so a sender racing ahead of a slow receiver must stall on
// the descriptor ring before overwriting an unconsumed slot — and every
// payload must still arrive intact.
func TestBulkBackpressureGatesSlotReuse(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	b := NewBulk(sys, 0, 2, BulkOptions{Slots: 2, SlotLines: 2, Home: -1})
	const n = 8
	var got [][]byte
	e.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(100_000) // let the sender hit the full descriptor ring
		for len(got) < n {
			pl, ok := b.Recv(p, Poll, nil)
			if !ok {
				p.Sleep(pollGap)
				continue
			}
			got = append(got, pl)
		}
	})
	e.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pl := bytes.Repeat([]byte{byte(i + 1)}, 100)
			b.Send(p, pl)
		}
	})
	e.Run()
	e.CheckQuiesced()
	if b.Stats().FullStall == 0 {
		t.Fatal("sender never stalled on a 2-slot pool with a slow receiver")
	}
	for i, pl := range got {
		want := bytes.Repeat([]byte{byte(i + 1)}, 100)
		if !bytes.Equal(pl, want) {
			t.Fatalf("payload %d overwritten before consumption: got leading byte %d, want %d",
				i, pl[0], want[0])
		}
	}
	assertFaultFree(t, e)
}

// TestBulkOversizedPayloadPanics: a payload larger than one pool slot is a
// programming error, not a runtime condition.
func TestBulkOversizedPayloadPanics(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	b := NewBulk(sys, 0, 2, BulkOptions{Slots: 2, SlotLines: 1, Home: -1})
	var panicked bool
	e.Spawn("send", func(p *sim.Proc) {
		defer func() { panicked = recover() != nil }()
		b.Send(p, make([]byte, memory.LineSize+1))
	})
	e.Run()
	if !panicked {
		t.Fatal("expected panic")
	}
}

// TestBulkAccessors covers the inspection surface.
func TestBulkAccessors(t *testing.T) {
	e, sys := newSys(topo.AMD4x4())
	b := NewBulk(sys, 1, 12, BulkOptions{Home: -1})
	if b.Sender() != 1 || b.Receiver() != 12 {
		t.Fatalf("endpoints %d->%d", b.Sender(), b.Receiver())
	}
	if b.SlotBytes() != DefaultBulkSlotLines*memory.LineSize {
		t.Fatalf("SlotBytes=%d", b.SlotBytes())
	}
	if b.Pending() {
		t.Fatal("fresh channel has pending payload")
	}
	if s := b.String(); s == "" {
		t.Fatal("empty String()")
	}
	e.Spawn("send", func(p *sim.Proc) { b.Send(p, []byte{1, 2, 3}) })
	e.Run()
	if !b.Pending() {
		t.Fatal("sent payload not pending")
	}
	snap := e.Metrics().Snapshot()
	if snap.Counters["urpc.bulk_transfers"] != 1 || snap.Counters["urpc.bulk_lines"] != 1 {
		t.Fatalf("registry: transfers=%d lines=%d",
			snap.Counters["urpc.bulk_transfers"], snap.Counters["urpc.bulk_lines"])
	}
}

// TestBulkBeatsRingAtFrameSize is the transport-level acceptance check: moving
// a 24-line Ethernet-frame payload by bulk channel must beat moving the same
// bytes as 24 single-line ring messages.
func TestBulkBeatsRingAtFrameSize(t *testing.T) {
	const lines, reps = 24, 20
	ring := func() sim.Time {
		e, sys := newSys(topo.AMD2x2())
		ch := New(sys, 0, 2, Options{Home: -1, Slots: DefaultSlots, Prefetch: true})
		var end sim.Time
		e.Spawn("recv", func(p *sim.Proc) {
			buf := make([]Message, DefaultSlots)
			for got := 0; got < lines*reps; {
				n := ch.Recv(p, buf, Poll)
				if n == 0 {
					p.Sleep(pollGap)
				}
				got += n
			}
			end = p.Now()
		})
		e.Spawn("send", func(p *sim.Proc) {
			msgs := make([]Message, lines)
			for r := 0; r < reps; r++ {
				ch.Send(p, msgs, Spin)
			}
		})
		e.Run()
		assertFaultFree(t, e)
		return end
	}()
	bulk := func() sim.Time {
		e, sys := newSys(topo.AMD2x2())
		b := NewBulk(sys, 0, 2, BulkOptions{Slots: 8, SlotLines: lines, Home: -1, Prefetch: true})
		payload := make([]byte, lines*memory.LineSize)
		var end sim.Time
		e.Spawn("recv", func(p *sim.Proc) {
			for got := 0; got < reps; {
				if _, ok := b.Recv(p, Poll, nil); ok {
					got++
					continue
				}
				p.Sleep(pollGap)
			}
			end = p.Now()
		})
		e.Spawn("send", func(p *sim.Proc) {
			for r := 0; r < reps; r++ {
				b.Send(p, payload)
			}
		})
		e.Run()
		assertFaultFree(t, e)
		return end
	}()
	if bulk >= ring {
		t.Fatalf("bulk transfer of %d-line payloads took %d cycles, ring took %d — bulk not faster",
			lines, bulk, ring)
	}
}
