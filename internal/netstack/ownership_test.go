package netstack

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// TestFramesAreCopiedAtEachHop checks the frame ownership rule at the wire
// and the NIC: a frame passed to Wire.Transmit, NIC.Transmit or
// Port.Deliver is valid only during the call, so each sender below
// overwrites one buffer for every frame, and every frame must still arrive
// as it was sent. Three receive frames land within the DMA latency, each in
// its own slot, and the driver reads them all into one buffer.
func TestFramesAreCopiedAtEachHop(t *testing.T) {
	m := topo.Intel2x4()
	e, sys := newSys(m)
	defer e.Close()
	w := NewWire(e, 1, m.ClockGHz)
	nic := NewNIC(e, sys, "eth0", w, true)
	var sent []string // what the far end of the wire received
	w.Attach(nic, portFunc(func(f Frame) { sent = append(sent, string(f)) }))
	const size = 60
	fill := func(buf Frame, c rune) Frame {
		for i := range buf {
			buf[i] = byte(c)
		}
		return buf
	}
	e.After(10, func() {
		buf := make(Frame, size)
		for _, c := range "abc" {
			nic.Deliver(fill(buf, c))
		}
		for _, c := range "pq" {
			w.Transmit(false, fill(buf, c))
		}
	})
	var got []string // what the driver read off the NIC
	e.Spawn("driver", func(p *sim.Proc) {
		buf := make(Frame, size)
		for _, c := range "xyz" {
			if err := nic.Transmit(p, 0, fill(buf, c)); err != nil {
				t.Error(err)
			}
		}
		rx := make(Frame, 0, 64)
		for len(got) < 5 {
			f := nic.Poll(p, 0, rx)
			if f == nil {
				p.Sleep(500)
				continue
			}
			got = append(got, string(f))
		}
	})
	e.RunUntil(1_000_000)
	frames := func(s string) []string {
		var out []string
		for _, c := range s {
			out = append(out, string(bytes.Repeat([]byte{byte(c)}, size)))
		}
		return out
	}
	if want := frames("abcpq"); !reflect.DeepEqual(got, want) {
		t.Errorf("driver read %q, want %q", got, want)
	}
	if want := frames("xyz"); !reflect.DeepEqual(sent, want) {
		t.Errorf("wire delivered %q, want %q", sent, want)
	}
}

// TestDatagramsOutliveTheirFrames checks the stack's side of the rule: the
// stack reads frames off its link into buffers of its own and reuses each
// once the frame is handled, so a datagram's payload must not alias the
// frame it came in. The sink keeps every datagram until the end.
func TestDatagramsOutliveTheirFrames(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	defer e.Close()
	a := NewStack(e, sys, "src", 0, IP4(127, 0, 0, 1))
	b := NewStack(e, sys, "sink", 2, IP4(127, 0, 0, 2))
	ConnectLoopback(a, b)
	sockA, sockB := a.BindUDP(1000), b.BindUDP(2000)
	const n = 6
	var got []Datagram
	e.Spawn("sink", func(p *sim.Proc) {
		for len(got) < n {
			got = append(got, sockB.Recv(p))
		}
	})
	e.Spawn("src", func(p *sim.Proc) {
		payload := make([]byte, 100) // overwritten for every datagram
		for i := 0; i < n; i++ {
			copy(payload, fmt.Sprintf("datagram %d", i))
			sockA.SendTo(p, b.IP, 2000, payload)
			p.Sleep(50_000)
		}
	})
	e.RunUntil(10_000_000)
	if len(got) != n {
		t.Fatalf("sink received %d of %d datagrams", len(got), n)
	}
	for i, d := range got {
		if want := fmt.Sprintf("datagram %d", i); !bytes.HasPrefix(d.Payload, []byte(want)) {
			t.Errorf("datagram %d reads %q, want %q", i, d.Payload[:len(want)], want)
		}
	}
}
