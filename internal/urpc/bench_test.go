package urpc

import (
	"testing"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// Host microbenchmarks for the v2 transport. Besides the usual ns/op (host
// cost of simulating the workload), each reports a deterministic
// simulated-cycle metric — identical on every run and every machine — which
// the CI overhead gate pins against a committed baseline: a transport change
// that silently regresses per-message or per-line cost fails CI even though
// all functional tests still pass.

// pipelinedRun moves msgs messages over a one-hop channel on the 8×4 machine
// with both sides in v2 burst mode and returns the virtual cycles consumed.
func pipelinedRun(msgs int) sim.Time {
	e, sys := newSys(topo.AMD8x4())
	ch := New(sys, 0, 4, Options{Home: -1, Slots: DefaultSlots, Prefetch: true})
	var start, end sim.Time
	e.Spawn("recv", func(p *sim.Proc) {
		buf := make([]Message, DefaultSlots)
		for got := 0; got < msgs; {
			got += ch.Recv(p, buf, Spin)
		}
		end = p.Now()
	})
	e.Spawn("send", func(p *sim.Proc) {
		start = p.Now()
		batch := make([]Message, DefaultSlots)
		for sent := 0; sent < msgs; {
			n := len(batch)
			if n > msgs-sent {
				n = msgs - sent
			}
			for i := range batch[:n] {
				batch[i] = Message{uint64(sent + i)}
			}
			ch.Send(p, batch[:n], Spin)
			sent += n
		}
	})
	e.Run()
	return end - start
}

func BenchmarkURPCPipelined(b *testing.B) {
	const msgs = 500
	var cycles sim.Time
	for i := 0; i < b.N; i++ {
		cycles = pipelinedRun(msgs)
	}
	b.ReportMetric(float64(cycles)/msgs, "simcycles/msg")
}

// oneHopRun paces msgs single messages over a one-hop channel on the 8×4
// machine (core 0→4), each carrying its send timestamp and sent and received
// under the given waits, and returns the mean one-way latency. The pacing gap
// outlasts a Window receiver's polling window, so it is always parked and
// woken by notify.
func oneHopRun(msgs int, send, recv Wait) float64 {
	e, sys := newSys(topo.AMD8x4())
	ch := New(sys, 0, 4, Options{Home: -1})
	var total sim.Time
	e.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			m, _ := recvOne(ch, p, recv)
			total += p.Now() - sim.Time(m[0])
		}
	})
	e.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			p.Sleep(3000)
			sendOne(ch, p, Message{uint64(p.Now())}, send)
		}
	})
	e.Run()
	return float64(total) / float64(msgs)
}

// BenchmarkURPCOneHop pins the single-message paths: the Table 2 spinning
// pair, the deadline pair the kv clients use, and a receiver parked past its
// polling window and woken by the sender's notify.
func BenchmarkURPCOneHop(b *testing.B) {
	const msgs, timeout = 50, 1_000_000
	for _, bc := range []struct {
		name       string
		send, recv Wait
	}{
		{"spin", Spin, Spin},
		{"deadline", Deadline(timeout), Deadline(timeout)},
		{"window", Spin, Window(1000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				lat = oneHopRun(msgs, bc.send, bc.recv)
			}
			b.ReportMetric(lat, "simcycles/msg")
		})
	}
}

// bulkRun moves reps frame-sized payloads through a one-hop bulk channel on
// the 8×4 machine and returns the virtual cycles consumed.
func bulkRun(reps int) sim.Time {
	e, sys := newSys(topo.AMD8x4())
	bulk := NewBulk(sys, 0, 4, BulkOptions{
		Slots: 8, SlotLines: DefaultBulkSlotLines, Home: -1, Prefetch: true,
	})
	payload := make([]byte, bulk.SlotBytes())
	for i := range payload {
		payload[i] = byte(i)
	}
	var start, end sim.Time
	e.Spawn("recv", func(p *sim.Proc) {
		for got := 0; got < reps; got++ {
			bulk.Recv(p, Spin)
		}
		end = p.Now()
	})
	e.Spawn("send", func(p *sim.Proc) {
		start = p.Now()
		for r := 0; r < reps; r++ {
			bulk.Send(p, payload)
		}
	})
	e.Run()
	return end - start
}

func BenchmarkBulkTransfer(b *testing.B) {
	const reps = 50
	var cycles sim.Time
	for i := 0; i < b.N; i++ {
		cycles = bulkRun(reps)
	}
	b.ReportMetric(float64(cycles)/(reps*DefaultBulkSlotLines), "simcycles/line")
}
