//go:build !race

package urpc

import (
	"testing"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// TestQuietRecvAllocs pins BenchmarkQuietRecv's per-message host cost at
// zero allocations: the sender's store miss completes through its line's
// own callback and a queued acquire waits in its proc's own record. Gated
// out under -race, whose runtime instruments allocations.
func TestQuietRecvAllocs(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	defer e.Close()
	ch := New(sys, 0, 2, Options{Home: -1})
	e.Spawn("recv", func(p *sim.Proc) {
		buf := make([]Message, 1)
		for {
			ch.Recv(p, buf, Spin)
		}
	})
	e.Spawn("send", func(p *sim.Proc) {
		msg := make([]Message, 1)
		for {
			p.Sleep(100_000)
			ch.Send(p, msg, Spin)
		}
	})
	// Warm up: every ring slot's line, the event free list and the queue.
	e.RunUntil(300 * 100_000)
	if avg := testing.AllocsPerRun(50, func() { e.RunUntil(e.Now() + 100_000) }); avg != 0 {
		t.Fatalf("%.2f allocations per quiet message, want 0", avg)
	}
}
