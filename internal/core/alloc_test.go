//go:build !race

package core

import (
	"testing"

	"multikernel/internal/interconnect"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/urpc"
)

// TestCrossPartitionRoundTripAllocs pins a URPC round trip between cores 0
// and 2 of a two-partition AMD2x2 at zero host allocations: every message
// line and ack line crosses partitions as a letter (sim.ParallelEngine.Post),
// and the writer's replica finds the line's region on the line itself.
// Gated out under -race, whose runtime instruments allocations.
func TestCrossPartitionRoundTripAllocs(t *testing.T) {
	m := topo.AMD2x2()
	pm := topo.PerSocket(m)
	pe := sim.NewParallelEngine(pm.NParts(), interconnect.Lookahead(m, pm), 1, 1)
	defer pe.Close()
	ps := BootParallel(pe, m, Options{})
	ps.Each(func(part int, s *System) {
		there := urpc.New(s.Cache, 0, 2, urpc.Options{Home: -1})
		back := urpc.New(s.Cache, 2, 0, urpc.Options{Home: -1})
		if s.Cache.LocalCore(0) {
			s.Eng.Spawn("ping", func(p *sim.Proc) {
				buf := make([]urpc.Message, 1)
				for {
					p.Sleep(10_000)
					there.Send(p, buf, urpc.Spin)
					back.Recv(p, buf, urpc.Spin)
				}
			})
		} else {
			s.Eng.Spawn("pong", func(p *sim.Proc) {
				buf := make([]urpc.Message, 1)
				for {
					there.Recv(p, buf, urpc.Spin)
					back.Send(p, buf, urpc.Spin)
				}
			})
		}
	})
	// Warm up: every ring slot's line, the event and letter free lists,
	// the outboxes and the queues.
	pe.RunUntil(300 * 12_000)
	now := pe.Part(0).Now()
	if avg := testing.AllocsPerRun(50, func() {
		now += 12_000
		pe.RunUntil(now)
	}); avg != 0 {
		t.Fatalf("%.2f allocations per cross-partition round trip, want 0", avg)
	}
}
