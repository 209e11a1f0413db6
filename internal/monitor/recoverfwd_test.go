package monitor

import (
	"testing"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// Regression sweep for recoverFwd, in the style of the transport's
// kill-mid-batch-Send sweeps: the fail-stop is swept across the entire
// forward fan-out of a NUMA-aware shootdown (one fresh engine per offset),
// so the death lands before the aggregator's fan-out, between its child
// sends, during a child's slowed invalidation, and after the aggregate
// response went upward. Whatever the interleaving, the operation must
// complete on the survivors, a mop-up operation must converge every
// surviving view, and nothing may deadlock.
//
// Victim 9 is a leaf of socket 2's aggregation subtree: its silence expires
// the aggregator's fwdDeadline and recoverFwd answers upward with what the
// survivors said. Victim 8 is socket 2's aggregation root itself: its
// silence expires the initiator's phase deadline instead (recoverOp), and
// the re-planned tree must re-reach the dead root's children.
func TestRecoverFwdKillSweptAcrossFanout(t *testing.T) {
	const (
		span = 140_000 // covers fan-out start through fwdDeadline expiry
		step = 7_000
	)
	for _, victim := range []topo.CoreID{9, 8} {
		sawFwdRecovery := false
		for off := sim.Time(0); off < span; off += step {
			f := newFaultFixture(t, topo.AMD8x4())
			// Slow invalidations hold the fan-out open so mid-flight offsets
			// actually land mid-flight.
			f.net.Hooks.Invalidate = func(p *sim.Proc, core topo.CoreID, op Op) {
				f.invalidated[core]++
				p.Sleep(20_000)
			}
			f.e.After(off, func() { f.net.FailStop(victim) })
			var first, mopup bool
			f.e.Spawn("app", func(p *sim.Proc) {
				first = f.net.Monitor(0).Unmap(p, 0x10000, 4096, nil, NUMAAware)
				// The mop-up op detects the death even when the kill landed
				// after the first op completed, so views always converge.
				mopup = f.net.Monitor(0).Unmap(p, 0x20000, 4096, nil, NUMAAware)
			})
			f.e.Run()
			if !first || !mopup {
				t.Fatalf("victim %d, kill at +%d: unmap=%v mop-up=%v, want both true",
					victim, off, first, mopup)
			}
			assertSurvivorViews(t, f)
			if dl := f.e.Deadlocked(); len(dl) != 0 {
				t.Fatalf("victim %d, kill at +%d: deadlocked procs: %v", victim, off, dl)
			}
			// recoverFwd runs on aggregators, never the initiator: any
			// recovery counted by a surviving non-initiator monitor is one.
			for c := 1; c < f.m.NumCores(); c++ {
				mon := f.net.Monitor(topo.CoreID(c))
				if !f.net.CoreFailed(mon.Core) && mon.Stats().Recoveries > 0 {
					sawFwdRecovery = true
				}
			}
		}
		if victim == 9 && !sawFwdRecovery {
			t.Errorf("leaf sweep never drove an aggregator through recoverFwd")
		}
	}
}
