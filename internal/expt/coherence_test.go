package expt

import (
	"fmt"
	"testing"

	"multikernel/internal/cache"
	"multikernel/internal/check"
	"multikernel/internal/harness"
	"multikernel/internal/interconnect"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// The coherence sweep's contract: the mode crossover lands where the scaled
// cost parameters put it, directory-mode probe fan-out is a real (targeted)
// signal rather than the socket count, and the whole sweep is byte-identical
// at any harness parallelism.

func TestCoherenceCrossoverShape(t *testing.T) {
	h := Coherence(4, 1024).Headline
	if h["coherence.sums_ok"] != 1 {
		t.Fatal("a contended counter did not sum to writers*incs")
	}
	// Broadcast wins on small meshes, directory on the 64-core Mesh(4) and
	// beyond: the analytic break-even of SnoopPerSocket 4 vs DirLookup 52
	// lies between 9 and 16 sockets.
	if c := h["coherence.crossover_cores"]; c != 64 {
		t.Errorf("crossover at %.0f cores, want 64", c)
	}
	if h["coherence.directory_cycles"] >= h["coherence.broadcast_cycles"] {
		t.Errorf("directory (%.1f cy/op) not cheaper than broadcast (%.1f) at 1024 cores",
			h["coherence.directory_cycles"], h["coherence.broadcast_cycles"])
	}
	// Broadcast probes every remote socket; the directory probes only actual
	// sharers, so its mean fan-out must sit strictly below the snoop bound.
	bound := h["coherence.sharer_bound"]
	if fb := h["coherence.fanout_broadcast"]; fb != bound {
		t.Errorf("broadcast fan-out %.2f, want the socket bound %.0f", fb, bound)
	}
	if fd := h["coherence.fanout_directory"]; fd <= 0 || fd >= bound {
		t.Errorf("directory fan-out %.2f not in (0, %.0f)", fd, bound)
	}
	// Wraparound links shorten routes, so the torus can't be slower.
	if g := h["coherence.torus_gain"]; g < 1 {
		t.Errorf("torus gain %.3f < 1: torus slower than mesh at equal size", g)
	}
}

// The extended MOESI oracle must pass at every swept topology under both
// modes: the shadow directory validates every transition (single owner, no
// stale reads, probe conservation — targeted probes must cover exactly the
// true sharers in directory mode, every remote socket under broadcast
// snooping) and Finish cross-checks the home-node sharer bitmaps.
func TestCoherenceOracleAtEveryTopology(t *testing.T) {
	var machines []*topo.Machine
	for _, k := range []int{2, 3, 4, 6, 8, 12, 16} {
		machines = append(machines, topo.Mesh(k))
	}
	machines = append(machines, topo.Torus(8), topo.Torus(16))
	for _, m := range machines {
		for _, mode := range cohModes {
			t.Run(fmt.Sprintf("%s/%s", m.Name, mode), func(t *testing.T) {
				e := sim.NewEngine(cohSeed)
				defer e.Close()
				sys := cache.New(e, m, memory.New(m), interconnect.New(m))
				sys.SetMode(mode)
				mc := check.NewMOESIChecker()
				mc.Bind(sys)
				sys.SetAudit(mc)
				var res cohRun
				var latSum sim.Time
				spawnCohWorkload(e, sys, 2, &res, &latSum)
				e.Run()
				for _, v := range mc.Finish(sys) {
					t.Error(v.Msg)
				}
				if res.ops == 0 {
					t.Fatal("workload performed no operations")
				}
			})
		}
	}
}

// The sweep must render byte-identically regardless of the point-level host
// parallelism — every point is a hermetic seeded run.
func TestCoherenceDeterminism(t *testing.T) {
	render := func(par int) string {
		old := harness.Parallelism()
		harness.SetParallelism(par)
		defer harness.SetParallelism(old)
		return Coherence(2, 256).Tables[0].Render()
	}
	serial := render(1)
	for _, par := range []int{2, 4} {
		if got := render(par); got != serial {
			t.Fatalf("-parallel %d output differs from serial:\n%s\nvs\n%s", par, got, serial)
		}
	}
}

// BenchmarkDirectoryPinned is the scaled-machine determinism gate consumed
// by ci/traceguard: the contended workload on the 256-core Mesh(8) under
// each coherence mode. simevents/op and simdwords/op (the fabric's total
// dwords: broadcast probes in the broadcast row, unicast routes in both)
// are pure functions of (seed, machine, mode), so every entry is pinned
// exactly in the committed baseline: a schedule divergence in either mode's
// cost model, or a change to what its traffic charges, fails CI.
func BenchmarkDirectoryPinned(b *testing.B) {
	m := topo.Mesh(8)
	for _, mode := range cohModes {
		b.Run(mode.String(), func(b *testing.B) {
			var ev, dw uint64
			for i := 0; i < b.N; i++ {
				e := sim.NewEngine(cohSeed)
				sys := cache.New(e, m, memory.New(m), interconnect.New(m))
				sys.SetMode(mode)
				runCoherence(e, sys, 4)
				ev = e.Metrics().Snapshot().Counters["sim.events_dispatched"]
				dw = sys.Fabric().TotalDwords()
				e.Close()
			}
			b.ReportMetric(float64(ev), "simevents/op")
			b.ReportMetric(float64(dw), "simdwords/op")
		})
	}
}
