package core

import (
	"fmt"
	"testing"

	"multikernel/internal/interconnect"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// engineCase is one configuration of the dual-engine test sweep: the engine
// procs spawn on, the booted system, and the run function that drives the
// workload to completion (Engine.Run serially; ParallelEngine.Run through the
// epoch loop under the one-partition parallel boot).
type engineCase struct {
	e   *sim.Engine
	s   *System
	run func()
}

// forEachEngine runs a test body under the serial reference engine and under
// BootParallel on a single-partition ParallelEngine. A single partition keeps
// driver-style tests valid — one proc may touch any core's state, exactly as
// under the serial engine — and runs the workload through the parallel
// engine's epoch loop (one epoch: a lone partition's lookahead is unbounded).
// No worker goroutine starts at one partition: the budgets of 2 and 4 clamp
// to 1, so those legs check that a surplus budget changes nothing.
// Multi-partition behaviour, where every proc must live in the replica owning
// its core, is covered by parallel_test.go and the expt boot workloads.
func forEachEngine(t *testing.T, m *topo.Machine, fn func(t *testing.T, ec engineCase)) {
	forEachEngineOpts(t, m, Options{}, fn)
}

// forEachEngineOpts is forEachEngine with explicit boot options (coherence
// mode, shared replicas), for sweeps that vary system configuration.
func forEachEngineOpts(t *testing.T, m *topo.Machine, opts Options, fn func(t *testing.T, ec engineCase)) {
	t.Run("serial", func(t *testing.T) {
		e := sim.NewEngine(1)
		t.Cleanup(e.Close)
		fn(t, engineCase{e: e, s: BootWith(e, m, opts), run: e.Run})
	})
	for _, w := range []int{1, 2, 4} {
		w := w
		t.Run(fmt.Sprintf("parallel_w%d", w), func(t *testing.T) {
			pm := topo.Partition(m, 1)
			pe := sim.NewParallelEngine(1, interconnect.Lookahead(m, pm), 1, w)
			t.Cleanup(pe.Close)
			ps := BootParallel(pe, m, opts)
			fn(t, engineCase{e: pe.Part(0), s: ps.Parts[0], run: pe.Run})
		})
	}
}
