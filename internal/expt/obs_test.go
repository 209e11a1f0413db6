package expt

import (
	"strings"
	"testing"

	"multikernel/internal/harness"
)

// TestObsDeterminism pins the observability plane's byte-identity contract:
// the full obs sweep — including the sha256 of every point's committed
// time-series store JSON, rendered into the table — must be identical
// whether points run serially or across the worker pool. A single reordered
// sample, window or committed byte anywhere changes a hash and fails this.
func TestObsDeterminism(t *testing.T) {
	render := func(par int) string {
		old := harness.Parallelism()
		harness.SetParallelism(par)
		defer harness.SetParallelism(old)
		return Obs(42).Tables[0].Render()
	}
	serial := render(1)
	if !strings.Contains(serial, "true") {
		t.Fatalf("obs sweep reported no exact-fidelity point:\n%s", serial)
	}
	for _, par := range []int{2, 4} {
		if got := render(par); got != serial {
			t.Fatalf("parallelism %d changed the obs sweep output\nserial:\n%s\npar:\n%s",
				par, serial, got)
		}
	}
}

// TestObsHeadline sanity-checks the numbers mkbench exports to
// BENCH_obs.json: the disabled plane is exactly free, live sampling keeps
// exact counter fidelity, and the health monitor catches the server kill
// within its documented bound at the finest interval.
func TestObsHeadline(t *testing.T) {
	h := Obs(42).Headline
	if h["obs.zero_overhead_disabled"] != 1 {
		t.Error("disabled plane perturbed the client run")
	}
	if h["obs.fidelity_exact"] != 1 {
		t.Error("a live point lost counter fidelity")
	}
	if h["obs.detect_within_bound"] != 1 {
		t.Errorf("kill not detected within bound: detect %.0f, bound %.0f",
			h["obs.detect_cycles"], h["obs.detect_bound_cycles"])
	}
	if h["obs.windows"] == 0 || h["obs.msgs_per_window"] <= 0 {
		t.Errorf("no sampling traffic recorded: windows %.0f, msgs/win %.1f",
			h["obs.windows"], h["obs.msgs_per_window"])
	}
}
