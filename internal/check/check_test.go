package check

import (
	"reflect"
	"testing"

	"multikernel/internal/apps"
	"multikernel/internal/urpc"
)

func mustPass(t *testing.T, r Result) {
	t.Helper()
	for _, v := range r.Violations {
		t.Errorf("%s seed %d: %s", r.Workload, r.Seed, v)
	}
}

// Every workload must pass all checkers on the default (unperturbed,
// fault-free) schedule.
func TestUnperturbedWorkloadsPass(t *testing.T) {
	for _, name := range WorkloadNames() {
		mustPass(t, RunOne(RunConfig{Workload: name, Seed: 1}))
	}
}

// A short perturbed sweep with faults armed: the protocols must uphold their
// invariants on every explored schedule. This is the in-repo slice of the CI
// mkcheck job.
func TestPerturbedFaultySweepPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, r := range Run(Config{Seeds: []uint64{1, 2, 3}, Depth: 32, Faults: true}) {
		mustPass(t, r)
	}
}

// Replaying a generative run's applied perturbation list must reproduce the
// run exactly — the property the shrinker depends on.
func TestReplayReproducesGenerativeRun(t *testing.T) {
	gen := RunOne(RunConfig{Workload: "urpc", Seed: 7, Depth: 24})
	mustPass(t, gen)
	if len(gen.Applied) == 0 {
		t.Fatal("generative run applied no perturbations; depth budget never spent")
	}
	rep := RunOne(RunConfig{Workload: "urpc", Seed: 7, Script: gen.Applied})
	if rep.TraceHash != gen.TraceHash {
		t.Fatalf("replay diverged: trace hash %#x vs %#x", rep.TraceHash, gen.TraceHash)
	}
	if !reflect.DeepEqual(rep.Applied, gen.Applied) {
		t.Fatalf("replay applied %v, generative run applied %v", rep.Applied, gen.Applied)
	}
}

// The checker must cost nothing when disabled: a run with no perturber
// installed and a run replaying the empty script are byte-identical.
func TestEmptyReplayIsByteIdentical(t *testing.T) {
	for _, name := range WorkloadNames() {
		bare := RunOne(RunConfig{Workload: name, Seed: 5})                          // no hook installed
		empty := RunOne(RunConfig{Workload: name, Seed: 5, Script: []Perturbation{}}) // hook installed, no-op
		if bare.TraceHash != empty.TraceHash || bare.Events != empty.Events {
			t.Errorf("%s: empty-script replay diverged from hook-free run (%d/%#x vs %d/%#x)",
				name, empty.Events, empty.TraceHash, bare.Events, bare.TraceHash)
		}
	}
}

// Acceptance demo: a deliberately planted ack-overpublication defect (the
// receiver publishes progress one message beyond what it consumed) must be
// caught by the transport checker and shrink to a minimal repro of at most 5
// perturbations. The defect fires on every schedule, so the shrinker should
// strip the script to (near) nothing.
func TestAckOverpublishCaughtAndShrunk(t *testing.T) {
	cfg := RunConfig{Workload: "urpc", Seed: 1, Depth: 24, Mutate: urpc.MutAckOverpublish}
	r := RunOne(cfg)
	found := false
	for _, v := range r.Violations {
		if v.Checker == "transport" {
			found = true
		}
	}
	if !found {
		t.Fatalf("transport checker missed the planted ack overpublication; got %v", r.Violations)
	}
	min := Shrink(cfg, r.Applied)
	if len(min) > 5 {
		t.Fatalf("shrunk repro has %d perturbations, want <= 5: %s", len(min), FormatScript(min))
	}
	rep := RunOne(RunConfig{Workload: "urpc", Seed: 1, Script: min, Mutate: urpc.MutAckOverpublish})
	if !rep.Failed() {
		t.Fatal("minimal script no longer reproduces the violation")
	}
}

// The replication ack-drop defect (primary acks the client without
// replicating) must surface as a linearizability violation once the primary
// is killed: the acked write exists on no surviving replica, so post-failover
// reads observe its absence. The shrunk script must still reproduce — this is
// the kv-failover analogue of the transport's ack-overpublication self-test,
// and the proof that the oracle actually guards the no-lost-write claim.
func TestKVFailoverAckDropCaughtAndShrunk(t *testing.T) {
	cfg := RunConfig{Workload: "kvfailover", Seed: 2, Depth: 24, KVMut: apps.KVMutAckDrop}
	r := RunOne(cfg)
	found := false
	for _, v := range r.Violations {
		if v.Checker == "linearize" {
			found = true
		}
	}
	if !found {
		t.Fatalf("linearizability checker missed the planted replication ack drop; got %v", r.Violations)
	}
	min := Shrink(cfg, r.Applied)
	if len(min) > 5 {
		t.Fatalf("shrunk repro has %d perturbations, want <= 5: %s", len(min), FormatScript(min))
	}
	rep := RunOne(RunConfig{Workload: "kvfailover", Seed: 2, Script: min, KVMut: apps.KVMutAckDrop})
	if !rep.Failed() {
		t.Fatal("minimal script no longer reproduces the violation")
	}
}

// A lost parked-receiver wakeup (MutDropNotify) must surface as a liveness
// violation: the receiver parks in a Window receive and the messages it is owed
// never arrive.
func TestDropNotifyCaughtByLiveness(t *testing.T) {
	r := RunOne(RunConfig{Workload: "urpc", Seed: 1, Mutate: urpc.MutDropNotify})
	for _, v := range r.Violations {
		if v.Checker == "liveness" {
			return
		}
	}
	t.Fatalf("lost wakeup not caught; violations: %v", r.Violations)
}

// The perturbation script round-trips through its text form, so a CI failure
// line can be pasted back into mkcheck -replay.
func TestScriptRoundTrip(t *testing.T) {
	in := []Perturbation{{N: 12, Jitter: 90, Pri: 0}, {N: 774, Jitter: 0, Pri: 3}}
	out, err := ParseScript(FormatScript(in))
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %v, err %v", out, err)
	}
	if empty, err := ParseScript("none"); err != nil || len(empty) != 0 || empty == nil {
		t.Fatalf("parsing the empty script: %v, err %v", empty, err)
	}
}
