// Package check is the schedule-exploration model checker: it re-runs the
// simulator's workloads under seeded perturbations of the event queue
// (bounded tie-break reordering plus small wake jitter) and randomized fault
// schedules, and validates protocol-level invariants that plain unit tests
// pin only on the default schedule:
//
//   - MOESI coherence (moesi.go): a cache.Audit shadow directory checks
//     single-owner, no-stale-read and probe-conservation on every transition;
//   - URPC transport (transport.go): FIFO exactly-once delivery, no ring-slot
//     reuse before ack, and ack conservation, reconstructed from trace flows;
//   - kvstore linearizability (linearize.go): a Wing & Gong search over the
//     client-observed history extracted from kv.* trace spans.
//
// Every perturbation a run applies is recorded; a failing seed is shrunk by
// delta debugging (Shrink) to a minimal perturbation list that still fails,
// and the list round-trips through FormatScript/ParseScript so a CI failure
// is reproducible with `mkcheck -workloads W -replay S -seed N`.
package check

import (
	"fmt"

	"multikernel/internal/apps"
	"multikernel/internal/cache"
	"multikernel/internal/harness"
	"multikernel/internal/interconnect"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
	"multikernel/internal/urpc"
)

// Violation is one invariant failure found by a checker.
type Violation struct {
	Checker string // "moesi", "transport", "linearize", "liveness", "payload"
	Msg     string
}

func (v Violation) String() string { return v.Checker + ": " + v.Msg }

// RunConfig describes a single checked run.
type RunConfig struct {
	Workload  string
	Seed      uint64
	Depth     int             // max perturbations in generative mode; 0 = unperturbed
	MaxJitter sim.Time        // jitter bound; 0 = default (128 cycles)
	Faults    bool            // arm a seeded fault schedule
	Directory bool            // run under directory coherence instead of broadcast
	Script    []Perturbation  // non-nil: replay exactly this script instead of generating
	Mutate    urpc.Mutation   // plant a known transport defect (checker self-tests)
	KVMut     apps.KVMutation // plant a known replication defect (checker self-tests)
}

// Result is the outcome of one checked run.
type Result struct {
	Workload   string
	Seed       uint64
	Violations []Violation
	Applied    []Perturbation // perturbations actually applied, in schedule order
	Events     int            // trace events recorded (a cheap effort proxy)
	TraceHash  uint64         // FNV-1a over every trace event; equal hashes = identical runs
}

// Failed reports whether the run violated any invariant.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

// DefaultMaxJitter bounds generated wake jitter: large enough to reorder
// same-cycle and near-cycle events, small enough not to distort gross timing.
const DefaultMaxJitter = 128

// RunOne executes one workload on a fresh engine under cfg's perturbations
// and faults, then runs every checker over the audit stream and trace.
func RunOne(cfg RunConfig) Result {
	wl, ok := findWorkload(cfg.Workload)
	if !ok {
		panic(fmt.Sprintf("check: unknown workload %q (have %v)", cfg.Workload, WorkloadNames()))
	}
	if cfg.MaxJitter == 0 {
		cfg.MaxJitter = DefaultMaxJitter
	}

	e := sim.NewEngine(cfg.Seed)
	defer e.Close()
	var pb *Perturber
	if cfg.Script != nil {
		pb = Replay(cfg.Script)
	} else if cfg.Depth > 0 {
		pb = NewPerturber(cfg.Seed, cfg.Depth, cfg.MaxJitter)
	}
	if pb != nil {
		e.SetPerturb(pb.Hook)
	}
	rec := trace.NewRecorder()
	e.SetTracer(rec)

	m := topo.AMD4x4()
	sys := cache.New(e, m, memory.New(m), interconnect.New(m))
	if cfg.Directory {
		sys.SetMode(cache.Directory)
	}
	mc := NewMOESIChecker()
	mc.Bind(sys)
	sys.SetAudit(mc)

	res := Result{Workload: cfg.Workload, Seed: cfg.Seed}
	viol, kvInit := wl.run(e, sys, cfg)
	res.Violations = append(res.Violations, viol...)
	res.Violations = append(res.Violations, mc.Finish(sys)...)
	events := rec.Events()
	res.Events = len(events)
	res.TraceHash = traceHash(events)
	res.Violations = append(res.Violations, CheckTransport(events)...)
	if kvInit != nil {
		res.Violations = append(res.Violations, CheckLinearizable(ExtractKVHistory(events), kvInit)...)
	}
	if pb != nil {
		res.Applied = pb.Applied()
	}
	return res
}

// traceHash folds a full trace into one FNV-1a word. Two runs with equal
// hashes executed the same virtual-time history event for event, which is how
// the tests pin "no perturber installed" and "replay of the empty script" to
// byte-identical behavior.
func traceHash(events []trace.Event) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	for _, ev := range events {
		mix(ev.At)
		mix(ev.ID)
		mix(ev.Arg)
		mix(uint64(ev.Kind)<<32 | uint64(ev.Sub)<<16 | uint64(uint16(ev.Core)))
		for i := 0; i < len(ev.Name); i++ {
			mix(uint64(ev.Name[i]))
		}
	}
	return h
}

// Config describes a sweep: the cross product of workloads and seeds.
type Config struct {
	Workloads []string // nil = all registered workloads
	Seeds     []uint64
	Depth     int
	MaxJitter sim.Time
	Faults    bool
	Directory bool // run every point under directory coherence
}

// Run executes the sweep, one engine per (workload, seed) pair, parallelized
// with harness.Map. Results are in deterministic (workload-major) order
// regardless of parallelism.
func Run(cfg Config) []Result {
	wls := cfg.Workloads
	if len(wls) == 0 {
		wls = WorkloadNames()
	}
	type job struct {
		wl   string
		seed uint64
	}
	var jobs []job
	for _, wl := range wls {
		for _, s := range cfg.Seeds {
			jobs = append(jobs, job{wl, s})
		}
	}
	return harness.Map(len(jobs), func(i int) Result {
		return RunOne(RunConfig{
			Workload:  jobs[i].wl,
			Seed:      jobs[i].seed,
			Depth:     cfg.Depth,
			MaxJitter: cfg.MaxJitter,
			Faults:    cfg.Faults,
			Directory: cfg.Directory,
		})
	})
}

// Shrink minimizes a failing run's perturbation script by delta debugging:
// starting from the full applied list, it re-runs the workload with chunks
// removed, keeping any reduction that still fails, halving the chunk size
// down to single perturbations. The returned script is 1-minimal — removing
// any single remaining perturbation makes the run pass — and is often empty
// when the underlying defect does not actually depend on the perturbations
// (a deterministic bug reached on every schedule).
func Shrink(cfg RunConfig, script []Perturbation) []Perturbation {
	fails := func(s []Perturbation) bool {
		c := cfg
		c.Script = s
		if c.Script == nil {
			c.Script = []Perturbation{}
		}
		return RunOne(c).Failed()
	}
	cur := append([]Perturbation(nil), script...)
	for chunk := len(cur); chunk >= 1; chunk /= 2 {
		for lo := 0; lo+chunk <= len(cur); {
			cand := make([]Perturbation, 0, len(cur)-chunk)
			cand = append(cand, cur[:lo]...)
			cand = append(cand, cur[lo+chunk:]...)
			if fails(cand) {
				cur = cand
			} else {
				lo += chunk
			}
		}
		if chunk == 1 {
			break
		}
	}
	return cur
}
