package check

import (
	"fmt"
	"strconv"
	"strings"

	"multikernel/internal/sim"
)

// Perturbation is one recorded scheduling decision: the event created by
// engine schedule call N (its dispatch sequence number) was delayed by Jitter
// extra cycles and demoted to tie-break class Pri. A run's applied
// perturbation list is a complete, replayable description of how that run
// diverged from the unperturbed schedule — replaying the list on a fresh
// engine with the same seed reproduces the run exactly, which is what makes
// delta-debugging shrinkage (Shrink) possible.
type Perturbation struct {
	N      uint64   // schedule-call sequence number the perturbation applies to
	Jitter sim.Time // extra delay added to the event
	Pri    uint64   // tie-break demotion class (0 = unperturbed)
}

func (pt Perturbation) String() string {
	return fmt.Sprintf("%d:%d:%d", pt.N, pt.Jitter, pt.Pri)
}

// gapMax bounds the spacing between generated perturbations, in schedule
// calls. Spreading a depth-D budget across the run (instead of burning it on
// the first D events, which are all boot-time spawns) is what lets a small
// depth reach interesting interleavings deep in a workload.
const gapMax = 1024

// Perturber drives a sim.Engine's perturbation hook. In generative mode it
// draws seeded random perturbations, recording each one it applies; in replay
// mode it applies exactly a given script. Install with e.SetPerturb(pb.Hook).
type Perturber struct {
	rng       *sim.RNG
	depth     int
	maxJitter sim.Time
	nextAt    uint64
	script    map[uint64]Perturbation // non-nil: replay mode
	applied   []Perturbation
}

// NewPerturber returns a generative perturber that applies at most depth
// perturbations with jitters in [1, maxJitter].
func NewPerturber(seed uint64, depth int, maxJitter sim.Time) *Perturber {
	if maxJitter < 1 {
		maxJitter = 1
	}
	pb := &Perturber{rng: sim.NewRNG(seed ^ 0x7065727475726221), depth: depth, maxJitter: maxJitter}
	pb.nextAt = 1 + pb.rng.Uint64()%gapMax
	return pb
}

// Replay returns a perturber that applies exactly the given script and
// nothing else. An empty (non-nil) script yields an unperturbed run.
func Replay(script []Perturbation) *Perturber {
	m := make(map[uint64]Perturbation, len(script))
	for _, pt := range script {
		m[pt.N] = pt
	}
	return &Perturber{script: m}
}

// Hook is the sim.PerturbFunc to install on the engine under test.
func (pb *Perturber) Hook(now, delay sim.Time, seq uint64) (sim.Time, uint64) {
	if pb.script != nil {
		pt, ok := pb.script[seq]
		if !ok {
			return 0, 0
		}
		pb.applied = append(pb.applied, pt)
		return pt.Jitter, pt.Pri
	}
	if len(pb.applied) >= pb.depth || seq < pb.nextAt {
		return 0, 0
	}
	pb.nextAt = seq + 1 + pb.rng.Uint64()%gapMax
	pt := Perturbation{N: seq}
	switch pb.rng.Uint64() % 3 {
	case 0:
		pt.Jitter = 1 + pb.rng.Time(pb.maxJitter)
	case 1:
		pt.Pri = 1 + pb.rng.Uint64()%7
	default:
		pt.Jitter = 1 + pb.rng.Time(pb.maxJitter)
		pt.Pri = 1 + pb.rng.Uint64()%7
	}
	pb.applied = append(pb.applied, pt)
	return pt.Jitter, pt.Pri
}

// Applied returns the perturbations this perturber actually applied, in
// schedule order. In replay mode entries the run never reached are absent.
func (pb *Perturber) Applied() []Perturbation {
	out := make([]Perturbation, len(pb.applied))
	copy(out, pb.applied)
	return out
}

// FormatScript renders a perturbation list as "N:jitter:pri,...", the form
// mkcheck prints for reproduction and accepts via -replay.
func FormatScript(script []Perturbation) string {
	if len(script) == 0 {
		return "none"
	}
	parts := make([]string, len(script))
	for i, pt := range script {
		parts[i] = pt.String()
	}
	return strings.Join(parts, ",")
}

// ParseScript inverts FormatScript. It accepts only scripts a run can
// produce: each N at least 1 and above the one before it, as the hook meets
// schedule calls in order and each once, and each jitter below sim.Forever,
// so that a replayed wakeup time cannot wrap.
func ParseScript(s string) ([]Perturbation, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return []Perturbation{}, nil
	}
	var out []Perturbation
	for _, part := range strings.Split(s, ",") {
		f := strings.Split(part, ":")
		if len(f) != 3 {
			return nil, fmt.Errorf("check: bad perturbation %q (want N:jitter:pri)", part)
		}
		n, err1 := strconv.ParseUint(f[0], 10, 64)
		j, err2 := strconv.ParseUint(f[1], 10, 64)
		p, err3 := strconv.ParseUint(f[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("check: bad perturbation %q", part)
		}
		if n == 0 || len(out) > 0 && n <= out[len(out)-1].N {
			return nil, fmt.Errorf("check: perturbation %q: N must be at least 1 and above the one before it", part)
		}
		if sim.Time(j) >= sim.Forever {
			return nil, fmt.Errorf("check: perturbation %q: jitter must be below %d", part, sim.Forever)
		}
		out = append(out, Perturbation{N: n, Jitter: sim.Time(j), Pri: p})
	}
	return out, nil
}
