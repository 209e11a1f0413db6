package expt

import (
	"maps"

	"multikernel/internal/sim"
)

// Config is what one run of the catalogue decides for every experiment.
type Config struct {
	Quick     bool   // shortened sweeps
	FaultSeed uint64 // schedule family of faults, kvfault and obs
	BootImage []byte // warm-start boot image for sim; nil boots one
}

// Result is one experiment's output. Figures print before tables; each
// figure's last points are headline numbers under its Key, and Headline
// holds the experiment's other headline numbers.
type Result struct {
	Figures  []*figure
	Tables   []*table
	Headline map[string]float64
}

// Experiment is one entry of the catalogue.
type Experiment struct {
	Name string
	Run  func(Config) Result
}

// size returns an experiment's full or -quick sweep size.
func (c Config) size(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// iters is the common per-point repetition count; half is its share for the
// costlier agreement-protocol sweeps.
func (c Config) iters() int { return c.size(10, 3) }
func (c Config) half() int  { return max(2, c.iters()/2) }

func figures(fs ...*figure) Result { return Result{Figures: fs} }
func tables(ts ...*table) Result   { return Result{Tables: ts} }

// Experiments is the catalogue mkbench runs, in print order.
var Experiments = []Experiment{
	{"fig3", func(c Config) Result { return figures(Fig3(c.iters())) }},
	{"tab1", func(Config) Result { return tables(Table1(24)) }},
	{"tab2", func(c Config) Result { return tables(Table2(c.iters())) }},
	{"tab3", func(c Config) Result { return tables(Table3(c.iters())) }},
	{"fig6", func(c Config) Result { return figures(Fig6(c.iters())) }},
	{"fig7", func(c Config) Result { return figures(Fig7(c.half())) }},
	{"fig8", func(c Config) Result { return figures(Fig8(c.half())) }},
	{"tab4", func(Config) Result { return tables(Table4()) }},
	{"fig9", func(c Config) Result {
		scale := 1.0
		if c.Quick {
			scale = 0.25
		}
		return figures(Fig9(scale)...)
	}},
	{"sec54", func(c Config) Result {
		return tables(Sec54(c.size(400, 120), sim.Time(c.size(40_000_000, 10_000_000))))
	}},
	{"poll", func(Config) Result { return tables(PollModel(6000)) }},
	{"ablations", func(c Config) Result {
		return tables(AblationPrefetch(c.iters()), AblationShootdownProtocols(c.half()),
			AblationPipelineDepth(c.half()), AblationPollWindow())
	}},
	{"extensions", func(c Config) Result {
		return Result{Figures: []*figure{ExtScaling(c.half())},
			Tables: []*table{ExtSharedReplica(c.half()), ExtRunQueue(40)}}
	}},
	{"faults", func(c Config) Result { return figures(FaultRecovery(c.FaultSeed, 2*c.iters())) }},
	{"kvfault", func(c Config) Result {
		lat, thr, tab := KVFault(c.FaultSeed)
		return Result{Figures: []*figure{lat, thr}, Tables: []*table{tab}}
	}},
	// obs and coherence keep exact headline values for their tests; the
	// catalogue rounds the fractional ones to three decimals for the JSON.
	{"obs", func(c Config) Result {
		r := Obs(c.FaultSeed)
		r.Headline["obs.msgs_per_window"] = round3(r.Headline["obs.msgs_per_window"])
		return r
	}},
	{"coherence", func(c Config) Result {
		r := Coherence(c.size(6, 3), c.size(1024, 256))
		for k, v := range r.Headline {
			r.Headline[k] = round3(v)
		}
		return r
	}},
	{"urpcv2", func(c Config) Result {
		return Result{Figures: []*figure{URPCv2Depth(30 * c.iters()), URPCv2Size(3 * c.iters())},
			Tables: []*table{URPCv2Table(30 * c.iters())}}
	}},
	{"boot", func(c Config) Result { return BootParallelBench(c.size(24, 6), []int{2, 4}) }},
	{"sim", func(c Config) Result {
		res := engineBench(c.size(4000, 600), []int{2, 4, 8})
		warm := warmStart(c.size(8, 4), c.BootImage)
		res.Tables = append(res.Tables, warm.Tables...)
		maps.Copy(res.Headline, warm.Headline)
		return res
	}},
}

func round3(s float64) float64 { return float64(int64(s*1000+0.5)) / 1000 }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
