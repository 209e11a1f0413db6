package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"multikernel/internal/metrics"
	"multikernel/internal/sim"
	"multikernel/internal/trace"
)

// Run shape. Set-up (machine build, boot, application set-up and the warm-up
// window) is repeated defaultSetups times and its median reported, so work
// moved into set-up shows; the last instance built is the one measured. The
// measured window is nSlices equal virtual-time slices driven with RunUntil —
// the engines guarantee that RunUntil staging never changes results — and
// it is sized in virtual cycles, so every commit simulates identical work.
// After the fixed window, further slices run until the host-time budget is
// spent; they feed only the host-time medians.
const (
	defaultSetups = 5
	nSlices       = 10
)

// Host-speed correction. On a shared virtual machine the host's speed for
// this simulator's work (goroutine hand-offs, cache-missing data structures)
// drifts by tens of percent over minutes while the simulated work stays
// fixed. Before each timed stretch the benchmark therefore times a reference
// task of its own, a goroutine ping-pong (the simulator's hottest host
// pattern), and scales the stretch's host seconds by the task's reference
// time over the time just measured. A corrected metric reads what the
// reference runner would have measured. The reference task is benchmark
// code, so no change to the simulator can move it.
const (
	calRoundTrips = 20_000
	calRefS       = 0.0095 // the task's host seconds on the 2-core runner of results/
)

// speedFactor times the reference task and returns the factor that
// converts host seconds measured now into reference-runner seconds.
func speedFactor() float64 {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	t0 := time.Now()
	for i := 0; i < calRoundTrips; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong
	return calRefS / time.Since(t0).Seconds()
}

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64 // host-time budget of the measured phase
	traced  bool    // add the traced pass and report per-layer metrics
	scale   float64 // multiplies every workload window (the smoke test shrinks them)
	setups  int
}

// window is a workload's measured virtual-time window [lo, hi) and its slice.
type window struct {
	lo, hi, slice sim.Time
}

// opRec records one load proc's operations of one class. It is written only
// by its own proc (or engine callbacks of the proc's partition), and read by
// the measuring loop between RunUntil calls.
type opRec struct {
	write        bool
	done, failed uint64
	win          window
	lat          map[sim.Time]uint64 // latencies of ops completed inside the window
}

func newOpRec(write bool, win window) *opRec {
	return &opRec{write: write, win: win, lat: map[sim.Time]uint64{}}
}

// add records an operation that started at start and completed at end; a
// failed operation counts toward failed and contributes no latency.
func (r *opRec) add(start, end sim.Time, ok bool) {
	if !ok {
		r.failed++
		return
	}
	r.done++
	if end >= r.win.lo && end < r.win.hi {
		r.lat[end-start]++
	}
}

// instance is one built workload: a machine with its load procs spawned.
type instance struct {
	engines  []*sim.Engine       // partition engines; one for the serial engine
	pe       *sim.ParallelEngine // nil on the serial engine
	clockGHz float64
	recs     []*opRec
	bootS    float64                  // host seconds inside the boot call
	extra    func() map[string]uint64 // counters kept outside the registries, or nil

	stop    func()      // asks every load proc to exit after its current op
	stopped func() bool // every load proc has exited
	// verify runs after the load procs exited: it checks final state and
	// returns one message per failed check.
	verify func() []string
}

func (in *instance) runUntil(t sim.Time) {
	if in.pe != nil {
		in.pe.RunUntil(t)
		return
	}
	in.engines[0].RunUntil(t)
}

func (in *instance) now() sim.Time { return in.engines[0].Now() }

func (in *instance) close() {
	if in.pe != nil {
		in.pe.Close()
		return
	}
	in.engines[0].Close()
}

// settle runs the engine in steps of d until cond holds, for at most limit
// steps, and reports whether it held.
func (in *instance) settle(d sim.Time, limit int, cond func() bool) bool {
	for i := 0; i < limit && !cond(); i++ {
		in.runUntil(in.now() + d)
	}
	return cond()
}

// counters flattens the merged registries (histograms as .n/.sum pairs) plus
// the instance's extra counters.
func (in *instance) counters() map[string]uint64 {
	var snap metrics.Snapshot
	if in.pe != nil {
		snap = in.pe.MetricsSnapshot()
	} else {
		snap = in.engines[0].Metrics().Snapshot()
	}
	out := make(map[string]uint64, len(snap.Counters)+2*len(snap.Histograms))
	for k, v := range snap.Counters {
		out[k] = v
	}
	for k, h := range snap.Histograms {
		out[k+".n"] = h.N
		out[k+".sum"] = h.Sum
	}
	if in.extra != nil {
		for k, v := range in.extra() {
			out[k] = v
		}
	}
	return out
}

func (in *instance) doneOps() (done, failed uint64) {
	for _, r := range in.recs {
		done += r.done
		failed += r.failed
	}
	return done, failed
}

// Record is one run's result.
type Record struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  uint64            `json:"attempted"`
	Failed     uint64            `json:"failed"`
	GoMaxProcs int               `json:"gomaxprocs"`
	WindowS    float64           `json:"window_s"` // host seconds of the fixed window
	Slices     int               `json:"slices"`   // slices measured, fixed window included
	Errors     []string          `json:"errors,omitempty"`
	Metrics    map[string]Metric `json:"metrics"`
}

// Metric is one measured value; N is the sample count behind a percentile.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     uint64  `json:"n,omitempty"`
}

func (r *Record) set(name string, v float64) {
	r.Metrics[name] = Metric{Value: v, Unit: unitOf(name)}
}

func (r *Record) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// pass is what one measured pass over a built instance yields.
type pass struct {
	ops       uint64            // ops completed inside the fixed window
	attempted uint64            // ops completed or failed over the whole pass
	failed    uint64            // failed ops over the whole pass
	slices    []float64         // host seconds of every slice, fixed window first
	scaled    []float64         // the same, speed-corrected (untraced pass only)
	factors   []float64         // speed-correction factor of each slice
	rssMB     float64           // peak RSS at the end of the fixed window
	delta     map[string]uint64 // counter deltas over the fixed window
	partEv    []uint64          // per-partition events over the fixed window
	heapMax   int64             // deepest event heap of any partition
	allocB    float64           // Go heap bytes allocated over the fixed window
	gcFrac    float64           // share of Go CPU time spent in GC over the fixed window
	virt      map[string]Metric
	tr        *attributor // traced pass only
	profile   []byte      // traced pass only: CPU profile of the fixed window
}

// run performs one complete run of workload w: set-ups, the measured pass,
// output checks, and with cfg.traced the traced pass.
func run(w *workload, cfg config) *Record {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	rec := &Record{Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, GoMaxProcs: w.procs, Metrics: map[string]Metric{}}
	win := w.window(cfg.scale)

	var inst *instance
	var rawSetupS, setupS, bootS, warmS []float64
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			inst.close()
			runtime.GC() // peak RSS should reflect one instance, not the discarded ones
		}
		f := speedFactor()
		var s0 float64
		inst, s0 = setUp(w, cfg.seed, win)
		rawSetupS = append(rawSetupS, s0)
		setupS = append(setupS, s0*f)
		bootS = append(bootS, inst.bootS*f)
		warmS = append(warmS, (s0-inst.bootS)*f)
	}
	p := measure(inst, win, cfg.seconds, false)
	rec.Errors = append(rec.Errors, finish(inst, win)...)
	inst.close()

	rec.Attempted, rec.Failed = p.attempted, p.failed
	rec.Slices = len(p.slices)
	for _, s := range p.slices[:nSlices] {
		rec.WindowS += s
	}
	rec.set("speed_factor", median(p.factors))
	rec.set("setup_s", median(setupS))
	rec.set("setup_s_raw", median(rawSetupS))
	rec.set("setup.boot_s", median(bootS))
	rec.set("setup.warmup_s", median(warmS))
	rec.set("rss_mb", p.rssMB)
	nk := float64(nSlices)
	rawRate := float64(p.ops) / nk / median(p.slices)
	rec.set("host_ops_per_s", float64(p.ops)/nk/median(p.scaled))
	rec.set("host_ops_per_s_raw", rawRate)
	rec.set("sim.events_per_host_s", float64(p.delta["sim.events_dispatched"])/nk/median(p.scaled))
	for k, v := range p.virt {
		rec.Metrics[k] = v
	}
	layerCounts(rec, p)

	if cfg.traced {
		tinst, _ := setUp(w, cfg.seed, win)
		tp := measure(tinst, win, 0, true)
		rec.Errors = append(rec.Errors, finish(tinst, win)...)
		tinst.close()
		rec.Attempted += tp.attempted
		rec.Failed += tp.failed
		// Tracing must be invisible to the model: every virtual-clock
		// result and every model counter of the traced pass equals the
		// untraced pass bit for bit.
		for k, v := range p.virt {
			if tv := tp.virt[k]; tv != v {
				rec.fail("traced pass changed %s: %v untraced, %v traced", k, v, tv)
			}
		}
		for k, v := range p.delta {
			if tv := tp.delta[k]; tv != v {
				rec.fail("traced pass changed counter %s: %d untraced, %d traced", k, v, tv)
			}
		}
		tracedLayers(rec, tp, rawRate, float64(tp.ops)/nk/median(tp.slices))
	}

	if len(rec.Errors) > 0 {
		// A failed final check is a failed operation the per-op checks could
		// not see; count it so failed_frac reflects it.
		rec.Failed += uint64(len(rec.Errors))
		rec.Attempted += uint64(len(rec.Errors))
	}
	rec.Correct = rec.Failed == 0
	if rec.Attempted > 0 {
		rec.set("failed_frac", float64(rec.Failed)/float64(rec.Attempted))
	}
	return rec
}

// setUp builds the workload and runs its warm-up window, returning the
// instance and the host seconds the whole set-up took.
func setUp(w *workload, seed uint64, win window) (*instance, float64) {
	t0 := time.Now()
	inst := w.build(seed, win)
	inst.runUntil(win.lo)
	return inst, time.Since(t0).Seconds()
}

// finish stops the load, lets in-flight operations complete and runs the
// workload's final-state checks.
func finish(inst *instance, win window) []string {
	inst.stop()
	if !inst.settle(win.slice/10, 1000, inst.stopped) {
		return []string{"load procs did not stop"}
	}
	return inst.verify()
}

// measure drives the measured window slice by slice. Snapshots bracket the
// fixed window; with budget > 0 further slices run until the pass has spent
// budget host seconds. The untraced pass times the reference task before
// each slice; the traced pass does not, so the CPU profile holds only the
// simulation.
func measure(inst *instance, win window, budget float64, traced bool) pass {
	var p pass
	var recs []*trace.Recorder
	var prof bytes.Buffer
	if traced {
		p.tr = newAttributor()
		for _, e := range inst.engines {
			r := trace.NewRecorder()
			e.SetTracer(r)
			recs = append(recs, r)
		}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "mkperf: no CPU profile, host shares read 0:", err)
		}
	}
	done0, failed0 := inst.doneOps()
	before := inst.counters()
	partBefore := partEvents(inst)
	rt0 := readRuntime()
	start := time.Now()
	for k := 1; ; k++ {
		t := win.lo + sim.Time(k)*win.slice
		f := 0.0
		if !traced {
			f = speedFactor()
		}
		s0 := time.Now()
		inst.runUntil(t)
		secs := time.Since(s0).Seconds()
		p.slices = append(p.slices, secs)
		if traced {
			for _, r := range recs {
				p.tr.add(r.Events())
				r.Reset()
			}
			p.tr.flush(uint64(t))
		} else {
			p.factors = append(p.factors, f)
			p.scaled = append(p.scaled, secs*f)
		}
		if k == nSlices {
			// Read before the extension, whose length depends on host
			// speed: the simulator's state grows with simulated work.
			p.rssMB = peakRSSMB()
			rt1 := readRuntime()
			if traced {
				pprof.StopCPUProfile()
				p.profile = prof.Bytes()
				p.tr.flushAll()
			}
			after := inst.counters()
			p.delta = make(map[string]uint64, len(after))
			for name, v := range after {
				p.delta[name] = v - before[name]
			}
			partAfter := partEvents(inst)
			for i := range partAfter {
				p.partEv = append(p.partEv, partAfter[i]-partBefore[i])
			}
			for _, e := range inst.engines {
				if g := e.Metrics().Gauge("sim.heap_max_depth").Value(); g > p.heapMax {
					p.heapMax = g
				}
			}
			p.allocB = rt1.allocs - rt0.allocs
			if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
				p.gcFrac = (rt1.gcCPU - rt0.gcCPU) / cpu
			}
			p.virt, p.ops = virtualMetrics(inst, win)
		}
		if k >= nSlices && (traced || time.Since(start).Seconds() >= budget) {
			break
		}
	}
	if traced {
		for _, e := range inst.engines {
			e.SetTracer(nil)
		}
	}
	done1, failed1 := inst.doneOps()
	p.failed = failed1 - failed0
	p.attempted = done1 - done0 + p.failed
	return p
}

func partEvents(inst *instance) []uint64 {
	out := make([]uint64, len(inst.engines))
	for i, e := range inst.engines {
		out[i] = e.Metrics().Snapshot().Counters["sim.events_dispatched"]
	}
	return out
}

// virtualMetrics computes the virtual-clock results of the fixed window:
// throughput at the machine clock, the mean latency, the tail latency (the
// mean of the slowest tailShare of ops) and latency percentiles, overall
// and per op class. They depend only on the seed.
func virtualMetrics(inst *instance, win window) (map[string]Metric, uint64) {
	all := map[sim.Time]uint64{}
	class := [2]map[sim.Time]uint64{{}, {}}
	for _, r := range inst.recs {
		c := 0
		if r.write {
			c = 1
		}
		for l, n := range r.lat {
			all[l] += n
			class[c][l] += n
		}
	}
	out := map[string]Metric{}
	ops := countOf(all)
	seconds := float64(win.hi-win.lo) / (inst.clockGHz * 1e9)
	out["vops_per_s"] = Metric{Value: float64(ops) / seconds, Unit: unitOf("vops_per_s")}
	if ops > 0 {
		mean, tail := means(all)
		out["mean_cycles"] = Metric{Value: mean, Unit: "cycles", N: ops}
		out["tail_cycles"] = Metric{Value: tail, Unit: "cycles", N: ops}
	}
	pct := func(prefix string, h map[sim.Time]uint64) {
		n := countOf(h)
		if n == 0 {
			return
		}
		out[prefix+"p50_cycles"] = Metric{Value: float64(percentile(h, 0.50)), Unit: "cycles", N: n}
		out[prefix+"p95_cycles"] = Metric{Value: float64(percentile(h, 0.95)), Unit: "cycles", N: n}
	}
	pct("", all)
	pct("read_", class[0])
	pct("write_", class[1])
	return out, ops
}

func countOf(h map[sim.Time]uint64) uint64 {
	var n uint64
	for _, c := range h {
		n += c
	}
	return n
}

// tailShare is the share of slowest ops tail_cycles averages: the top 5%,
// which holds at least 10 samples on every workload's window.
const tailShare = 0.05

// latencies returns a histogram's distinct latencies in ascending order.
func latencies(h map[sim.Time]uint64) []sim.Time {
	keys := make([]sim.Time, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// means returns a latency histogram's mean and the mean of its slowest
// tailShare of samples.
func means(h map[sim.Time]uint64) (mean, tail float64) {
	keys := latencies(h)
	n := countOf(h)
	want := uint64(math.Ceil(tailShare * float64(n)))
	var sum, tailSum float64
	var taken uint64
	for i := len(keys) - 1; i >= 0; i-- {
		k, c := keys[i], h[keys[i]]
		sum += float64(k) * float64(c)
		if taken < want {
			t := min(c, want-taken)
			tailSum += float64(k) * float64(t)
			taken += t
		}
	}
	return sum / float64(n), tailSum / float64(taken)
}

// percentile returns the nearest-rank q-quantile of a latency histogram.
func percentile(h map[sim.Time]uint64, q float64) sim.Time {
	keys := latencies(h)
	rank := uint64(math.Ceil(q * float64(countOf(h))))
	var seen uint64
	for _, k := range keys {
		seen += h[k]
		if seen >= rank {
			return k
		}
	}
	return keys[len(keys)-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

type runtimeStats struct{ allocs, gcCPU, totalCPU float64 }

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]rtmetrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	return runtimeStats{
		allocs:   float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// peakRSSMB is the process's peak resident set, from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
