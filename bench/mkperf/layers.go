package main

import (
	"sort"
	"strings"

	"multikernel/internal/trace"
)

// spec describes one reported metric.
type spec struct {
	name, unit string
	higher     bool    // higher is better
	bound      float64 // end-to-end only: share of the baseline median it may worsen by
	// virtual marks quantities of the virtual clock or of the model's own
	// counters: they depend only on the seed, so a simulator-only change
	// must leave them bit-identical.
	virtual bool
}

// endToEnd are the metrics a user of the simulator sees; BENCHMARK.json
// lists the same names, units, directions and bounds.
var endToEnd = []spec{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "host_ops_per_s", unit: "1/s", higher: true, bound: 0.20},
	{name: "rss_mb", unit: "MB", bound: 0.15},
	{name: "vops_per_s", unit: "1/s", higher: true, bound: 0.02, virtual: true},
	{name: "mean_cycles", unit: "cycles", bound: 0.02, virtual: true},
	{name: "tail_cycles", unit: "cycles", bound: 0.02, virtual: true},
}

// extras are reported by every run but BENCHMARK.json does not list them:
// the failure share (always 0 on a correct run), the host metrics before
// speed correction with the correction factor, and latency percentiles,
// overall and by op class where the workload has both classes. The
// percentiles sit on the few distinct latencies a deterministic model
// produces, so on some workloads they read the same for every seed; the
// gated metrics are the mean and the tail mean instead.
var extras = []spec{
	{name: "failed_frac", unit: "frac"},
	{name: "host_ops_per_s_raw", unit: "1/s", higher: true},
	{name: "setup_s_raw", unit: "s"},
	{name: "speed_factor", unit: "ratio", higher: true},
	{name: "p50_cycles", unit: "cycles", virtual: true},
	{name: "p95_cycles", unit: "cycles", virtual: true},
	{name: "read_p50_cycles", unit: "cycles", virtual: true},
	{name: "read_p95_cycles", unit: "cycles", virtual: true},
	{name: "write_p50_cycles", unit: "cycles", virtual: true},
	{name: "write_p95_cycles", unit: "cycles", virtual: true},
}

// hostBuckets are the package groups a traced run's CPU profile is split
// into; every other package lands in "other".
var hostBuckets = []string{"sim", "cache", "interconnect", "memory", "urpc", "monitor", "apps", "netstack", "trace", "runtime", "other"}

// perLayer are the per-layer metrics, per op over the fixed window unless
// the name says otherwise. README.md maps each to the end-to-end metric and
// workload it should move.
var perLayer = func() []spec {
	s := []spec{
		{name: "sim.events_per_op", unit: "count", virtual: true},
		{name: "sim.proc_wakes_per_op", unit: "count", virtual: true},
		{name: "sim.events_per_host_s", unit: "1/s", higher: true},
		{name: "sim.heap_max_depth", unit: "count", virtual: true},
		{name: "sim.partition_balance", unit: "frac", higher: true, virtual: true},
		{name: "cache.hit_ratio", unit: "frac", higher: true, virtual: true},
		{name: "cache.misses_per_op", unit: "count", virtual: true},
		{name: "cache.remote_fills_per_op", unit: "count", virtual: true},
		{name: "cache.invalidations_per_op", unit: "count", virtual: true},
		{name: "cache.fill_cycles_mean", unit: "cycles", virtual: true},
		{name: "cache.probe_fanout_mean", unit: "count", virtual: true},
		{name: "interconnect.dwords_per_op", unit: "count", virtual: true},
		{name: "interconnect.hot_link_share", unit: "frac", virtual: true},
		{name: "urpc.msgs_per_op", unit: "count", virtual: true},
		{name: "urpc.full_stalls_per_op", unit: "count", virtual: true},
		{name: "urpc.poll_yield", unit: "frac", higher: true, virtual: true},
		{name: "urpc.bulk_lines_per_op", unit: "count", virtual: true},
		{name: "monitor.handled_per_op", unit: "count", virtual: true},
		{name: "monitor.op_cycles_mean", unit: "cycles", virtual: true},
		{name: "monitor.aborts_per_op", unit: "count", virtual: true},
		{name: "kv.op_cycles_mean", unit: "cycles", virtual: true},
		{name: "kv.shed_per_op", unit: "count", virtual: true},
		{name: "net.rx_frames_per_req", unit: "count", virtual: true},
		{name: "net.tx_frames_per_req", unit: "count", virtual: true},
		{name: "net.rx_dropped_per_req", unit: "count", virtual: true},
		{name: "setup.boot_s", unit: "s"},
		{name: "setup.warmup_s", unit: "s"},
		{name: "host.alloc_bytes_per_op", unit: "B"},
		{name: "host.gc_cpu_frac", unit: "frac"},
		{name: "vcyc.urpc_per_op", unit: "cycles", virtual: true},
		{name: "vcyc.monitor_per_op", unit: "cycles", virtual: true},
		{name: "vcyc.cache_fill_per_op", unit: "cycles", virtual: true},
		{name: "trace.events_per_op", unit: "count", virtual: true},
		{name: "trace.overhead_frac", unit: "frac"},
	}
	for _, b := range hostBuckets {
		s = append(s, spec{name: "host." + b + "_frac", unit: "frac"})
	}
	return s
}()

func allSpecs() []spec {
	return append(append(append([]spec{}, endToEnd...), extras...), perLayer...)
}

func specOf(name string) (spec, bool) {
	for _, s := range allSpecs() {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func unitOf(name string) string {
	s, _ := specOf(name)
	return s.unit
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts derives the untraced per-layer metrics from the fixed
// window's counter deltas.
func layerCounts(rec *Record, p pass) {
	d := func(name string) float64 { return float64(p.delta[name]) }
	ops := float64(p.ops)
	perOp := func(metric, counter string) { rec.set(metric, ratio(d(counter), ops)) }
	mean := func(metric, hist string) { rec.set(metric, ratio(d(hist+".sum"), d(hist+".n"))) }

	perOp("sim.events_per_op", "sim.events_dispatched")
	perOp("sim.proc_wakes_per_op", "sim.proc_wakes")
	rec.set("sim.heap_max_depth", float64(p.heapMax))
	var total, most uint64
	for _, n := range p.partEv {
		total += n
		if n > most {
			most = n
		}
	}
	rec.set("sim.partition_balance", ratio(float64(total), float64(len(p.partEv))*float64(most)))

	rec.set("cache.hit_ratio", ratio(d("cache.hits"), d("cache.hits")+d("cache.misses")))
	perOp("cache.misses_per_op", "cache.misses")
	perOp("cache.remote_fills_per_op", "cache.remote_fills")
	perOp("cache.invalidations_per_op", "cache.invalidations")
	mean("cache.fill_cycles_mean", "cache.fill_cycles")
	mean("cache.probe_fanout_mean", "cache.probe_fanout")

	perOp("interconnect.dwords_per_op", "interconnect.dwords_total")
	var hot float64
	for name, v := range p.delta {
		if strings.HasPrefix(name, "interconnect.link.") && float64(v) > hot {
			hot = float64(v)
		}
	}
	rec.set("interconnect.hot_link_share", ratio(hot, d("interconnect.dwords_total")))

	perOp("urpc.msgs_per_op", "urpc.sent")
	perOp("urpc.full_stalls_per_op", "urpc.full_stalls")
	rec.set("urpc.poll_yield", ratio(d("urpc.received"), d("urpc.received")+d("urpc.retries")))
	perOp("urpc.bulk_lines_per_op", "urpc.bulk_lines")

	perOp("monitor.handled_per_op", "monitor.handled")
	mean("monitor.op_cycles_mean", "monitor.op_cycles")
	perOp("monitor.aborts_per_op", "monitor.aborts")

	mean("kv.op_cycles_mean", "kv.op_cycles")
	perOp("kv.shed_per_op", "kv.cluster.shed")

	perOp("net.rx_frames_per_req", "nic.rx_frames")
	perOp("net.tx_frames_per_req", "nic.tx_frames")
	perOp("net.rx_dropped_per_req", "nic.rx_dropped")

	rec.set("host.alloc_bytes_per_op", ratio(p.allocB, ops))
	rec.set("host.gc_cpu_frac", p.gcFrac)
}

// tracedLayers adds the metrics only a traced pass yields: virtual self
// cycles per layer from the trace spans, the CPU profile split by package,
// and the cost of tracing itself (from uncorrected rates: the traced pass
// runs no reference task).
func tracedLayers(rec *Record, tp pass, untracedRate, tracedRate float64) {
	ops := float64(tp.ops)
	rec.set("vcyc.urpc_per_op", ratio(float64(tp.tr.self[layURPC]), ops))
	rec.set("vcyc.monitor_per_op", ratio(float64(tp.tr.self[layMonitor]), ops))
	rec.set("vcyc.cache_fill_per_op", ratio(float64(tp.tr.fill), ops))
	rec.set("trace.events_per_op", ratio(float64(tp.tr.events), ops))
	rec.set("trace.overhead_frac", 1-ratio(tracedRate, untracedRate))
	shares, err := profileShares(tp.profile)
	if err != nil {
		rec.fail("cpu profile: %v", err)
	}
	for _, b := range hostBuckets {
		rec.set("host."+b+"_frac", shares[b])
	}
}

// Layers of virtual self time, innermost last: a core's time inside a URPC
// span is URPC's, and its time inside a monitor span but outside any URPC
// span is the monitor's.
const (
	layMonitor = iota
	layURPC
	nLayers
)

// edge is one span boundary on one core's timeline.
type edge struct {
	at    uint64
	core  int32
	layer int8
	open  bool
}

// coreLine is the sweep state of one core: open-span depth per layer and the
// time up to which it has been attributed.
type coreLine struct {
	depth [nLayers]int32
	last  uint64
}

// attributor turns trace events into per-layer virtual self cycles. Events
// arrive slice by slice; boundaries are held back for attributeMargin cycles
// because URPC receive spans open retroactively (their Begin carries the
// poll's start time, emitted after the poll completed).
type attributor struct {
	pending []edge
	cores   map[int32]*coreLine
	self    [nLayers]uint64
	fill    uint64 // sum of cache fill latencies
	events  uint64
}

const attributeMargin = 100_000

func newAttributor() *attributor { return &attributor{cores: map[int32]*coreLine{}} }

func (a *attributor) add(evs []trace.Event) {
	a.events += uint64(len(evs))
	for _, ev := range evs {
		switch {
		case ev.Sub == trace.SubURPC && (ev.Kind == trace.Begin || ev.Kind == trace.End):
			a.pending = append(a.pending, edge{ev.At, ev.Core, layURPC, ev.Kind == trace.Begin})
		case ev.Sub == trace.SubMonitor && (ev.Kind == trace.AsyncBegin || ev.Kind == trace.AsyncEnd):
			a.pending = append(a.pending, edge{ev.At, ev.Core, layMonitor, ev.Kind == trace.AsyncBegin})
		case ev.Sub == trace.SubCache && ev.Kind == trace.Instant && strings.HasPrefix(ev.Name, "cache.fill_"):
			a.fill += ev.Arg
		}
	}
}

// flush attributes every boundary before sliceEnd-attributeMargin.
func (a *attributor) flush(sliceEnd uint64) {
	if sliceEnd < attributeMargin {
		return
	}
	a.sweep(sliceEnd - attributeMargin)
}

// flushAll attributes every remaining boundary.
func (a *attributor) flushAll() { a.sweep(^uint64(0)) }

func (a *attributor) sweep(cutoff uint64) {
	sort.SliceStable(a.pending, func(i, j int) bool { return a.pending[i].at < a.pending[j].at })
	i := 0
	for ; i < len(a.pending) && a.pending[i].at < cutoff; i++ {
		e := a.pending[i]
		cl := a.cores[e.core]
		if cl == nil {
			cl = &coreLine{last: e.at}
			a.cores[e.core] = cl
		}
		if e.at > cl.last {
			for l := nLayers - 1; l >= 0; l-- {
				if cl.depth[l] > 0 {
					a.self[l] += e.at - cl.last
					break
				}
			}
			cl.last = e.at
		}
		switch {
		case e.open:
			cl.depth[e.layer]++
		case cl.depth[e.layer] > 0: // an End whose Begin preceded the trace is dropped
			cl.depth[e.layer]--
		}
	}
	a.pending = append(a.pending[:0], a.pending[i:]...)
}
