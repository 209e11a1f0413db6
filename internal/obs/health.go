// The virtual-time health monitor: a pure consumer of committed windows.
// It never probes the cluster — replication factor and latency quantiles are
// read off the store the aggregation tree already filled, so health judgments
// arrive with the same bounded staleness as every other observation and cost
// no extra messages. A kvcluster server kill therefore surfaces as a degraded
// event within (detector period + op timeout + ~2 sampling intervals): the
// failure detector must notice the silence, the cluster must shrink the ISR
// gauge, and the shrunken level must ride one window up the tree.

package obs

import (
	"sort"
	"strconv"
	"strings"

	"multikernel/internal/sim"
	"multikernel/internal/stats"
	"multikernel/internal/trace"
)

// Health settings: the kvcluster's replication gauges and op latency.
const (
	// replicaPrefix selects the per-shard replication gauges: series named
	// <replicaPrefix><shard>.replicas.
	replicaPrefix = "kv.shard."
	// replicaTarget is the healthy replication factor: a shard whose level
	// drops below it is degraded, at or above it recovered.
	replicaTarget = 2
	// latencyHist names the op-latency histogram whose windowed p99/p999 the
	// monitor derives and commits back as gauge series <latencyHist>.p99 and
	// <latencyHist>.p999.
	latencyHist = "kv.op_cycles"
)

// HealthEventKind distinguishes degraded from recovered transitions.
type HealthEventKind uint8

const (
	ShardDegraded HealthEventKind = iota
	ShardRecovered
)

func (k HealthEventKind) String() string {
	if k == ShardDegraded {
		return "degraded"
	}
	return "recovered"
}

// HealthEvent is one shard health transition, stamped with the window's
// nominal virtual time.
type HealthEvent struct {
	At       uint64
	Shard    int
	Kind     HealthEventKind
	Replicas int64
}

// Health watches committed windows for shard replication drops and derives
// windowed latency quantiles.
type Health struct {
	pl *Plane

	degraded map[int]bool // shard -> currently below target
	events   []HealthEvent
}

// EnableHealth attaches a health monitor to the plane's commit hook and
// returns it. Call before Start.
func (pl *Plane) EnableHealth() *Health {
	h := &Health{pl: pl, degraded: make(map[int]bool)}
	pl.OnCommit(h.check)
	return h
}

// Events returns every transition observed so far, in commit order.
func (h *Health) Events() []HealthEvent { return h.events }

// check runs after window `tick` commits: replica state machine first, then
// windowed quantiles.
func (h *Health) check(p *sim.Proc, tick uint64) {
	at := tick * uint64(h.pl.cfg.Interval)
	st := h.pl.store

	// Shard replica levels. Iterating the store's sorted names keeps event
	// order deterministic when several shards transition in one window.
	for _, name := range st.Names() {
		rest, ok := strings.CutPrefix(name, replicaPrefix)
		if !ok {
			continue
		}
		idx, ok := strings.CutSuffix(rest, ".replicas")
		if !ok {
			continue
		}
		shard, err := strconv.Atoi(idx)
		if err != nil {
			continue
		}
		last, ok := st.Get(name).Last()
		if !ok {
			continue
		}
		below := last.V < replicaTarget
		if below == h.degraded[shard] {
			continue
		}
		h.degraded[shard] = below
		kind, evName := ShardRecovered, "obs.shard.recovered"
		if below {
			kind, evName = ShardDegraded, "obs.shard.degraded"
		}
		h.events = append(h.events, HealthEvent{At: at, Shard: shard, Kind: kind, Replicas: last.V})
		h.pl.eng.Tracer().Emit(at, trace.Instant, trace.SubObs, -1, evName,
			uint64(shard), uint64(last.V))
	}

	// Windowed latency quantiles, rebuilt from the histogram's bucket
	// pseudo-series: a bucket contributed to this window iff its last point
	// landed at this window's nominal time.
	var sum stats.HistogramSummary
	for _, name := range st.Names() {
		rest, ok := strings.CutPrefix(name, latencyHist+".le")
		if !ok {
			continue
		}
		le, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			continue
		}
		last, ok := st.Get(name).Last()
		if !ok || last.At != at || last.V <= 0 {
			continue
		}
		sum.Buckets = append(sum.Buckets, stats.HistBucket{Le: le, Count: uint64(last.V)})
		sum.N += uint64(last.V)
	}
	if sum.N == 0 {
		return // idle window: no ops, no quantile points
	}
	sort.Slice(sum.Buckets, func(i, j int) bool { return sum.Buckets[i].Le < sum.Buckets[j].Le })
	sum.Max = sum.Buckets[len(sum.Buckets)-1].Le
	st.Commit(at, latencyHist+".p99", int64(sum.Quantile(0.99)), true)
	st.Commit(at, latencyHist+".p999", int64(sum.Quantile(0.999)), true)
}
