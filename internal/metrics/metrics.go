// Package metrics is the typed per-subsystem counter and histogram registry
// of the simulator. One Registry belongs to one sim.Engine (the package does
// not import internal/sim, so the engine can embed a Registry without an
// import cycle), and everything an engine touches — URPC channels, the cache
// system, the interconnect fabric, monitors, the fault injector — registers
// its counters there under dotted names ("urpc.timeouts",
// "interconnect.link.0-1.dwords").
//
// Accumulation convention: a Registry and its counters are engine-confined
// state, exactly like the simulation models that update them. The engine
// guarantees at most one proc (or engine callback) runs at a time with a
// happens-before edge at every coroutine switch, so counters use plain
// non-atomic increments — race-free under -race, and free of hot-path atomic
// traffic. The only cross-goroutine boundary is the global capture
// collector, which engines call once at Close and which takes a lock.
//
// Two registration styles:
//
//   - Counter/Histogram hand out live handles for code that increments as it
//     goes (URPC sends, cache fill latencies).
//   - CounterFunc registers a sampling function evaluated only at Snapshot
//     time — for state a subsystem already accumulates (fabric link traffic,
//     per-monitor Stats structs, engine internals). Zero hot-path cost.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"multikernel/internal/ckpt"
	"multikernel/internal/stats"
)

// Counter is a monotonically increasing count. Engine-confined: see the
// package accumulation convention.
type Counter struct{ v uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is an instantaneous level — queue depth, replica count, heap size —
// as opposed to a Counter's monotone total. Engine-confined like Counter: see
// the package accumulation convention.
type Gauge struct{ v int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) { g.v = v }

// Add moves the level by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v += d }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// Registry holds one engine's counters, gauges and histograms.
type Registry struct {
	counters map[string]*Counter
	funcs    map[string]func() uint64
	gauges   map[string]*Gauge
	hists    map[string]*stats.Histogram
	onRead   func() // runs before every Snapshot and SnapshotDelta, or nil
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		funcs:    make(map[string]func() uint64),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*stats.Histogram),
	}
}

// Counter returns the counter registered under name, creating it if needed.
// All callers asking for one name share one counter.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFunc registers fn as a lazy counter sampled at Snapshot time,
// replacing any previous function under the same name.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.funcs[name] = fn
}

// OnRead makes fn run at the start of every Snapshot and SnapshotDelta,
// before any value is read: the owning engine brings counters that lag the
// current instant up to date there.
func (r *Registry) OnRead(fn func()) { r.onRead = fn }

// Gauge returns the gauge registered under name, creating it if needed. All
// callers asking for one name share one gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *stats.Histogram {
	h := r.hists[name]
	if h == nil {
		h = &stats.Histogram{}
		r.hists[name] = h
	}
	return h
}

// CheckpointState serializes every live counter and histogram, sorted by
// name, implementing sim.Checkpointer so a registry survives engine
// checkpoint/restore. Lazy CounterFunc entries are not serialized: they
// sample component state that is checkpointed (and re-registered) by the
// components themselves.
func (r *Registry) CheckpointState(w io.Writer) error {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	if err := ckpt.WriteU64(w, uint64(len(names))); err != nil {
		return err
	}
	for _, n := range names {
		if err := ckpt.WriteString(w, n); err != nil {
			return err
		}
		if err := ckpt.WriteU64(w, r.counters[n].v); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(r.hists))
	for n := range r.hists {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	if err := ckpt.WriteU64(w, uint64(len(hnames))); err != nil {
		return err
	}
	for _, n := range hnames {
		if err := ckpt.WriteString(w, n); err != nil {
			return err
		}
		counts, hn, sum, max := r.hists[n].Raw()
		if err := ckpt.WriteU64(w, hn, sum, max); err != nil {
			return err
		}
		if err := ckpt.WriteU64Slice(w, counts); err != nil {
			return err
		}
	}
	gnames := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	if err := ckpt.WriteU64(w, uint64(len(gnames))); err != nil {
		return err
	}
	for _, n := range gnames {
		if err := ckpt.WriteString(w, n); err != nil {
			return err
		}
		if err := ckpt.WriteU64(w, uint64(r.gauges[n].v)); err != nil {
			return err
		}
	}
	return nil
}

// RestoreState reads back what CheckpointState wrote. Counters and
// histograms are created on demand and restored in place, so handles already
// held by components (from build-time registration) observe the restored
// values. CheckpointState writes each section sorted by name, so a name that
// repeats or sorts before its predecessor marks a corrupt image, as does a
// histogram without exactly NumBuckets buckets.
func (r *Registry) RestoreState(rd io.Reader) error {
	// The image was written by a registry that the same construction
	// filled, so it names every metric registered before the restore: one
	// it left out would be written back as an extra. held counts a kind.
	sections := []struct {
		kind string
		held func() int
		read func(name string) error
	}{
		{"counter", func() int { return len(r.counters) }, func(name string) error {
			return ckpt.ReadU64(rd, &r.Counter(name).v)
		}},
		{"histogram", func() int { return len(r.hists) }, func(name string) error {
			var n, sum, max uint64
			if err := ckpt.ReadU64(rd, &n, &sum, &max); err != nil {
				return err
			}
			counts, err := ckpt.ReadU64Slice(rd)
			if err != nil {
				return err
			}
			if len(counts) != stats.NumBuckets {
				return fmt.Errorf("metrics: histogram %q has %d buckets, want %d", name, len(counts), stats.NumBuckets)
			}
			r.Histogram(name).SetRaw(counts, n, sum, max)
			return nil
		}},
		{"gauge", func() int { return len(r.gauges) }, func(name string) error {
			var v uint64
			if err := ckpt.ReadU64(rd, &v); err != nil {
				return err
			}
			r.Gauge(name).v = int64(v)
			return nil
		}},
	}
	for _, sec := range sections {
		var n uint64
		if err := ckpt.ReadU64(rd, &n); err != nil {
			return err
		}
		var prev string
		for i := uint64(0); i < n; i++ {
			name, err := ckpt.ReadString(rd)
			if err != nil {
				return err
			}
			if i > 0 && name <= prev {
				return fmt.Errorf("metrics: %s %q does not sort after %q", sec.kind, name, prev)
			}
			prev = name
			if err := sec.read(name); err != nil {
				return err
			}
		}
		if got := sec.held(); uint64(got) != n {
			return fmt.Errorf("metrics: image names %d %ss; the registry holds %d", n, sec.kind, got)
		}
	}
	return nil
}

// Snapshot is a point-in-time copy of a registry, or a merge of several.
// Maps marshal with sorted keys and histogram buckets are ordered slices, so
// the JSON encoding is deterministic.
type Snapshot struct {
	Counters   map[string]uint64                 `json:"counters"`
	Gauges     map[string]int64                  `json:"gauges,omitempty"`
	Histograms map[string]stats.HistogramSummary `json:"histograms,omitempty"`
}

// Snapshot samples every counter (live and lazy), gauge and histogram.
func (r *Registry) Snapshot() Snapshot {
	if r.onRead != nil {
		r.onRead()
	}
	s := Snapshot{Counters: make(map[string]uint64, len(r.counters)+len(r.funcs))}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, fn := range r.funcs {
		s.Counters[name] = fn()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.v
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]stats.HistogramSummary, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Summary()
		}
	}
	return s
}

// Merge folds o into s: counters and gauges sum, histograms merge
// bucket-wise. Merging is commutative, so a parallel sweep folds to the same
// totals in any completion order. (Summing gauges is right for the sweep use:
// disjoint engines' levels — queue depths, heap sizes — add.)
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]uint64, len(o.Counters))
	}
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	if len(o.Gauges) > 0 && s.Gauges == nil {
		s.Gauges = make(map[string]int64, len(o.Gauges))
	}
	for name, v := range o.Gauges {
		s.Gauges[name] += v
	}
	if len(o.Histograms) > 0 && s.Histograms == nil {
		s.Histograms = make(map[string]stats.HistogramSummary, len(o.Histograms))
	}
	for name, h := range o.Histograms {
		cur := s.Histograms[name]
		cur.Merge(h)
		s.Histograms[name] = cur
	}
}

// Names returns the snapshot's counter names, sorted — the iteration helper
// for renderers.
func (s Snapshot) Names() []string {
	out := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Cursors: windowed delta sampling for the observability plane.

// histMark is a cursor's remembered position in one histogram.
type histMark struct {
	counts [stats.NumBuckets]uint64
	n, sum uint64
}

// Cursor remembers a sampler's position in a registry so successive
// SnapshotDelta calls return only what changed in between. Deltas are
// atomic in the only sense that matters here — the registry is
// engine-confined, so a cursor running inside a proc observes one consistent
// virtual instant with no counter racing ahead mid-snapshot — and they are
// mergeable: summing a series' deltas over any window partition reproduces
// the plain Snapshot difference across that window.
//
// A cursor sees only names its filter accepts (nil accepts everything);
// disjoint filters across per-core cursors give exactly-once accounting of a
// shared registry. Names registered after the cursor was created are picked
// up on their first subsequent delta.
type Cursor struct {
	r        *Registry
	filter   func(string) bool
	counters map[string]uint64
	gauges   map[string]int64
	hists    map[string]*histMark
}

// NewCursor returns a cursor over r restricted to names accepted by filter
// (nil for all). The cursor starts at zero: the first SnapshotDelta returns
// everything accumulated so far.
func (r *Registry) NewCursor(filter func(string) bool) *Cursor {
	return &Cursor{
		r:        r,
		filter:   filter,
		counters: make(map[string]uint64),
		gauges:   make(map[string]int64),
		hists:    make(map[string]*histMark),
	}
}

func (c *Cursor) accepts(name string) bool { return c.filter == nil || c.filter(name) }

// SnapshotDelta returns what changed since the previous call and advances the
// cursor. Counters (live and lazy) report their increase and are omitted when
// unchanged; gauges report their current level, but only on calls where it
// changed (first observation included); histograms report the window's delta
// summary and are omitted when no observation landed. An idle window is an
// empty snapshot.
func (c *Cursor) SnapshotDelta() Snapshot {
	if c.r.onRead != nil {
		c.r.onRead()
	}
	var s Snapshot
	counter := func(name string, cur uint64) {
		prev := c.counters[name]
		if cur == prev {
			return
		}
		c.counters[name] = cur
		if cur < prev {
			return // a lazy sampler regressed; resync without emitting garbage
		}
		if s.Counters == nil {
			s.Counters = make(map[string]uint64)
		}
		s.Counters[name] = cur - prev
	}
	for name, cn := range c.r.counters {
		if c.accepts(name) {
			counter(name, cn.v)
		}
	}
	for name, fn := range c.r.funcs {
		if c.accepts(name) {
			counter(name, fn())
		}
	}
	for name, g := range c.r.gauges {
		if !c.accepts(name) {
			continue
		}
		prev, seen := c.gauges[name]
		if seen && prev == g.v {
			continue
		}
		c.gauges[name] = g.v
		if s.Gauges == nil {
			s.Gauges = make(map[string]int64)
		}
		s.Gauges[name] = g.v
	}
	for name, h := range c.r.hists {
		if !c.accepts(name) {
			continue
		}
		m := c.hists[name]
		if m == nil {
			m = &histMark{}
			c.hists[name] = m
		}
		counts, n, sum, _ := h.Raw()
		if n == m.n {
			continue
		}
		d := stats.DeltaSummary(counts, m.counts[:], n-m.n, sum-m.sum)
		copy(m.counts[:], counts)
		m.n, m.sum = n, sum
		if s.Histograms == nil {
			s.Histograms = make(map[string]stats.HistogramSummary)
		}
		s.Histograms[name] = d
	}
	return s
}

// ---------------------------------------------------------------------------
// Global capture: merging per-engine snapshots from a parallel sweep.

var (
	captureOn atomic.Bool
	captureMu sync.Mutex
	captured  Snapshot
)

// StartCapture opens a capture window: engines snapshot their registry into
// it when closed. Any previously captured totals are discarded.
func StartCapture() {
	captureMu.Lock()
	captured = Snapshot{}
	captureMu.Unlock()
	captureOn.Store(true)
}

// Capturing reports whether a capture window is open.
func Capturing() bool { return captureOn.Load() }

// Contribute merges snap into the open capture window. Safe to call from
// concurrent harness workers; a closed window ignores the contribution.
func Contribute(snap Snapshot) {
	if !captureOn.Load() {
		return
	}
	captureMu.Lock()
	captured.Merge(snap)
	captureMu.Unlock()
}

// TakeCapture closes the capture window and returns the merged totals.
func TakeCapture() Snapshot {
	captureOn.Store(false)
	captureMu.Lock()
	out := captured
	captured = Snapshot{}
	captureMu.Unlock()
	return out
}
