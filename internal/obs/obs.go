// Package obs is the distributed observability plane: per-core sampler
// processes snapshot the metrics registry at seeded virtual-time intervals
// and ship mergeable deltas over URPC up the SKB-derived aggregation tree
// into the cluster-wide time-series Store — the multikernel argument applied
// to monitoring itself. Nothing reads another core's state directly: every
// sample is a message, aggregation nodes fold their subtree's windows before
// forwarding, and the root commits whole windows keyed by virtual time.
//
// Determinism: sampling times are virtual (tick k for core c fires at
// k·Interval + jitter_c, jitter seeded per core), message ordering is the
// engine's, and every fold iterates in sorted order — so the committed store,
// its JSON export, and the SKB facts derived from it are byte-identical at
// any host parallelism and across runs.
//
// Exactly-once accounting: the engine's registry is shared, so each series
// name is assigned one owning core (link counters to their socket's first
// core, health-critical kv./monitor./sim. series to the root — which
// experiments never kill — and the rest by hash) and each node's cursor
// filter accepts only its own names. Summing any series' committed deltas
// therefore reproduces the exact registry counter, a property the obs
// experiment checks as "fidelity".
//
// Fault survivability: an aggregation node force-flushes window k when it
// samples tick k+1, whether or not every child reported — a killed core costs
// its own series' tail (counted in obs.late), never the window. The health
// monitor rides on committed windows, so a kvcluster server kill surfaces as
// a degraded event within a bounded number of cycles (see health.go).
//
// The cost contract matches the trace layer's: with Interval == 0 the plane
// spawns no procs, builds no channels and charges zero virtual time — the
// pinned BenchmarkObsPinned/disabled simcycles must equal the no-plane
// baseline exactly, enforced by ci/traceguard.
package obs

import (
	"sort"
	"strconv"
	"strings"

	"multikernel/internal/cache"
	"multikernel/internal/metrics"
	"multikernel/internal/sim"
	"multikernel/internal/skb"
	"multikernel/internal/topo"
	"multikernel/internal/urpc"
)

// Sampling-path costs in cycles, charged on the obs procs only (never on the
// instrumented subsystems — registry updates stay free).
const (
	costSample = 400 // taking one cursor delta
	costPair   = 12  // marshaling one (series, value) pair
	costCommit = 200 // committing one window at the root
)

// Wire protocol: word 0 is kind<<60 | pairs<<56 | tick; words 1..6 carry up
// to three (seriesID, value) pairs.
const (
	msgDelta    = 1 // carries 1..3 pairs of window `tick`
	msgDone     = 2 // window `tick` complete from this subtree
	pairsPerMsg = (urpc.PayloadWords - 1) / 2
)

// Config parameterizes the plane.
type Config struct {
	// Interval is the sampling period in cycles. 0 disables the plane
	// entirely: Start spawns nothing and the run is cycle-for-cycle
	// identical to one without a plane.
	Interval sim.Time
	// Jitter bounds each core's seeded phase offset within the interval
	// (default Interval/4) — samplers are deliberately not phase-aligned,
	// like real per-CPU stat kernels.
	Jitter sim.Time
	// Ring is the per-series point retention (default 1024).
	Ring int
	// Seed drives the per-core jitter draws (default 1).
	Seed uint64
	// Root is the aggregation root core holding the store (default core 0).
	// Experiments must not kill it; health-critical series are owned here.
	Root topo.CoreID
	// Publish asserts link_heat/queue_depth/shard_health facts into the KB
	// at every commit, for SKB-driven placement to consume.
	Publish bool
}

// fact is a series' SKB publication rule, parsed once at registration.
type fact struct {
	pred string
	a, b int64
}

// Plane wires the samplers, the tree and the store together.
type Plane struct {
	eng *sim.Engine
	sys *cache.System
	kb  *skb.KB
	cfg Config

	store *Store
	nodes map[topo.CoreID]*node

	// Series control plane (engine-shared, like the kvcluster shard map):
	// dense ids assigned at first registration, in sorted-name order per
	// sample, so numbering is deterministic.
	ids   map[string]uint32
	names []string
	gauge []bool
	facts []*fact

	failed map[topo.CoreID]bool

	onCommit []func(p *sim.Proc, tick uint64)

	mMsgs, mPairs, mLate, mWindows *metrics.Counter
}

// NewPlane builds a plane over the engine's registry. kb supplies the
// aggregation tree (and receives facts when cfg.Publish is set); it must have
// Discover()ed topology. Nothing runs until Start.
func NewPlane(e *sim.Engine, sys *cache.System, kb *skb.KB, cfg Config) *Plane {
	if cfg.Jitter == 0 {
		cfg.Jitter = cfg.Interval / 4
	}
	if cfg.Ring == 0 {
		cfg.Ring = 1024
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Plane{
		eng: e, sys: sys, kb: kb, cfg: cfg,
		store:  NewStore(cfg.Ring),
		nodes:  make(map[topo.CoreID]*node),
		ids:    make(map[string]uint32),
		failed: make(map[topo.CoreID]bool),
	}
}

// Store returns the root's committed time-series store.
func (pl *Plane) Store() *Store { return pl.store }

// Enabled reports whether the plane samples at all.
func (pl *Plane) Enabled() bool { return pl.cfg.Interval > 0 }

// Interval returns the sampling period (0 when disabled).
func (pl *Plane) Interval() sim.Time { return pl.cfg.Interval }

// OnCommit registers fn to run (in the root sampler's context) after each
// window is committed to the store. The health monitor hangs off this hook.
func (pl *Plane) OnCommit(fn func(p *sim.Proc, tick uint64)) {
	pl.onCommit = append(pl.onCommit, fn)
}

// FailStop tells the plane core c fail-stopped: its sampler dies with it and
// its parents stop waiting for its windows. Call alongside the fault that
// kills the core. Killing the root is not supported (the store dies with it).
func (pl *Plane) FailStop(c topo.CoreID) {
	if pl.failed[c] {
		return
	}
	pl.failed[c] = true
	if n, ok := pl.nodes[c]; ok && n.proc != nil {
		pl.eng.Kill(n.proc)
	}
}

// Start builds the aggregation tree and spawns one sampler per core. With
// Interval == 0 it is a no-op: no procs, no channels, no registry entries —
// the zero-overhead contract.
func (pl *Plane) Start() {
	if !pl.Enabled() {
		return
	}
	reg := pl.eng.Metrics()
	pl.mMsgs = reg.Counter("obs.msgs")
	pl.mPairs = reg.Counter("obs.pairs")
	pl.mLate = reg.Counter("obs.late")
	pl.mWindows = reg.Counter("obs.windows")

	// The SKB's multicast tree, reversed: monitors fan out over it, samplers
	// fan in. Socket-local cores report to their socket's aggregation core,
	// aggregation cores to the root.
	tree := pl.kb.MulticastTree(pl.cfg.Root, nil)
	root := pl.newNode(pl.cfg.Root, nil)
	for _, c := range tree.Local {
		pl.newNode(c, root)
	}
	for _, g := range tree.Groups {
		agg := pl.newNode(g.Agg, root)
		for _, c := range g.Children {
			pl.newNode(c, agg)
		}
	}
	// Spawn in ascending core order so proc creation — and therefore the
	// engine's tie-breaking — is topology-determined.
	cores := make([]topo.CoreID, 0, len(pl.nodes))
	for c := range pl.nodes {
		cores = append(cores, c)
	}
	sort.Slice(cores, func(i, j int) bool { return cores[i] < cores[j] })
	for _, c := range cores {
		n := pl.nodes[c]
		n.proc = pl.eng.Spawn("obs@c"+strconv.Itoa(int(c)), n.run)
	}
}

// newNode builds node state for core c under parent (nil for the root),
// including its fan-in channel and its cursor over the names it owns.
func (pl *Plane) newNode(c topo.CoreID, parent *node) *node {
	n := &node{
		pl: pl, core: c, parent: parent,
		jitter:    sim.NewRNG(pl.cfg.Seed ^ (uint64(c)+0x9e37)).Time(pl.cfg.Jitter + 1),
		win:       make(map[uint64]map[uint32]int64),
		childDone: make(map[topo.CoreID]uint64),
		cursor: pl.eng.Metrics().NewCursor(func(name string) bool {
			o, ok := pl.ownerOf(name)
			return ok && o == c
		}),
		tick: 1,
	}
	pl.nodes[c] = n
	if parent != nil {
		n.up = urpc.New(pl.sys, c, parent.core, urpc.Options{
			Slots: 32, Home: int(pl.sys.Machine().Socket(parent.core)),
		})
		parent.children = append(parent.children, n)
		parent.down = append(parent.down, n.up)
	}
	return n
}

// ownerOf maps a series name to the single core that samples it. ok is false
// for names the plane must not observe (its own counters — sampling the
// sampler would feed back into every window).
func (pl *Plane) ownerOf(name string) (topo.CoreID, bool) {
	if strings.HasPrefix(name, "obs.") {
		return 0, false
	}
	m := pl.sys.Machine()
	// Per-link interconnect counters belong to the first core of the link's
	// A-side socket: "interconnect.link.<A>-<B>.dwords".
	if rest, ok := strings.CutPrefix(name, "interconnect.link."); ok {
		if i := strings.IndexByte(rest, '-'); i > 0 {
			if a, err := strconv.Atoi(rest[:i]); err == nil && a >= 0 && a < m.NSockets {
				return m.CoresOf(topo.SocketID(a))[0], true
			}
		}
	}
	// Health-critical and engine-global series live on the root, which
	// experiments never kill: shard health must survive any server death.
	for _, p := range []string{"kv.", "monitor.", "sim."} {
		if strings.HasPrefix(name, p) {
			return pl.cfg.Root, true
		}
	}
	// Everything else spreads by hash (FNV-1a) across all cores.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return topo.CoreID(h % uint64(m.NumCores())), true
}

// sid returns name's dense series id, assigning one on first registration
// (callers iterate names in sorted order, so assignment is deterministic).
func (pl *Plane) sid(name string, gauge bool) uint32 {
	if id, ok := pl.ids[name]; ok {
		return id
	}
	id := uint32(len(pl.names))
	pl.ids[name] = id
	pl.names = append(pl.names, name)
	pl.gauge = append(pl.gauge, gauge)
	pl.facts = append(pl.facts, parseFact(name))
	return id
}

// parseFact derives name's SKB publication rule, or nil for unpublished
// series.
func parseFact(name string) *fact {
	if rest, ok := strings.CutPrefix(name, "interconnect.link."); ok {
		if j := strings.Index(rest, ".dwords"); j > 0 {
			if i := strings.IndexByte(rest, '-'); i > 0 && i < j {
				a, errA := strconv.ParseInt(rest[:i], 10, 64)
				b, errB := strconv.ParseInt(rest[i+1:j], 10, 64)
				if errA == nil && errB == nil {
					return &fact{pred: "link_heat", a: a, b: b}
				}
			}
		}
	}
	if rest, ok := strings.CutPrefix(name, "kv.server."); ok {
		if j := strings.Index(rest, ".pending"); j > 0 {
			if c, err := strconv.ParseInt(rest[:j], 10, 64); err == nil {
				return &fact{pred: "queue_depth", a: c}
			}
		}
	}
	if rest, ok := strings.CutPrefix(name, "kv.shard."); ok {
		if j := strings.Index(rest, ".replicas"); j > 0 {
			if s, err := strconv.ParseInt(rest[:j], 10, 64); err == nil {
				return &fact{pred: "shard_health", a: s}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Sampler / aggregation nodes

// node is one core's sampler: every core samples its owned series each tick;
// aggregation cores additionally fold their children's windows before
// forwarding (or, at the root, committing).
type node struct {
	pl     *Plane
	core   topo.CoreID
	proc   *sim.Proc
	parent *node

	children []*node
	up       *urpc.Channel   // to parent (nil at the root)
	down     []*urpc.Channel // from children, ascending core order

	cursor *metrics.Cursor
	jitter sim.Time
	tick   uint64 // next tick to sample (1-based)

	win        map[uint64]map[uint32]int64 // buffered windows: tick -> id -> value
	childDone  map[topo.CoreID]uint64      // highest complete tick per child
	maxFlushed uint64                      // windows ≤ this are sealed; late data drops
}

func (n *node) run(p *sim.Proc) {
	p.SetDaemon(true)
	interval := n.pl.cfg.Interval
	for {
		next := sim.Time(n.tick)*interval + n.jitter
		for p.Now() < next {
			p.ParkTimeout(next - p.Now())
			// A child burst can wake us early: fold it in, and forward any
			// window it completed without waiting for our own next tick.
			n.drain(p)
			n.forwardReady(p)
		}
		// Deadline: window k-1 seals no later than our tick k. Children that
		// never reported (killed mid-window, or their whole subtree stalled)
		// cost their own series' tail, never the window. In the healthy path
		// windows forward as soon as the last child's Done lands — one
		// subtree hop per level within the same interval — and forceFlush
		// finds nothing left to do.
		n.forceFlush(p, n.tick-1)
		n.sample(p)
		n.drain(p)
		n.tick++
		n.forwardReady(p)
	}
}

// sample takes this core's cursor delta for the current tick and folds it
// into the tick's window buffer.
func (n *node) sample(p *sim.Proc) {
	p.Sleep(costSample)
	d := n.cursor.SnapshotDelta()
	w := n.window(n.tick)
	for _, name := range sortedNames(d.Counters) {
		w[n.pl.sid(name, false)] += int64(d.Counters[name])
	}
	for _, name := range sortedNames(d.Gauges) {
		w[n.pl.sid(name, true)] = d.Gauges[name]
	}
	// Histograms ship as pseudo-series — count, sum, and one series per
	// non-empty bucket — so windows stay uniform (id, value) pairs and the
	// root can rebuild windowed summaries for quantiles.
	hnames := make([]string, 0, len(d.Histograms))
	for name := range d.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		hs := d.Histograms[name]
		w[n.pl.sid(name+".n", false)] += int64(hs.N)
		w[n.pl.sid(name+".sum", false)] += int64(hs.Sum)
		for _, b := range hs.Buckets {
			w[n.pl.sid(name+".le"+strconv.FormatUint(b.Le, 10), false)] += int64(b.Count)
		}
	}
	if len(w) > 0 {
		p.Sleep(sim.Time(len(w)) * costPair)
	}
}

func (n *node) window(k uint64) map[uint32]int64 {
	w := n.win[k]
	if w == nil {
		w = make(map[uint32]int64)
		n.win[k] = w
	}
	return w
}

// drain folds every queued child message into window buffers, in ascending
// child-core order (the engine already fixed arrival order; this fixes
// iteration).
func (n *node) drain(p *sim.Proc) {
	var buf [16]urpc.Message
	for i, ch := range n.down {
		child := n.children[i]
		for {
			got := ch.Recv(p, buf[:], urpc.Poll)
			for _, m := range buf[:got] {
				n.handle(child, m)
			}
			if got < len(buf) {
				break
			}
		}
	}
}

func (n *node) handle(child *node, m urpc.Message) {
	kind := m[0] >> 60
	k := m[0] & (1<<56 - 1)
	switch kind {
	case msgDelta:
		if k <= n.maxFlushed {
			// The window already went upstream without this subtree; the data
			// is lost, but accounted.
			n.pl.mLate.Inc()
			return
		}
		w := n.window(k)
		cnt := int((m[0] >> 56) & 0xf)
		for i := 0; i < cnt; i++ {
			id := uint32(m[1+2*i])
			v := int64(m[2+2*i])
			if n.pl.gauge[id] {
				w[id] = v
			} else {
				w[id] += v
			}
		}
	case msgDone:
		if k > n.childDone[child.core] {
			n.childDone[child.core] = k
		}
	}
}

// ready reports whether window k has everything it will ever get cheaply:
// our own sample and every live child's Done.
func (n *node) ready(k uint64) bool {
	if k >= n.tick { // our own tick-k sample not taken yet
		return false
	}
	for _, c := range n.children {
		if !n.pl.failed[c.core] && n.childDone[c.core] < k {
			return false
		}
	}
	return true
}

// forwardReady flushes complete windows upward in ascending tick order.
func (n *node) forwardReady(p *sim.Proc) {
	for {
		k := n.oldestWindow()
		if k == 0 || !n.ready(k) {
			return
		}
		n.flush(p, k)
	}
}

// forceFlush seals every window ≤ k, complete or not.
func (n *node) forceFlush(p *sim.Proc, k uint64) {
	for {
		o := n.oldestWindow()
		if o == 0 || o > k {
			return
		}
		for _, c := range n.children {
			if !n.pl.failed[c.core] && n.childDone[c.core] < o {
				n.pl.mLate.Inc()
			}
		}
		n.flush(p, o)
	}
}

func (n *node) oldestWindow() uint64 {
	min := uint64(0)
	for k := range n.win {
		if min == 0 || k < min {
			min = k
		}
	}
	return min
}

// flush seals window k: commit at the root, otherwise encode, ship to the
// parent and mark done.
func (n *node) flush(p *sim.Proc, k uint64) {
	w := n.win[k]
	delete(n.win, k)
	if k > n.maxFlushed {
		n.maxFlushed = k
	}
	if n.parent == nil {
		n.pl.commit(p, k, w)
		return
	}
	ids := make([]uint32, 0, len(w))
	for id := range w {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var m urpc.Message
	for len(ids) > 0 {
		cnt := pairsPerMsg
		if cnt > len(ids) {
			cnt = len(ids)
		}
		m[0] = msgDelta<<60 | uint64(cnt)<<56 | k
		for i := 0; i < cnt; i++ {
			m[1+2*i] = uint64(ids[i])
			m[2+2*i] = uint64(w[ids[i]])
		}
		ids = ids[cnt:]
		if !n.send(p, m) {
			return
		}
		n.pl.mMsgs.Inc()
		n.pl.mPairs.Add(uint64(cnt))
	}
	m = urpc.Message{msgDone<<60 | k}
	if n.send(p, m) {
		n.pl.mMsgs.Inc()
		n.pl.eng.Wake(n.parent.proc)
	}
}

// send ships one message to the parent, bounded by one interval — if the
// parent's subtree is dead or jammed that long, the window is lost and
// counted rather than wedging the sampler forever.
func (n *node) send(p *sim.Proc, m urpc.Message) bool {
	if n.up.Dead() {
		n.pl.mLate.Inc()
		return false
	}
	if n.up.Send(p, []urpc.Message{m}, urpc.Deadline(n.pl.cfg.Interval)) == 0 {
		n.up.MarkDead()
		n.pl.mLate.Inc()
		return false
	}
	return true
}

// commit lands window k in the store at its nominal time k·Interval, then
// publishes SKB facts and runs the commit hooks.
func (pl *Plane) commit(p *sim.Proc, k uint64, w map[uint32]int64) {
	p.Sleep(costCommit + sim.Time(len(w))*costPair)
	at := k * uint64(pl.cfg.Interval)
	ids := make([]uint32, 0, len(w))
	for id := range w {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		pl.store.Commit(at, pl.names[id], w[id], pl.gauge[id])
	}
	pl.mWindows.Inc()
	if pl.cfg.Publish {
		pl.publish(w)
	}
	for _, fn := range pl.onCommit {
		fn(p, k)
	}
}

// publish refreshes the KB facts of every fact-bearing series ever seen:
// link_heat carries the window's delta (0 for an idle link — heat decays),
// queue_depth and shard_health carry the current level.
func (pl *Plane) publish(w map[uint32]int64) {
	for id, f := range pl.facts {
		if f == nil {
			continue
		}
		var v int64
		if pl.gauge[uint32(id)] {
			if last, ok := pl.store.Get(pl.names[id]).Last(); ok {
				v = last.V
			}
		} else {
			v = w[uint32(id)] // absent -> 0: no traffic this window
		}
		switch f.pred {
		case "link_heat":
			pl.kb.Retract(f.pred, f.a, f.b, skb.Wildcard)
			pl.kb.Assert(f.pred, f.a, f.b, v)
		default:
			pl.kb.Retract(f.pred, f.a, skb.Wildcard)
			pl.kb.Assert(f.pred, f.a, v)
		}
	}
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
