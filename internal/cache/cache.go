// Package cache models the cache hierarchy and MOESI coherence protocol of a
// simulated machine. It is the mechanism behind every microbenchmark in the
// paper: shared-memory updates, URPC message transfer, TLB-shootdown
// messaging and loopback networking all reduce to sequences of coherent
// loads and stores whose latency, queuing and interconnect traffic this
// package computes.
//
// The model is line-granular and infinite-capacity (the evaluation's working
// sets are tiny; coherence misses, not capacity misses, dominate). Each line
// tracks a holder set and an owner, and carries a FIFO transfer queue: a
// coherence transaction occupies the line for its duration, so contended
// lines serialize requesters — the effect that makes shared-memory updates
// degrade linearly with core count (paper Figure 3).
package cache

import (
	"fmt"

	"multikernel/internal/interconnect"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/stats"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// CoherenceMode selects how write upgrades and fills locate and invalidate
// remote copies.
type CoherenceMode uint8

const (
	// Broadcast snoops every socket on each coherence transaction — the
	// HyperTransport behaviour of the paper machines. On machines with a
	// nonzero SnoopPerSocket cost the probe fan-out and latency grow with the
	// socket count regardless of how many copies actually exist.
	Broadcast CoherenceMode = iota
	// Directory consults the line's home-node sharer bitmap and probes only
	// the actual holders, paying a flat DirLookup indirection instead — the
	// protocol that keeps scaling when broadcast collapses (§2.1).
	Directory
)

func (m CoherenceMode) String() string {
	switch m {
	case Broadcast:
		return "broadcast"
	case Directory:
		return "directory"
	}
	return "?"
}

// line is the global directory entry for one cache line.
type line struct {
	holders CoreSet // cores with a valid copy
	owner   int16   // core in M/O/E state, or -1 (maxCores fits)
	// home is the line's home socket, taken from Memory when the entry is
	// made or restored, or -1 while Alloc has not handed the line out
	// (System.home).
	home  int16
	dirty bool // owner holds M or O (memory stale)
	// xferStore marks the current/most recent occupancy of res as an
	// ownership (store) transfer: a reader that queued behind it receives
	// the line by cache-to-cache forwarding at a discount, rather than
	// launching a fresh fetch — requests outstanding at the home node are
	// answered as soon as the writer's transaction completes.
	xferStore bool
	// storer is the core whose asynchronous store miss holds res, if one
	// does: at most one is pending, completed by host.storeDone.
	storer int16
	// fwd is 1 + the index of the shared region this replica forwards the
	// line's stores through (partition.go), or 0. It fills the padding
	// before res, so an entry keeps its size.
	fwd int32
	res *sim.Resource
	// host is host state only some lines need, apart so that an entry
	// keeps its size.
	host *lineHost
}

// lineHost is the host state of a line that has been watched or has taken
// an asynchronous store miss.
type lineHost struct {
	// watch is the record of the last Watch of the line, if any. A stale
	// one costs only a spurious nudge and a spurious re-watch.
	watch *Watcher
	// storeDone completes the line's asynchronous store miss. It is made
	// once per line, so a store miss allocates nothing.
	storeDone func()
}

// hostState returns l's host state, making it on first use.
func (l *line) hostState() *lineHost {
	if l.host == nil {
		l.host = new(lineHost)
	}
	return l.host
}

// forwardLat is the cost of the directory forwarding a line to a reader
// whose request was already queued when the writer's transfer completed.
const forwardLat = 90

func (l *line) holds(c topo.CoreID) bool { return l.holders.Has(c) }

// changed dirties the record watching l, if any, and nudges its proc: a
// write landed in the line or dropped a core's copy. A watcher holds the
// line, so a store by another core reaches it first through ownershipLat's
// invalidation; until that store's write lands the writer holds the line's
// transfer queue, so no core can hold the line again in between.
func (l *line) changed() {
	if l.host != nil && l.host.watch != nil {
		w := l.host.watch
		w.Clean = false
		w.Proc.Nudge()
	}
}

// A Watcher is a poller's record of its watch of one line (Watch): the proc
// a change to the line nudges, and whether the line is unchanged since.
// A line points at the record until another one watches it, so a record
// must not move in memory while it is in use.
type Watcher struct {
	Proc *sim.Proc
	// Clean reports that, since the Watch that found the line held, no
	// write has landed in it, no copy of it was dropped, no other record
	// has watched it and RestoreState has not replaced the line table.
	// The watcher may clear it; only Watch sets it.
	Clean bool
}

func (l *line) view() LineView {
	return LineView{Holders: l.holders, Owner: topo.CoreID(l.owner), Dirty: l.dirty}
}

// LineView is an audit-time snapshot of one line's directory entry.
type LineView struct {
	Holders CoreSet     // cores with a valid copy
	Owner   topo.CoreID // core in M/O/E state, or -1
	Dirty   bool        // memory is stale; the owner holds the only current data
}

// Reason classifies a directory transition reported to an Audit hook.
type Reason uint8

const (
	// AuditFillMem: a fill served from memory (no cached copy was current).
	AuditFillMem Reason = iota
	// AuditFillShared: a fill served from memory while clean sharers exist.
	AuditFillShared
	// AuditFillOwner: a fill forwarded from the owning cache.
	AuditFillOwner
	// AuditUpgrade: a write upgrade that invalidated all other copies;
	// probes carries the probe fan-out.
	AuditUpgrade
	// AuditDirty: the owner's first store dirtied a clean line (silent E→M
	// upgrade, or the write completing an ownership acquisition).
	AuditDirty
	// AuditFlush: a clflush-style eviction of one core's copy.
	AuditFlush
	// AuditDMA: a non-coherent device write invalidated every cached copy.
	AuditDMA
	// AuditRemote: a cross-partition delivery landed a forwarded line in this
	// replica (parallel boot only): the directory is re-pointed at the remote
	// writer so the next local access charges an owner-forwarded fill.
	AuditRemote
)

func (r Reason) String() string {
	switch r {
	case AuditFillMem:
		return "fill_mem"
	case AuditFillShared:
		return "fill_shared"
	case AuditFillOwner:
		return "fill_owner"
	case AuditUpgrade:
		return "upgrade"
	case AuditDirty:
		return "dirty"
	case AuditFlush:
		return "flush"
	case AuditDMA:
		return "dma"
	case AuditRemote:
		return "remote"
	}
	return "?"
}

// Audit observes every MOESI directory transition: the schedule-exploration
// checker (internal/check) installs one to verify single-owner, stale-read
// and probe-conservation invariants on each step. The hook runs inline on
// coherence paths, so implementations must be cheap and must not re-enter
// the cache system; a nil audit (the default) costs one predicted branch.
type Audit interface {
	Transition(id memory.LineID, r Reason, core topo.CoreID, before, after LineView, probes int)
	// StaleHome reports that at transition r the entry of line id held home
	// socket held, where Memory homes the line on want.
	StaleHome(id memory.LineID, r Reason, held, want topo.SocketID)
}

// Stats are per-core access counters.
type Stats struct {
	Hits         uint64
	Misses       uint64 // all fills, local or remote
	RemoteMisses uint64 // fills served across the interconnect
	Upgrades     uint64 // write upgrades that invalidated other copies
	Invalidated  uint64 // times this core's copy was invalidated by others
}

// lineSlots is the size of the direct-mapped line lookaside, 64 KiB per
// System. On mkperf's unmap32, whose 32 monitors poll the most lines, lineFor
// misses it on 2.7% of calls (10.2% at 1,024 slots).
const lineSlots = 4096

// lineSlot is one lookaside entry; an empty slot holds id ^0, which no
// address maps to.
type lineSlot struct {
	id memory.LineID
	l  *line
}

// System is the coherent cache system of one machine.
type System struct {
	mach  *topo.Machine
	mem   *memory.Memory
	fab   *interconnect.Fabric
	eng   *sim.Engine
	lines map[memory.LineID]*line
	stats []Stats

	// dirFree models each socket's home-node directory/memory-controller as
	// a virtual-time server: every coherence transaction on a line homed at
	// socket S occupies S's directory for dirService cycles. When many cores
	// hammer lines with a common home, the directory saturates and waits
	// grow linearly with the number of requesters — the dominant effect in
	// Figure 3's shared-memory curves and one of the reasons NUMA-aware
	// buffer placement (spreading homes across sockets) wins in Figure 6.
	dirFree []sim.Time

	// inflight counts each core's outstanding asynchronous store misses;
	// when the store buffer / MSHR budget is exhausted, further store misses
	// stall synchronously — the effect that makes tight loops of contended
	// writes expensive (Figure 3) while isolated message sends stay cheap.
	inflight []int

	// touch tracking for "cache lines used" measurements (paper Table 3)
	tracking bool
	touched  map[memory.LineID]bool

	// Fault injection: stallUntil[c] != 0 means core c's cache controller
	// stops answering coherence probes until that virtual time — fills served
	// by c and invalidation probes to c wait out the remainder of the stall.
	// anyStall keeps the fast path to one boolean test.
	stallUntil []sim.Time
	anyStall   bool

	// Registry handles: fill latency and probe fan-out distributions. The
	// per-core Stats counters above stay the source of truth for access
	// counts; the registry samples their sums lazily at snapshot time.
	fillHist   *stats.Histogram
	fanoutHist *stats.Histogram

	// audit, when non-nil, observes every directory transition (SetAudit).
	audit Audit

	// mode selects broadcast snooping (default) or directory coherence.
	mode CoherenceMode

	// part, when non-nil, marks this system as one partition's replica of a
	// parallel-booted machine (see partition.go). Serial systems pay one nil
	// check per store for it.
	part *partState

	// lookaside holds recently used entries of lines, at id%lineSlots. It is
	// host state only: the map stays the one record, and RestoreState
	// empties the lookaside. It comes last, so the fields above share host
	// cache lines.
	lookaside [lineSlots]lineSlot
}

// maxInflightStores is the per-core store-miss MSHR budget.
const maxInflightStores = 4

// dirService is the home directory's per-transaction service time.
const dirService = 48

// handoffLat is the per-requester service time of a contended line: once
// ownership requests are queued at the home node, the line is forwarded
// cache-to-cache down the queue in a pipeline, so each writer in an
// N-writer convoy waits roughly N×handoffLat rather than N full round
// trips. This is the slope of Figure 3's SHM curves (~100 cycles per
// contending core per line).
const handoffLat = 100

// New returns a cache system over the given memory and fabric.
func New(e *sim.Engine, m *topo.Machine, mem *memory.Memory, fab *interconnect.Fabric) *System {
	if m.NumCores() > maxCores {
		panic(fmt.Sprintf("cache: machine has %d cores; model supports at most %d", m.NumCores(), maxCores))
	}
	s := &System{
		mach:     m,
		mem:      mem,
		fab:      fab,
		eng:      e,
		lines:    make(map[memory.LineID]*line),
		stats:    make([]Stats, m.NumCores()),
		dirFree:  make([]sim.Time, m.NSockets),
		inflight: make([]int, m.NumCores()),
	}
	s.clearLookaside()
	reg := e.Metrics()
	s.fillHist = reg.Histogram("cache.fill_cycles")
	s.fanoutHist = reg.Histogram("cache.probe_fanout")
	reg.CounterFunc("cache.hits", func() uint64 { return s.sumStats(func(st *Stats) uint64 { return st.Hits }) })
	reg.CounterFunc("cache.misses", func() uint64 { return s.sumStats(func(st *Stats) uint64 { return st.Misses }) })
	reg.CounterFunc("cache.remote_fills", func() uint64 { return s.sumStats(func(st *Stats) uint64 { return st.RemoteMisses }) })
	reg.CounterFunc("cache.upgrades", func() uint64 { return s.sumStats(func(st *Stats) uint64 { return st.Upgrades }) })
	reg.CounterFunc("cache.invalidations", func() uint64 { return s.sumStats(func(st *Stats) uint64 { return st.Invalidated }) })
	fab.SetMetrics(reg)
	return s
}

// sumStats folds one field across the per-core counters, counting the
// hits of skipped polls up to now.
func (s *System) sumStats(field func(*Stats) uint64) uint64 {
	s.eng.Settle()
	var total uint64
	for i := range s.stats {
		total += field(&s.stats[i])
	}
	return total
}

// Engine returns the simulation engine the system runs on.
func (s *System) Engine() *sim.Engine { return s.eng }

// SetAudit installs (or, with nil, removes) a coherence-transition audit.
func (s *System) SetAudit(a Audit) { s.audit = a }

// SetMode selects the coherence mode. Call before any cache activity: the
// directory content is mode-independent, but switching mid-run would change
// latencies and traffic accounting mid-stream.
func (s *System) SetMode(m CoherenceMode) { s.mode = m }

// Mode returns the active coherence mode.
func (s *System) Mode() CoherenceMode { return s.mode }

// HomeSharers returns the home-node directory's sharer set for a line — the
// bitmap directory mode probes from, maintained identically under broadcast.
// The zero set when the line has never been cached.
func (s *System) HomeSharers(id memory.LineID) CoreSet {
	if l := s.lines[id]; l != nil {
		return l.holders
	}
	return CoreSet{}
}

// ForEachLine visits every directory entry. Iteration order is unspecified
// (it walks the line map); intended for post-run invariant sweeps, never for
// anything that feeds the event queue.
func (s *System) ForEachLine(fn func(id memory.LineID, v LineView)) {
	for id, l := range s.lines {
		fn(id, l.view())
	}
}

// SetCoreStall injects an owner-stall fault: core c's cache controller stops
// responding to coherence traffic until the given virtual time. Extending an
// existing stall keeps the later deadline.
func (s *System) SetCoreStall(c topo.CoreID, until sim.Time) {
	if s.stallUntil == nil {
		s.stallUntil = make([]sim.Time, s.mach.NumCores())
	}
	if until > s.stallUntil[c] {
		s.stallUntil[c] = until
	}
	s.anyStall = true
}

// coreStall returns the remaining stall of core c's cache controller.
func (s *System) coreStall(c topo.CoreID) sim.Time {
	if !s.anyStall {
		return 0
	}
	if u := s.stallUntil[c]; u > s.eng.Now() {
		rem := u - s.eng.Now()
		s.eng.Tracer().Emit(uint64(s.eng.Now()), trace.Instant, trace.SubCache, int32(c), "cache.owner_stall", 0, uint64(rem))
		return rem
	}
	return 0
}

// linkPenalty returns the fault-induced extra latency of a transfer of base
// latency between core c and the remote socket src.
func (s *System) linkPenalty(c topo.CoreID, src topo.SocketID, base sim.Time) sim.Time {
	if !s.fab.Degraded() {
		return 0
	}
	return s.fab.TransferPenalty(s.mach.Socket(c), src, base, s.eng.RNG())
}

// dirDelay books one transaction at the home directory of l, the line
// containing a, and returns the queuing delay before it can be serviced.
func (s *System) dirDelay(l *line, a memory.Addr) sim.Time {
	home := s.home(l, a)
	now := s.eng.Now()
	start := now
	if s.dirFree[home] > start {
		start = s.dirFree[home]
	}
	s.dirFree[home] = start + dirService
	return start - now
}

// Machine returns the underlying machine.
func (s *System) Machine() *topo.Machine { return s.mach }

// Memory returns the underlying memory.
func (s *System) Memory() *memory.Memory { return s.mem }

// Fabric returns the underlying interconnect fabric.
func (s *System) Fabric() *interconnect.Fabric { return s.fab }

// Stats returns a copy of core c's counters.
func (s *System) Stats(c topo.CoreID) Stats {
	s.eng.Settle()
	return s.stats[c]
}

// ResetStats zeroes all per-core counters.
func (s *System) ResetStats() {
	s.eng.Settle() // hits of skipped polls before now are reset too
	for i := range s.stats {
		s.stats[i] = Stats{}
	}
}

// StartTouchTracking begins recording the set of distinct lines accessed
// (by any core). Used to measure cache-footprint figures like Table 3.
// Skipped polls record no touches, so every skipping loop's next poll
// runs as an event, and Tracking tells loops not to skip while it is on.
func (s *System) StartTouchTracking() {
	s.eng.NudgeAll()
	s.tracking = true
	s.touched = make(map[memory.LineID]bool)
}

// Tracking reports whether touch tracking is on.
func (s *System) Tracking() bool { return s.tracking }

// StopTouchTracking ends recording and returns the number of distinct lines
// touched since StartTouchTracking.
func (s *System) StopTouchTracking() int {
	s.tracking = false
	n := len(s.touched)
	s.touched = nil
	return n
}

// lineFor returns the directory entry of the line containing a, creating it
// on first touch, and records the touch while tracking is on. The lookaside
// answers repeated touches without a map lookup. Only the access paths call
// lineFor: StateOf, HomeSharers, Flush, DMAWrite and the checkpoint and
// audit walks read the map, so they never fill the lookaside.
func (s *System) lineFor(a memory.Addr) *line {
	id := a.Line()
	e := &s.lookaside[id%lineSlots]
	if e.id != id {
		l := s.lines[id]
		if l == nil {
			l = &line{owner: -1, home: s.homeOf(id), res: sim.NewResource(s.eng, 1)}
			s.markForward(id, l)
			s.lines[id] = l
		}
		e.id, e.l = id, l
	}
	if s.tracking {
		s.touched[id] = true
	}
	return e.l
}

// homeOf is the home socket that a new entry of line id takes: Home's
// answer, or -1 while Alloc has not handed the line out, because Home
// reports socket 0 for it only until then.
func (s *System) homeOf(id memory.LineID) int16 {
	if a := id.Base(); s.mem.Allocated(a) {
		return int16(s.mem.Home(a))
	}
	return -1
}

// home returns the home socket of l, the entry of the line containing a. An
// entry made before Alloc handed its line out takes its home at its first
// use after.
func (s *System) home(l *line, a memory.Addr) topo.SocketID {
	if l.home < 0 {
		if l.home = s.homeOf(a.Line()); l.home < 0 {
			return 0
		}
	}
	return topo.SocketID(l.home)
}

// audited reports transition r of l, the entry of line id, to the audit,
// and a home that l holds but Memory does not give the line.
func (s *System) audited(id memory.LineID, r Reason, c topo.CoreID, before LineView, l *line, probes int) {
	s.audit.Transition(id, r, c, before, l.view(), probes)
	if held, want := s.home(l, id.Base()), s.mem.Home(id.Base()); held != want {
		s.audit.StaleHome(id, r, held, want)
	}
}

// clearLookaside empties every lookaside slot.
func (s *System) clearLookaside() {
	for i := range s.lookaside {
		s.lookaside[i] = lineSlot{id: ^memory.LineID(0)}
	}
}

// chargeFill accounts fabric traffic for a line fill from src (core or
// memory home socket) to dst core. Under a broadcast-snoop cost model the
// request probes every socket; under directory (and on the paper machines,
// whose RemoteBase folds the broadcast in without separate traffic) it is a
// targeted request. The data response is always a unicast.
func (s *System) chargeFill(dst topo.CoreID, srcSocket topo.SocketID) {
	d := s.mach.Socket(dst)
	if d == srcSocket {
		return
	}
	if s.mode == Broadcast && s.mach.Costs.SnoopPerSocket > 0 {
		s.fab.ChargeBroadcast(d, interconnect.DwordsProbe)
	} else {
		s.fab.Charge(d, srcSocket, interconnect.DwordsProbe)
	}
	s.fab.Charge(srcSocket, d, interconnect.DwordsData)
}

// modeExtra is the coherence-mode surcharge of one transaction that leaves
// the requester's socket: the serialized broadcast snoop of every remote
// socket, or the home directory's lookup/indirection. Zero on the paper
// machines (SnoopPerSocket there is folded into RemoteBase, and broadcast is
// the hardware's only mode).
func (s *System) modeExtra(c topo.CoreID, srcSocket topo.SocketID) sim.Time {
	if s.mach.Socket(c) == srcSocket {
		return 0
	}
	if s.mode == Directory {
		return s.mach.Costs.DirLookup
	}
	return s.mach.Costs.SnoopPerSocket * sim.Time(s.mach.NSockets-1)
}

// fill obtains a readable copy of the line for core c, returning the fill
// latency. The line's transfer queue must already be held.
func (s *System) fill(c topo.CoreID, a memory.Addr, l *line) sim.Time {
	s.stats[c].Misses++
	var before LineView
	if s.audit != nil {
		before = l.view()
	}
	reason := AuditFillMem
	var lat sim.Time
	src := "cache.fill_mem"
	if owner := topo.CoreID(l.owner); owner >= 0 && owner != c {
		src = "cache.fill_owner"
		reason = AuditFillOwner
		// Fetch from the owning cache; MOESI keeps the dirty copy in-cache
		// (owner degrades M->O) rather than writing back. On a
		// HyperTransport-style fabric the request is routed via the line's
		// home node, so distance to the home adds latency — the effect
		// NUMA-aware buffer placement exploits (§5.1).
		lat = s.mach.TransferLat(c, owner) + s.homePenalty(c, l, a) + s.modeExtra(c, s.mach.Socket(owner))
		lat += s.coreStall(owner) + s.linkPenalty(c, s.mach.Socket(owner), lat)
		if !s.mach.SameSocket(c, owner) {
			s.stats[c].RemoteMisses++
		}
		s.chargeFill(c, s.mach.Socket(owner))
	} else if !l.holders.Empty() && !l.holds(c) {
		// Shared copies exist but no owner: memory is current.
		src = "cache.fill_shared"
		reason = AuditFillShared
		home := s.home(l, a)
		lat = s.mach.MemLat(c, home) + s.modeExtra(c, home)
		lat += s.linkPenalty(c, home, lat)
		s.stats[c].RemoteMisses++
		s.chargeFill(c, home)
	} else {
		home := s.home(l, a)
		lat = s.mach.MemLat(c, home) + s.modeExtra(c, home)
		lat += s.linkPenalty(c, home, lat)
		s.chargeFill(c, home)
	}
	l.holders.Add(c)
	if l.owner < 0 {
		// First holder becomes owner (E); an existing dirty owner keeps
		// ownership (now O with sharers).
		l.owner = int16(c)
		l.dirty = false
	}
	if s.audit != nil {
		s.audited(a.Line(), reason, c, before, l, 0)
	}
	s.fillHist.Observe(uint64(lat))
	s.eng.Tracer().Emit(uint64(s.eng.Now()), trace.Instant, trace.SubCache, int32(c), src, 0, uint64(lat))
	return lat
}

// homePenalty is the extra cost of routing a cross-socket transaction on l,
// the line containing a, via its home node.
func (s *System) homePenalty(c topo.CoreID, l *line, a memory.Addr) sim.Time {
	hr := s.mach.Costs.HomeRoute
	if hr == 0 {
		return 0
	}
	return sim.Time(s.mach.Hops(s.mach.Socket(c), s.home(l, a))) * hr
}

// invalidateOthers removes all copies except core c's, returning the probe
// latency (to the furthest current holder) plus home routing. Under a
// broadcast-snoop cost model the upgrade probes every remote socket whether
// or not it holds a copy — the observed fan-out is NSockets-1 and the probe
// pays a per-socket serialization — while directory mode looks the sharer
// set up at the home node (flat DirLookup) and probes only actual holders,
// which is what makes cache.probe_fanout a real signal there.
func (s *System) invalidateOthers(c topo.CoreID, a memory.Addr, l *line) sim.Time {
	others := l.holders
	others.Del(c)
	if others.Empty() {
		return 0
	}
	s.stats[c].Upgrades++
	var before LineView
	if s.audit != nil {
		before = l.view()
	}
	bcastSnoop := s.mode == Broadcast && s.mach.Costs.SnoopPerSocket > 0
	fanout := uint64(others.Count())
	if bcastSnoop {
		fanout = uint64(s.mach.NSockets - 1)
	}
	s.fanoutHist.Observe(fanout)
	s.eng.Tracer().Emit(uint64(s.eng.Now()), trace.Instant, trace.SubCache, int32(c), "cache.inval", 0, fanout)
	cs := s.mach.Socket(c)
	var lat sim.Time
	if bcastSnoop {
		s.fab.ChargeBroadcast(cs, interconnect.DwordsProbe)
		lat += s.mach.Costs.SnoopPerSocket * sim.Time(s.mach.NSockets-1)
	} else if s.mode == Directory {
		lat += s.mach.Costs.DirLookup
	}
	var probe sim.Time
	others.ForEach(func(h topo.CoreID) {
		s.stats[h].Invalidated++
		t := s.mach.TransferLat(c, h)
		// A stalled or link-degraded holder delays its probe response, and
		// the upgrade cannot complete until the slowest holder has answered.
		t += s.coreStall(h) + s.linkPenalty(c, s.mach.Socket(h), t)
		if t > probe {
			probe = t
		}
		if hs := s.mach.Socket(h); hs != cs {
			if !bcastSnoop {
				s.fab.Charge(cs, hs, interconnect.DwordsProbe)
			}
			s.fab.Charge(hs, cs, interconnect.DwordsAck)
		}
	})
	lat += probe
	l.holders = OnlyCore(c)
	l.owner = int16(c)
	if s.audit != nil {
		s.audited(a.Line(), AuditUpgrade, c, before, l, int(fanout))
	}
	if lat > 0 {
		lat += s.homePenalty(c, l, a)
	}
	return lat
}

// markDirty sets the line dirty, reporting the clean→dirty flip to the audit
// hook. Redundant stores to an already-dirty line are not transitions.
func (s *System) markDirty(c topo.CoreID, a memory.Addr, l *line) {
	if s.audit != nil && !l.dirty {
		before := l.view()
		l.dirty = true
		s.audited(a.Line(), AuditDirty, c, before, l, 0)
		return
	}
	l.dirty = true
}

// Load reads the word at a from core c, charging coherence latency to p.
func (s *System) Load(p *sim.Proc, c topo.CoreID, a memory.Addr) uint64 {
	l := s.lineFor(a)
	if l.holds(c) {
		s.stats[c].Hits++
		p.Sleep(s.mach.Costs.L1Hit)
		return s.mem.LoadWord(a)
	}
	// contended: other requesters already queued beyond any single in-flight
	// transfer — the NACK/retry regime at the home directory.
	contended := l.res.QueueLen() > 0
	queuedBehindStore := !l.res.TryAcquire()
	if queuedBehindStore {
		l.res.Acquire(p)
		queuedBehindStore = l.xferStore
	}
	var lat sim.Time
	if l.holds(c) {
		// Filled by someone while we queued (e.g. broadcast read): hit now.
		s.stats[c].Hits++
		lat = s.mach.Costs.L1Hit
	} else {
		lat = s.fill(c, a, l)
		if queuedBehindStore && lat > forwardLat {
			lat = forwardLat
		}
		if contended {
			lat += s.dirDelay(l, a)
		}
	}
	l.xferStore = false
	// The reservation must drop even if c is fail-stopped mid-charge: the
	// transfer is already at the directory and completes without the core.
	func() {
		defer l.res.Release()
		p.Sleep(lat)
	}()
	return s.mem.LoadWord(a)
}

// ProbeHit is the part of Load that cannot block, for polling loops that
// run as sim.Proc.Idle steps. If core c holds the line containing a, it
// counts the hit and returns the hit latency: the caller sleeps that long
// and then reads the word from Memory, which together is exactly Load.
// Otherwise it returns false, and the caller must Load from its proc at
// the same instant. Touch tracking records the line either way, as Load's
// does.
func (s *System) ProbeHit(c topo.CoreID, a memory.Addr) (sim.Time, bool) {
	if !s.lineFor(a).holds(c) {
		return 0, false
	}
	s.stats[c].Hits++
	return s.mach.Costs.L1Hit, true
}

// held returns the line containing a if core c holds it, else nil. It
// fills neither the map nor the lookaside and records no touch.
func (s *System) held(c topo.CoreID, a memory.Addr) *line {
	id := a.Line()
	l := s.lookaside[id%lineSlots].l
	if s.lookaside[id%lineSlots].id != id {
		l = s.lines[id]
	}
	if l == nil || !l.holds(c) {
		return nil
	}
	return l
}

// Watch is the quiet test of a poll whose steps sim.Proc.Idle may
// skip: if core c holds the line containing a, it returns the word at a,
// makes the line point at w and marks w clean, so that the next write to
// the line, or drop of a copy, dirties w and nudges w.Proc. A record the
// line pointed at before is dirtied. It counts and records nothing;
// AddHits counts the skipped probes.
func (s *System) Watch(c topo.CoreID, a memory.Addr, w *Watcher) (uint64, bool) {
	l := s.held(c, a)
	if l == nil {
		return 0, false
	}
	h := l.hostState()
	if h.watch != nil && h.watch != w {
		h.watch.Clean = false
	}
	h.watch, w.Clean = w, true
	return s.mem.LoadWord(a), true
}

// AddHits counts n hits by core c: probes of watched lines that a skipped
// idle pass stood for. Touch tracking, which would record their lines, is
// never on while steps are skipped.
func (s *System) AddHits(c topo.CoreID, n uint64) { s.stats[c].Hits += n }

// Store writes the word at a from core c.
//
// An uncontended store miss is asynchronous: the store buffer issues the
// ownership request and the core continues after a small issue cost, while
// the line stays "in transfer" (its FIFO queue held) for the transaction
// latency — any other core touching it queues behind the transfer. A store
// to a line that is already mid-transfer stalls the full, queued latency.
// This split is what makes uncontended message sends cheap for the sender
// while heavily-shared data structures degrade linearly with writer count
// (paper Figures 3 and 6).
func (s *System) Store(p *sim.Proc, c topo.CoreID, a memory.Addr, v uint64) {
	s.store(p, c, a, v)
}

// store is Store; it returns the line it wrote.
func (s *System) store(p *sim.Proc, c topo.CoreID, a memory.Addr, v uint64) *line {
	l := s.lineFor(a)
	if l.holds(c) && topo.CoreID(l.owner) == c && l.holders.Only(c) && l.res.QueueLen() == 0 {
		// Exclusive or Modified with no rival request queued: silent upgrade.
		// If another core's ownership request is already waiting, the line
		// is about to be taken away, so the store must join the queue like
		// any other requester rather than starving the rivals.
		s.stats[c].Hits++
		s.markDirty(c, a, l)
		p.Sleep(s.mach.Costs.Store)
		s.mem.StoreWord(a, v)
		s.maybeForward(l, a)
		return l
	}
	if s.inflight[c] < maxInflightStores && l.res.TryAcquire() {
		// Uncontended and within the store-buffer budget: issue
		// asynchronously. State changes take effect now (the directory
		// reflects the in-flight transaction); the line is released when the
		// transfer completes.
		lat := s.ownershipLat(p, c, a, l)
		s.markDirty(c, a, l)
		l.xferStore = true
		s.mem.StoreWord(a, v)
		l.changed()
		s.inflight[c]++
		h := l.hostState()
		if h.storeDone == nil {
			h.storeDone = func() {
				s.inflight[l.storer]--
				l.res.Release()
			}
		}
		l.storer = int16(c)
		s.eng.After(lat, h.storeDone)
		p.Sleep(s.mach.Costs.StoreIssue)
		s.maybeForward(l, a)
		return l
	}
	// Contended: queue behind in-flight transfers. Having waited in the
	// pipeline, the requester receives the line as a direct handoff rather
	// than launching a fresh full-latency transaction; with multiple rivals
	// queued, the home directory's NACK/retry service adds on top.
	waited := l.res.InUse()+l.res.QueueLen() > 0
	l.res.Acquire(p)
	lat := s.ownershipLat(p, c, a, l)
	l.changed() // copies dropped; no core can hold the line again before the write lands
	if waited && lat > handoffLat {
		lat = handoffLat + s.dirDelay(l, a)
	}
	s.markDirty(c, a, l)
	l.xferStore = true
	// As in Load: release on the fail-stop unwind path too, or the line stays
	// reserved by a corpse and every later requester parks forever.
	func() {
		defer func() {
			l.xferStore = false
			l.res.Release()
		}()
		p.Sleep(lat)
	}()
	s.mem.StoreWord(a, v)
	s.maybeForward(l, a)
	return l
}

// ownershipLat performs the directory updates for core c taking exclusive
// ownership of the line and returns the transaction latency.
func (s *System) ownershipLat(p *sim.Proc, c topo.CoreID, a memory.Addr, l *line) sim.Time {
	var lat sim.Time
	if !l.holds(c) {
		lat = s.fill(c, a, l)
	}
	if inval := s.invalidateOthers(c, a, l); inval > lat {
		lat = inval
	}
	if lat == 0 {
		lat = s.mach.Costs.Store
		return lat
	}
	// Every ownership transfer is serviced by the line's home directory;
	// when many writers hammer lines with a common home, the directory
	// saturates and per-write cost grows with the writer count (Figure 3).
	return lat + s.dirDelay(l, a)
}

// RMW performs an atomic read-modify-write (lock-prefixed instruction) on
// the word at a: the line is held exclusively for the whole operation, so
// concurrent RMWs on one line serialize in FIFO order — the cost structure
// of contended spinlocks and barrier counters.
func (s *System) RMW(p *sim.Proc, c topo.CoreID, a memory.Addr, fn func(uint64) uint64) uint64 {
	l := s.lineFor(a)
	waited := l.res.InUse()+l.res.QueueLen() > 0
	l.res.Acquire(p)
	lat := s.ownershipLat(p, c, a, l)
	l.changed() // as in Store: this nudge covers the write below
	if waited && lat > handoffLat {
		lat = handoffLat + s.dirDelay(l, a)
	}
	s.markDirty(c, a, l)
	var v uint64
	// Release on the fail-stop unwind path too; a lock word whose holder died
	// mid-RMW must not wedge every later RMW on the line.
	func() {
		defer l.res.Release()
		p.Sleep(lat)
		v = fn(s.mem.LoadWord(a))
		s.mem.StoreWord(a, v)
	}()
	s.maybeForward(l, a)
	return v
}

// StoreLine writes a full cache line as one ownership acquisition followed by
// a burst of word stores — the URPC sender's "write the message sequentially
// into the line" fast path (§4.6).
func (s *System) StoreLine(p *sim.Proc, c topo.CoreID, a memory.Addr, vals [memory.WordsPerLine]uint64) {
	base := a.Line().Base()
	if pt := s.part; pt != nil {
		// Forward once, after the full line is written, not per word — the
		// word-0 store's hook is suppressed so the reader's replica never
		// sees a half-written line image.
		l := s.lineFor(base)
		pt.suppress = true
		defer func() {
			pt.suppress = false
			s.maybeForward(l, base)
		}()
	}
	l := s.store(p, c, base, vals[0])
	// Remaining words are hits in the now-exclusive line.
	p.Sleep(s.mach.Costs.Store * sim.Time(memory.WordsPerLine-1))
	s.stats[c].Hits += memory.WordsPerLine - 1
	for i := 1; i < memory.WordsPerLine; i++ {
		s.mem.StoreWord(base+memory.Addr(i*8), vals[i])
	}
	// A contended first store releases the line before these words land,
	// so a reader may hold it again by now.
	l.changed()
}

// LoadLine reads a full cache line: one fill (or hit) plus word reads.
func (s *System) LoadLine(p *sim.Proc, c topo.CoreID, a memory.Addr) [memory.WordsPerLine]uint64 {
	base := a.Line().Base()
	s.Load(p, c, base)
	p.Sleep(s.mach.Costs.L1Hit * sim.Time(memory.WordsPerLine-1))
	s.stats[c].Hits += memory.WordsPerLine - 1
	return s.mem.LoadLine(base)
}

// Prefetch starts bringing the line at a into core c's cache. It models a
// non-binding software prefetch: the line state changes as for a load, but
// the caller is charged only the issue cost, not the fill latency.
func (s *System) Prefetch(p *sim.Proc, c topo.CoreID, a memory.Addr) {
	l := s.lineFor(a)
	if l.holds(c) {
		p.Sleep(1)
		return
	}
	if l.res.TryAcquire() {
		s.fill(c, a, l)
		l.res.Release()
	}
	p.Sleep(1)
}

// DMAWrite models a device writing bytes to memory: all cached copies of the
// affected lines are invalidated (devices are not coherent participants in
// this model) and the data lands in memory.
func (s *System) DMAWrite(a memory.Addr, b []byte, devSocket topo.SocketID) {
	s.mem.StoreBytes(a, b)
	first := a.Line()
	last := (a + memory.Addr(len(b)) - 1).Line()
	for id := first; id <= last; id++ {
		if l := s.lines[id]; l != nil {
			var before LineView
			if s.audit != nil {
				before = l.view()
			}
			l.holders.ForEach(func(h topo.CoreID) {
				s.stats[h].Invalidated++
			})
			l.holders = CoreSet{}
			l.owner = -1
			l.dirty = false
			if s.audit != nil {
				s.audited(id, AuditDMA, -1, before, l, 0)
			}
			l.changed()
		}
		home := s.mem.Home(id.Base())
		if home != devSocket {
			s.fab.Charge(devSocket, home, interconnect.DwordsData)
		}
	}
}
