package sim

// Skipped idle passes across events.
//
// A Proc.Idle loop whose steps find nothing runs on a fixed schedule: each
// step sleeps a known gap and changes only the loop's own position and
// counters. Idle lets such a loop hand the engine that schedule (its
// Sweep, where it stands in it and the step at which it must act). The
// engine then runs no event for the steps before that one while other
// procs' events run: the loop's stretch becomes a chain, one record with
// one pending wakeup, the act. The act moves earlier when the loop is
// nudged (a watched line changed, a request or notify arrived, the proc was
// killed, a perturb hook was installed): it becomes the first step after
// the point that nudged. When the act dispatches, the owner derives its
// state from the number of steps skipped, and the step runs as usual.
//
// Sequence numbers. A skipped step takes no sequence number, yet the
// reference schedule, where every step is a queued event, gives each step's
// wakeup the number after every schedule made before the step before it ran.
// So a chain's step k sorts just after the counter value at the first
// dispatch point that followed its step k-1: an event with sequence number
// s at the same cycle runs first if s is at most that value. The engine
// keeps a log of its dispatch points while a chain is live (popped events,
// in-place wakeups, acts, and a boundary at the end of each RunUntil, after
// which driver code may schedule), each with the counter value it began
// with, and reads that value from it. Two steps of different chains at one
// cycle run in the order of the steps that scheduled them, so the engine
// compares those, and on back, until the times differ or one reaches the
// point that started its chain; steps at a point compare by the point's
// position. This order is the reference's order exactly, so the act takes
// the place in (time, sequence) order that the skipped steps would have
// given it, and every comparison between virtual and real events comes out
// as it would have.
//
// Counts. The counter runs behind the reference while chains are live:
// starts (each chain's first wakeup) and skips (steps that ran without an
// event) are added back when the last chain ends, and reads of the derived
// registry metrics add them as of the current point. An event scheduled
// while the counter runs behind carries a number below the reference's,
// which orders the same but would not checkpoint to the same bytes, so
// Checkpoint refuses an image that holds one.

import (
	"encoding/binary"
	"sort"
	"sync"
)

// Sweep is the cyclic schedule of an idle loop's quiet steps: one sweep is
// a fixed sequence of steps, each followed by a positive gap, and the loop
// repeats it. Steps are indexed from step 0 of sweep 0 on.
type Sweep struct {
	gap []Time // gap[i]: cycles from step i of a sweep to the step after it
	off []Time // off[i]: cycles from step 0 to step i of a sweep; off[len(gap)] is the period
}

// sweeps holds the one Sweep of each gap list, for every engine and
// goroutine: loops with equal schedules share it, which lets the engine
// order their in-phase steps cheaply (stepLess). A Sweep never changes.
var sweeps sync.Map // the gaps' bytes -> *Sweep

// NewSweep returns the sweep whose step i is followed by gaps[i]; equal gap
// lists get the same one.
func NewSweep(gaps []Time) *Sweep {
	if len(gaps) == 0 {
		panic("sim: a sweep needs at least one step")
	}
	key := make([]byte, 0, 8*len(gaps))
	for _, g := range gaps {
		key = binary.LittleEndian.AppendUint64(key, uint64(g))
	}
	if s, ok := sweeps.Load(string(key)); ok {
		return s.(*Sweep)
	}
	off := make([]Time, len(gaps)+1)
	for i, g := range gaps {
		if g == 0 {
			panic("sim: a sweep's gaps must be positive")
		}
		off[i+1] = off[i] + g
	}
	s, _ := sweeps.LoadOrStore(string(key), &Sweep{gap: append([]Time(nil), gaps...), off: off})
	return s.(*Sweep)
}

// Len returns the number of steps in one sweep.
func (s *Sweep) Len() uint64 { return uint64(len(s.gap)) }

// period returns the cycles one sweep takes.
func (s *Sweep) period() Time { return s.off[len(s.gap)] }

// At returns the cycles from step 0 of sweep 0 to step i.
func (s *Sweep) At(i uint64) Time {
	n := s.Len()
	return Time(i/n)*s.period() + s.off[i%n]
}

// Ceil returns the least step index i with At(i) >= d. Idle loops ask for
// it at every chain start, so it divides once and searches with no call.
func (s *Sweep) Ceil(d Time) uint64 {
	per := s.period()
	q := d / per
	r := d - q*per
	lo, hi := 0, len(s.gap) // off[len(gap)] is the period, above r
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); s.off[h] < r {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return uint64(q)*s.Len() + uint64(lo)
}

// chain is a live run of an idle loop's skipped steps. Step k >= 1 runs at
// sweep index first+k-1, step 1 at t1; step 0 is the step that started the
// chain, at the dispatch point entry.
type chain struct {
	p     *Proc
	sw    *Sweep
	first uint64
	t1    Time
	act   uint64 // the step that runs as an event
	actAt Time
	ran   uint64 // steps the owner has been settled through
	entry point
	c1    uint64 // the counter as the entry step ran: step 1's bound
	// The bound of step lk+1 (the counter at the first point after step
	// lk), once computed; lk == 0 means none.
	lk, lc uint64
	// pins counts the logged points and other chains' entries that name
	// this chain; an ended chain with none returns to the free list.
	pins  int
	ended bool
}

// at returns the time of step k.
func (c *chain) at(k uint64) Time {
	if k == 0 {
		return c.entry.at
	}
	return c.t1 + c.sw.At(c.first+k-1) - c.sw.At(c.first)
}

// from returns the first step at or after t.
func (c *chain) from(t Time) uint64 {
	if t <= c.t1 {
		return 1
	}
	return c.sw.Ceil(t-c.t1+c.sw.At(c.first)) - c.first + 1
}

// phase is the cycle, modulo the period, at which the chain's sweeps
// start. Two chains on one Sweep with equal phases run their steps at the
// same cycles.
func (c *chain) phase() Time {
	per := c.sw.period()
	return (c.t1%per + per - c.sw.off[c.first%c.sw.Len()]) % per
}

// point is one dispatch point in the log kept while chains are live.
type point struct {
	at  Time
	seq uint64 // the event's sequence number, endPoint, or the act's step
	ch  *chain // the chain whose act this point is, or nil
	cb  uint64 // the counter as the point began
	ord uint64 // the point's position in dispatch order
}

// endPoint is the seq of a point that follows every skipped step at its
// cycle: a RunUntil boundary, or an event a perturb hook demoted.
const endPoint = ^uint64(0)

// note logs a dispatch point: an event numbered seq, or with ch, the act
// of ch's step seq.
func (e *Engine) note(at Time, seq uint64, ch *chain) {
	if len(e.plog) == cap(e.plog) && len(e.plog) >= 1024 {
		e.trim()
	}
	e.pord++
	if ch != nil {
		ch.pins++
	}
	e.plog = append(e.plog, point{at: at, seq: seq, ch: ch, cb: e.seq, ord: e.pord})
}

// notePop logs the dispatch of a queued event.
func (e *Engine) notePop(ev *event) {
	seq := ev.seq
	if ev.pri > 0 {
		seq = endPoint // demoted past every skipped step at its cycle
	}
	e.note(ev.at, seq, nil)
}

// trim drops the points no comparison reaches. A comparison reads points
// at the cycles of live chains' steps and entries, and, where a step ties
// with a live chain's entry, at the steps a few gaps before it; the margin
// of two periods keeps those, and bound panics if one is ever missing.
//
// A lone live chain's entry is read only by a walk back from a tie with an
// older chain's step, and the only older chains left are ended ones whose
// acts are logged. So while it is alone and no point of its last two
// periods is another chain's act, only those points stay: a wait skipped
// as one long stretch does not keep every point since it began.
func (e *Engine) trim() {
	cut := ^Time(0)
	for _, c := range e.chains {
		cut = min(cut, c.entry.at-min(c.entry.at, 2*c.sw.period()))
	}
	if len(e.chains) == 1 {
		recent := e.now - min(e.now, 2*e.chains[0].sw.period())
		j := sort.Search(len(e.plog), func(j int) bool { return e.plog[j].at >= recent })
		for ; j < len(e.plog) && e.plog[j].ch == nil; j++ {
		}
		if j == len(e.plog) {
			cut = max(cut, recent)
		}
	}
	i := sort.Search(len(e.plog), func(i int) bool { return e.plog[i].at >= cut })
	if i > 0 {
		e.plogFrom = cut
		e.unpinPoints(e.plog[:i])
		e.plog = append(e.plog[:0], e.plog[i:]...)
	}
}

// unpinPoints drops the pins of points leaving the log.
func (e *Engine) unpinPoints(pts []point) {
	for i := range pts {
		if c := pts[i].ch; c != nil {
			e.unpin(c)
		}
	}
}

// unpin drops one pin of c, and recycles c once it has ended and nothing
// names it.
func (e *Engine) unpin(c *chain) {
	for c != nil {
		if c.pins--; c.pins > 0 || !c.ended {
			return
		}
		next := c.entry.ch
		*c = chain{}
		e.freeChains = append(e.freeChains, c)
		c = next
	}
}

// bound returns step k of c's bound: an event with sequence number s at
// step k's cycle runs before the step if s <= bound. Step k-1 must have run.
func (e *Engine) bound(c *chain, k uint64) uint64 {
	if k == 1 {
		return c.c1
	}
	if c.lk == k-1 {
		return c.lc
	}
	t := c.at(k - 1)
	if t < e.plogFrom {
		panic("sim: the dispatch log no longer holds a point a skipped step's order needs")
	}
	i := sort.Search(len(e.plog), func(i int) bool { return e.plog[i].at >= t })
	for ; i < len(e.plog) && e.plog[i].at == t; i++ {
		if e.before(c, k-1, &e.plog[i]) {
			break
		}
	}
	b := e.seq // no point has followed step k-1 yet: the next one begins now
	if i < len(e.plog) {
		b = e.plog[i].cb
	}
	c.lk, c.lc = k-1, b
	return b
}

// before reports whether step k of c runs before the logged point pt at the
// same cycle.
func (e *Engine) before(c *chain, k uint64, pt *point) bool {
	switch {
	case pt.ch == c && pt.seq == k:
		return false // the point is this step
	case pt.ch != nil:
		return e.stepLess(c, k, pt.ch, pt.seq)
	case pt.seq == endPoint:
		return true
	}
	return pt.seq > e.bound(c, k)
}

// stepLess reports whether step i of x runs before step j of y, two steps
// of different chains at the same cycle. Each runs in the order of the step
// that scheduled it, so the walk compares those, and on back, until their
// times differ or one reaches its chain's entry point. Two chains that run
// the same sweep in phase tie at every step, so the walk jumps straight to
// the younger chain's first step.
func (e *Engine) stepLess(x *chain, i uint64, y *chain, j uint64) bool {
	if x.sw == y.sw && i > 1 && j > 1 && x.phase() == y.phase() {
		d := min(i, j) - 1
		i, j = i-d, j-d
	}
	// Until one side reaches step 1, the schedulers of steps i and j are
	// steps i-1 and j-1, a gap of their own sweeps earlier: the one with
	// the longer gap ran first.
	if i > 1 && j > 1 {
		nx, ny := x.sw.Len(), y.sw.Len()
		px, py := (x.first+i-2)%nx, (y.first+j-2)%ny
		for ; i > 1 && j > 1; i, j = i-1, j-1 {
			if gx, gy := x.sw.gap[px], y.sw.gap[py]; gx != gy {
				return gx > gy
			}
			px, py = (px+nx-1)%nx, (py+ny-1)%ny
		}
	}
	// One scheduler is an entry point.
	i, j = i-1, j-1
	if tx, ty := x.at(i), y.at(j); tx != ty {
		return tx < ty
	}
	switch {
	case i == 0 && j == 0:
		return x.entry.ord < y.entry.ord
	case i == 0:
		return !e.before(y, j, &x.entry)
	}
	return e.before(x, i, &y.entry)
}

// cur returns the current dispatch point: the last one logged.
func (e *Engine) cur() *point { return &e.plog[len(e.plog)-1] }

// next returns c's first step after the current point, at most its act.
func (e *Engine) next(c *chain) uint64 {
	pt := e.cur()
	k := c.from(pt.at)
	if k < c.act && c.at(k) == pt.at && e.before(c, k, pt) {
		k++
	}
	return min(k, c.act)
}

// startChain offers p's idle loop, whose step just asked to sleep d, the
// chance to skip its steps, and reports whether it took it.
func (e *Engine) startChain(p *Proc, d Time) bool {
	t1 := e.now + d
	sw, first, act := p.quiet(t1)
	if act < 2 || t1 > Forever {
		return false
	}
	// No step runs past Forever: a loop that never acts (a Spin receive)
	// stops at the last step before it. Step act runs at most act+1
	// periods after t1, so below these bounds it runs before Forever and
	// needs no cut.
	if act >= 1<<32 || t1 >= 1<<61 || sw.period() >= 1<<28 {
		if act = min(act, sw.Ceil(Forever+1-t1+sw.At(first))-first); act < 2 {
			return false
		}
	}
	if len(e.chains) == 0 {
		// No chain has a step at any earlier cycle, so nothing compares
		// with this entry but its own chain's bound.
		e.unpinPoints(e.plog)
		e.plog, e.plogFrom = e.plog[:0], 0
		e.note(e.now, e.seq, nil)
		if e.lagLo == 0 {
			e.lagLo = e.seq + 1
		}
	}
	var c *chain
	if n := len(e.freeChains); n > 0 {
		c, e.freeChains = e.freeChains[n-1], e.freeChains[:n-1]
	} else {
		c = new(chain)
	}
	*c = chain{p: p, sw: sw, first: first, t1: t1, act: act, entry: *e.cur(), c1: e.seq}
	if c.entry.ch != nil {
		c.entry.ch.pins++
	}
	c.actAt = c.at(act)
	e.chains = append(e.chains, c)
	p.chain = c
	e.starts++
	e.noteDepth(e.pending + len(e.chains))
	e.chainAt = min(e.chainAt, c.actAt)
	return true
}

// nextAct returns the chain whose act runs next, or nil when the queue's
// head runs first. Some chain's act is at chainAt <= headAt.
func (e *Engine) nextAct() *chain {
	var c *chain
	for _, o := range e.chains {
		if o.actAt == e.chainAt && (c == nil || e.stepLess(o, o.act, c, c.act)) {
			c = o
		}
	}
	if e.headAt == e.chainAt && e.head.pri == 0 && e.head.seq <= e.bound(c, c.act) {
		return nil
	}
	return c
}

// runAct dispatches c's act: it logs the point, settles the owner through
// the skipped steps and ends the chain. The owner's wakeup follows.
func (e *Engine) runAct(c *chain) {
	e.now = c.actAt
	e.note(c.actAt, c.act, c)
	e.settle(c, c.act-1)
	for i, o := range e.chains {
		if o == c {
			last := len(e.chains) - 1
			e.chains[i], e.chains[last] = e.chains[last], nil
			e.chains = e.chains[:last]
			break
		}
	}
	c.p.chain = nil
	c.ended = true // its act point pins it
	e.chainAt = ^Time(0)
	for _, o := range e.chains {
		e.chainAt = min(e.chainAt, o.actAt)
	}
	if len(e.chains) == 0 {
		e.fold()
	}
}

// settle tells c's owner that its steps 1..n have run.
func (e *Engine) settle(c *chain, n uint64) {
	if n <= c.ran {
		return
	}
	e.skips += n - c.ran
	e.skipped += n - c.ran
	c.ran = n
	c.p.settle(n)
}

// fold adds the wakeups chains took without sequence numbers to the
// counter, once no chain will skip another step: from here on, numbers are
// the reference's.
func (e *Engine) fold() {
	if e.starts+e.skips == 0 {
		return
	}
	e.lagHi = e.seq
	e.seq += e.starts + e.skips
	e.starts, e.skips = 0, 0
}

// Settle brings the owner of every live chain up to the current point, so
// that counters derived from skipped steps (cache hits) read as the
// reference schedule's would. Readers of such counters call it first.
func (e *Engine) Settle() {
	for _, c := range e.chains {
		e.settle(c, e.next(c)-1)
	}
}

// SkippedSteps returns how many idle steps ran without an event: host-side
// work the engine saved, not a virtual quantity.
func (e *Engine) SkippedSteps() uint64 {
	e.Settle()
	return e.skipped
}

// nudge moves c's act to its first step after the current point.
func (e *Engine) nudge(c *chain) {
	if k := e.next(c); k < c.act {
		c.act, c.actAt = k, c.at(k)
		e.chainAt = min(e.chainAt, c.actAt)
	}
}

// Nudge tells p's idle loop that something its quiet steps depend on
// changed at the current point: if the engine is skipping its steps, the
// first step after this point runs as an event. Safe to call from any
// context; a no-op for a proc whose steps are not being skipped.
func (p *Proc) Nudge() {
	if c := p.chain; c != nil && !p.e.closing {
		p.e.nudge(c)
	}
}

// NudgeAll nudges every proc whose idle steps are being skipped.
func (e *Engine) NudgeAll() {
	for _, c := range e.chains {
		e.nudge(c)
	}
}

// nextStep returns the earliest step of any live chain after the current
// point, or ^Time(0).
func (e *Engine) nextStep() Time {
	t := ^Time(0)
	for _, c := range e.chains {
		t = min(t, c.at(e.next(c)))
	}
	return t
}

// boundary advances the clock to t at the end of a run and logs the point
// after which driver code may schedule: every step up to t has run. When
// the last point is the previous boundary and nothing has been scheduled
// since, that point moves to t instead: a step at its old cycle then finds
// no point there and reads the same counter from the moved one, so every
// order comes out as with both logged. (Without a perturb hook, the only
// points past every skipped step are boundaries.) A partition of a
// ParallelEngine that has no work in an epoch logs its boundary this way.
func (e *Engine) boundary(t Time) {
	if e.now < t {
		e.now = t
	}
	if len(e.chains) == 0 {
		return
	}
	if pt := e.cur(); pt.seq == endPoint && pt.cb == e.seq && e.perturb == nil {
		pt.at = e.now
		return
	}
	e.note(e.now, endPoint, nil)
}
