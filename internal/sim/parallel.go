package sim

// Parallel intra-run simulation: conservative ("null-message-free") parallel
// discrete-event execution over per-partition sub-engines.
//
// The machine is partitioned along socket boundaries (topo.PartitionMap);
// each partition gets its own Engine — event queue, clock, RNG stream, metrics
// registry, procs. Partitions share no simulated state: all cross-partition
// interaction goes through explicit messages, mirroring the multikernel's own
// no-shared-state discipline at the simulator level.
//
// Synchronization is the classic conservative-lookahead barrier. The minimum
// latency of any cross-partition transaction (interconnect.Lookahead) is the
// epoch width L: during epoch [E, E+L) every partition runs its local events
// independently, because no message sent by a peer inside the epoch can be
// due before E+L. Cross-partition sends are appended to the sender's outbox
// and merged into the destination queues at the epoch barrier, in (source
// partition, send order) — a deterministic order independent of how many
// workers executed the epoch, which is what makes parallel runs byte-
// identical to serial ones at any worker count. Epochs are aligned to the
// fixed grid E = k·L, so epoch boundaries — and therefore checkpoint points
// — do not depend on event timing either.
//
// Each epoch runs on the goroutine that called Run or RunUntil. It lists
// the partitions with work due in the epoch (a queued event or a skipped
// idle chain's act at or before its end) and logs the others' boundaries
// directly, which is all RunUntil would do for them. It then claims listed
// partitions off a shared counter and runs each to the epoch end, while up
// to one helper goroutine fewer than the list is long, woken by a
// non-blocking send, claims whatever is left. The caller waits only for
// the partitions a helper claimed, parking on a channel that the helper
// finishing the epoch's last partition sends on; a helper that wakes after
// the caller has claimed everything finds nothing to claim and costs the
// caller nothing. Nothing spins: an epoch can take about a microsecond of
// host time, and a waiter that spins takes a host core from the goroutine
// it waits for. A partition's panic is recovered on the goroutine that ran
// it, and once every claimed partition is done the caller re-panics with
// the lowest-numbered partition's, so a panic surfaces from Run or
// RunUntil at any worker count; an engine callback's is wrapped with the
// partition, the virtual time and the stack it panicked on.
//
// The serial Engine remains the reference implementation: a ParallelEngine
// with workers=1 has no helpers and runs every partition on the caller, and
// the determinism gate in parallel_test.go asserts byte-identical traces,
// metrics and final state across worker counts.

import (
	"bytes"
	"fmt"
	"io"
	"runtime/debug"
	"sync/atomic"

	"multikernel/internal/ckpt"
	"multikernel/internal/metrics"
)

// xsend is one cross-partition message waiting in a source outbox for the
// epoch barrier: a callback, or without one a letter.
type xsend struct {
	at  Time
	dst int32
	fn  func()
	l   Letter
}

// A Letter is a cross-partition message whose payload travels by value
// (Post), so sending one allocates nothing: the cache's forwarded line
// stores are letters.
type Letter struct {
	To   Recipient
	A, B uint64
	Data [8]uint64
}

// Recipient receives letters in its partition's engine context. The letter
// is valid only during the call.
type Recipient interface{ Receive(l *Letter) }

// ParallelEngine coordinates one sub-Engine per partition.
type ParallelEngine struct {
	parts     []*Engine
	lookahead Time
	workers   int

	outbox [][]xsend // per source partition; reused across epochs

	// The epoch barrier (runEpoch): active lists the partitions with work
	// due in the epoch, claim hands them out (the list's length in the high
	// half, claims in the low half), done counts the finished ones, wake
	// releases the helpers, a helper sends on finished when it ran the
	// epoch's last partition and when it exits, and panics holds each
	// partition's recovered panic.
	active   []int
	claim    atomic.Uint64
	done     atomic.Int64
	epochEnd Time
	wake     chan struct{}
	finished chan struct{}
	panics   []any

	// Current epoch window. An epoch stays open across run calls when a
	// RunUntil limit cuts it short; outbox merges happen only when the whole
	// window has executed, so a staged sequence of RunUntil calls assigns
	// destination sequence numbers exactly as one uninterrupted Run would.
	epochLast Time
	epochOpen bool

	stopped atomic.Bool
	closed  bool
}

// NewParallelEngine returns a parallel engine with nparts partitions and the
// given conservative lookahead (the minimum cross-partition message latency;
// see interconnect.Lookahead). Each partition's Engine draws from its own
// RNG stream derived from seed, so results are a function of (seed, nparts)
// alone — never of workers, which only sets the host-goroutine budget and is
// clamped to [1, nparts].
func NewParallelEngine(nparts int, lookahead Time, seed uint64, workers int) *ParallelEngine {
	if nparts < 1 {
		panic("sim: parallel engine needs at least one partition")
	}
	if lookahead == 0 {
		panic("sim: parallel engine needs a positive lookahead")
	}
	pe := &ParallelEngine{
		parts:     make([]*Engine, nparts),
		lookahead: lookahead,
		workers:   min(max(workers, 1), nparts),
		outbox:    make([][]xsend, nparts),
		active:    make([]int, 0, nparts),
		finished:  make(chan struct{}, 1),
		panics:    make([]any, nparts),
	}
	for i := range pe.parts {
		pe.parts[i] = NewEngine(seed + uint64(i)*0x9e3779b97f4a7c15)
	}
	pe.wake = make(chan struct{}, pe.workers-1) // a token per helper
	for range pe.workers - 1 {
		go pe.help()
	}
	return pe
}

// help is one helper goroutine: each time it is woken, it runs the
// partitions it claims, and tells the caller if it finished the epoch's last
// one. Once Close closes wake, it tells Close that it has exited.
func (pe *ParallelEngine) help() {
	for range pe.wake {
		if pe.runClaimed() {
			pe.finished <- struct{}{}
		}
	}
	pe.finished <- struct{}{}
}

// runClaimed claims and runs listed partitions until none is left, and
// reports whether it finished the epoch's last one. A partition's panic
// ends the loop; the deferred call records it for partition i, counts the
// partition as done and claims on. A claim reads the list's length from
// the same word as its index, so it is the length of the epoch it claimed
// in: the caller stores length and a zero index together, after writing
// the list and epochEnd and after every partition of the epoch before is
// done. A claim with an index below that length therefore sees this
// epoch's list and end, and the caller cannot write the next epoch's
// until the claimed partition is done; a claim made after the epoch's
// last one, however late, finds an index past the length.
func (pe *ParallelEngine) runClaimed() (last bool) {
	var i, n int
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procPanicked); !ok {
				r = fmt.Sprintf("sim: partition %d panicked at t=%d: %v\n%s", i, pe.parts[i].now, r, debug.Stack())
			}
			pe.panics[i] = r
			last = pe.done.Add(1) == int64(n) || pe.runClaimed()
		}
	}()
	for {
		c := pe.claim.Add(1)
		k := int(uint32(c)) - 1
		if n = int(c >> 32); k >= n {
			return last
		}
		i = pe.active[k]
		pe.parts[i].RunUntil(pe.epochEnd)
		last = pe.done.Add(1) == int64(n)
	}
}

// NParts returns the partition count.
func (pe *ParallelEngine) NParts() int { return len(pe.parts) }

// Workers returns the effective worker count.
func (pe *ParallelEngine) Workers() int { return pe.workers }

// Lookahead returns the epoch width in cycles.
func (pe *ParallelEngine) Lookahead() Time { return pe.lookahead }

// Part returns the sub-engine of partition i, for setup (spawning procs,
// registering components) and post-run inspection. During Run, partition
// state must only be touched by that partition's own procs.
func (pe *ParallelEngine) Part(i int) *Engine { return pe.parts[i] }

// Spawn creates a proc on partition part.
func (pe *ParallelEngine) Spawn(part int, name string, fn func(p *Proc)) *Proc {
	return pe.parts[part].Spawn(name, fn)
}

// Send is a cross-partition message: fn runs in partition dst's engine
// context at the sender's current time plus delay. It must be called from
// simulated code of partition src (its procs or engine callbacks), and
// delay must be at least the lookahead — that is the conservative contract
// that lets partitions run an epoch unsynchronized.
func (pe *ParallelEngine) Send(src, dst int, delay Time, fn func()) {
	if delay < pe.lookahead {
		panic(fmt.Sprintf("sim: cross-partition delay %d below lookahead %d", delay, pe.lookahead))
	}
	pe.outbox[src] = append(pe.outbox[src], xsend{
		at: pe.parts[src].now + delay, dst: int32(dst), fn: fn,
	})
}

// Post is Send for a letter: l.To.Receive runs with a copy of *l in
// partition dst's engine context at the sender's current time plus delay.
func (pe *ParallelEngine) Post(src, dst int, delay Time, l *Letter) {
	if delay < pe.lookahead {
		panic(fmt.Sprintf("sim: cross-partition delay %d below lookahead %d", delay, pe.lookahead))
	}
	pe.outbox[src] = append(pe.outbox[src], xsend{
		at: pe.parts[src].now + delay, dst: int32(dst), l: *l,
	})
}

// letterBox holds a merged letter until its delivery event runs. An engine
// pools its boxes, each with its delivery callback made once, so a
// delivery allocates nothing.
type letterBox struct {
	l    Letter
	run  func()
	next *letterBox
}

// boxLetter returns the callback that delivers a copy of l.
func (e *Engine) boxLetter(l *Letter) func() {
	b := e.freeLetters
	if b == nil {
		b = new(letterBox)
		b.run = func() {
			b.l.To.Receive(&b.l)
			b.l = Letter{}
			b.next, e.freeLetters = e.freeLetters, b
		}
	} else {
		e.freeLetters = b.next
	}
	b.l = *l
	return b.run
}

// earliest returns the earliest pending event time across all partitions,
// or ^Time(0) when every queue is empty, or a time that stands for it: in
// its grid epoch, and at most limit if and only if it is. A skipped idle
// step counts as the event it stands for, so epochs fall as in the
// reference schedule. A live chain's next step comes no earlier than its
// engine's current dispatch point, and after it if that is a RunUntil
// boundary, as between epochs. So once the earliest queued event is at most
// limit and its epoch starts no later than every such bound, it stands for
// the answer, and the chains' next steps need not be found.
func (pe *ParallelEngine) earliest(limit Time) Time {
	t, bound := ^Time(0), ^Time(0)
	for _, p := range pe.parts {
		t = min(t, p.headAt)
		if len(p.chains) > 0 {
			pt := p.cur()
			if pt.seq == endPoint {
				bound = min(bound, pt.at+1)
			} else {
				bound = min(bound, pt.at)
			}
		}
	}
	if bound == ^Time(0) || t <= limit && t-t%pe.lookahead <= bound {
		return t
	}
	for _, p := range pe.parts {
		if len(p.chains) > 0 {
			t = min(t, p.nextStep())
		}
	}
	return t
}

// runEpoch executes every partition up to and including time last: it
// lists the partitions with work due, logs the others' boundaries, wakes
// helpers for all but one listed partition, runs the partitions it claims,
// waits for those a helper claimed, and re-panics with the lowest-numbered
// partition's panic.
func (pe *ParallelEngine) runEpoch(last Time) {
	pe.active = pe.active[:0]
	for i, p := range pe.parts {
		if p.headAt <= last || p.chainAt <= last {
			pe.active = append(pe.active, i)
		} else {
			p.boundary(last)
		}
	}
	n := len(pe.active)
	if n == 0 {
		return
	}
	pe.epochEnd = last
	pe.done.Store(0)
	pe.claim.Store(uint64(n) << 32)
	for range min(pe.workers, n) - 1 {
		select {
		case pe.wake <- struct{}{}:
		default: // a token already waits for a helper
		}
	}
	if !pe.runClaimed() {
		<-pe.finished // a helper runs the epoch's last partition
	}
	for _, r := range pe.panics {
		if r != nil {
			clear(pe.panics)
			panic(r)
		}
	}
}

// mergeOutboxes drains every outbox into the destination queues, in (source
// partition, send order) — the deterministic merge that decouples results
// from worker count. Outbox slices keep their capacity across epochs, so the
// steady-state barrier path does not allocate.
func (pe *ParallelEngine) mergeOutboxes() {
	for src := range pe.outbox {
		box := pe.outbox[src]
		for i := range box {
			s := &box[i]
			if d := pe.parts[s.dst]; s.fn != nil {
				d.scheduleAt(s.at, s.fn)
				s.fn = nil // drop the closure reference while pooled
			} else {
				d.scheduleAt(s.at, d.boxLetter(&s.l))
				s.l.To = nil
			}
		}
		pe.outbox[src] = box[:0]
	}
}

// run executes barrier epochs until no events remain at or before limit, or
// Stop is called. When limit lands inside an epoch, the window stays open —
// partitions have run only part of it and cross-partition sends stay in the
// outboxes — and the next call resumes it. Merging happens only once the full
// window has executed: every message sent inside epoch [E, E+L) is due at or
// after E+L, so deferring the merge to the true barrier is always safe, and it
// keeps destination queues (and their sequence numbers) byte-identical between
// a staged sequence of RunUntil calls and one uninterrupted Run.
func (pe *ParallelEngine) run(limit Time) {
	pe.stopped.Store(false)
	for !pe.stopped.Load() {
		if !pe.epochOpen {
			// Deliver sends made from driver context between runs (seeding
			// work onto a quiescent or freshly-restored engine). At a closed
			// epoch every partition clock is below any send's due time, and in
			// the steady state the outboxes are already empty here.
			pe.mergeOutboxes()
			next := pe.earliest(limit)
			if next == ^Time(0) || next > limit {
				return
			}
			// Epoch [start, start+L) on the fixed grid start = k·L.
			start := next - next%pe.lookahead
			last := start + pe.lookahead - 1
			if last < start { // start+L overflowed
				last = ^Time(0)
			}
			pe.epochLast, pe.epochOpen = last, true
		}
		if pe.epochLast > limit {
			pe.runEpoch(limit)
			return // window still open; outboxes keep their pending sends
		}
		pe.runEpoch(pe.epochLast)
		pe.mergeOutboxes()
		pe.epochOpen = false
	}
}

// Run processes events in all partitions until every queue is empty or Stop
// is called.
func (pe *ParallelEngine) Run() { pe.run(^Time(0)) }

// RunUntil processes events in all partitions up to and including virtual
// time t, then advances every partition clock to t.
func (pe *ParallelEngine) RunUntil(t Time) {
	pe.run(t)
	for _, p := range pe.parts {
		p.boundary(t)
	}
}

// Stop makes Run return at the next epoch barrier. It is safe to call from
// simulated code in any partition; because it takes effect at the barrier,
// the stopping point is the same at every worker count.
func (pe *ParallelEngine) Stop() { pe.stopped.Store(true) }

// Deadlocked reports non-daemon procs parked with no pending wakeup across
// all partitions, each prefixed with its partition ("p3/core-12"). A
// cross-partition deadlock — a proc waiting on a message its peer partition
// never sends — drains every queue and shows up here, exactly like a local
// one.
func (pe *ParallelEngine) Deadlocked() []string {
	var out []string
	for i, p := range pe.parts {
		for _, name := range p.Deadlocked() {
			out = append(out, fmt.Sprintf("p%d/%s", i, name))
		}
	}
	return out
}

// MetricsSnapshot merges every partition's registry into one snapshot.
func (pe *ParallelEngine) MetricsSnapshot() metrics.Snapshot {
	var s metrics.Snapshot
	for _, p := range pe.parts {
		s.Merge(p.Metrics().Snapshot())
	}
	return s
}

// Close stops the helper goroutines, waits for them to exit, and closes
// every partition engine in partition order, releasing proc goroutines and
// flushing telemetry.
func (pe *ParallelEngine) Close() {
	if pe.closed {
		return
	}
	pe.closed = true
	close(pe.wake)
	for range pe.workers - 1 {
		<-pe.finished
	}
	for _, p := range pe.parts {
		p.Close()
	}
}

// ---------------------------------------------------------------------------
// Checkpoint: a parallel checkpoint is the per-partition engine images plus
// the epoch geometry. Engine.Checkpoint's quiescence rule applies per
// partition; pending cross-partition deliveries are engine callbacks and are
// rejected there, so a parallel image is always taken at a barrier with
// empty mailboxes. Nothing restores one: the image is the digest that
// identity checks compare across worker counts.

const pckptMagic = "MKPCKP1\n"

// Checkpoint serializes all partitions to w. Call between Run calls.
func (pe *ParallelEngine) Checkpoint(w io.Writer) error {
	for i := range pe.outbox {
		if len(pe.outbox[i]) > 0 {
			return fmt.Errorf("sim: checkpoint with undelivered cross-partition messages from partition %d (mid-epoch)", i)
		}
	}
	if err := ckpt.Magic(w, pckptMagic); err != nil {
		return err
	}
	if err := ckpt.WriteU64(w, uint64(len(pe.parts)), uint64(pe.lookahead)); err != nil {
		return err
	}
	var blob bytes.Buffer
	for i, p := range pe.parts {
		blob.Reset()
		if err := p.Checkpoint(&blob); err != nil {
			return fmt.Errorf("sim: checkpoint partition %d: %w", i, err)
		}
		if err := ckpt.WriteBytes(w, blob.Bytes()); err != nil {
			return err
		}
	}
	return ckpt.Magic(w, ckptTrailer)
}
