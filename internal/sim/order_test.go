package sim

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
)

// refKey is one queued event as the dispatch-order reference sees it: its
// (at, pri, seq) key and the name of what it runs — a proc, a callback or a
// cross-partition message.
type refKey struct {
	at       Time
	pri, seq uint64
	owner    string
}

func (a refKey) before(b refKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// orderRef is the reference queue of one engine. A scenario announces each
// scheduling call before it makes it (will) and reports each dispatch it
// observes (took). Every dispatch must take the least pending key, as one
// sorted list of the same scheduling calls would.
type orderRef struct {
	t      *testing.T
	e      *Engine
	keys   []refKey // announced and not yet taken
	maxSeq uint64   // highest sequence number announced
	// Under a perturb hook the hook files each key, as only it knows the
	// jitter and the priority; owner names the announced event.
	rng   *RNG
	owner string
	// merged returns the (at, owner) of the n mailbox deliveries an epoch
	// barrier scheduled since the last announcement, in merge order.
	merged func(n int) []refKey
	taken  int
	failed bool
}

func newOrderRef(t *testing.T, e *Engine, hookSeed uint64) *orderRef {
	r := &orderRef{t: t, e: e}
	if hookSeed != 0 {
		r.rng = NewRNG(hookSeed)
		e.SetPerturb(r.hook)
	}
	return r
}

func (r *orderRef) fail(format string, args ...any) {
	if !r.failed {
		r.failed = true
		r.t.Errorf(format, args...)
	}
}

// hook is a seeded perturb hook: jitter of up to two cycles and priorities
// 0 to 2, so that ties within a cycle are common and reordered.
func (r *orderRef) hook(now, d Time, seq uint64) (Time, uint64) {
	extra, pri := r.rng.Time(3), r.rng.Uint64()%3
	if r.owner == "" {
		r.fail("t=%d: unannounced schedule, seq %d", now, seq)
	}
	r.file(refKey{now + d + extra, pri, seq, r.owner})
	r.owner = ""
	return extra, pri
}

func (r *orderRef) file(k refKey) {
	r.keys = append(r.keys, k)
	r.maxSeq = k.seq
}

// sync files the mailbox deliveries merged since the last announcement:
// they took the sequence numbers no announcement took.
func (r *orderRef) sync() {
	n := r.e.seq - r.maxSeq
	if n == 0 {
		return
	}
	if r.merged == nil {
		r.fail("t=%d: %d unannounced schedules", r.e.now, n)
		r.maxSeq = r.e.seq
		return
	}
	for _, k := range r.merged(int(n)) {
		k.seq = r.maxSeq + 1
		r.file(k)
	}
}

// will announces that owner is about to be scheduled d cycles from now.
func (r *orderRef) will(owner string, d Time) {
	r.sync()
	if r.rng != nil {
		r.owner = owner
		return
	}
	r.file(refKey{r.e.now + d, 0, r.e.seq + 1, owner})
}

// took reports that owner's event has just been dispatched.
func (r *orderRef) took(owner string) {
	r.sync()
	if r.failed {
		return
	}
	if len(r.keys) == 0 {
		r.fail("dispatch %d: %s at t=%d with nothing queued", r.taken, owner, r.e.now)
		return
	}
	min := 0
	for i := range r.keys {
		if r.keys[i].before(r.keys[min]) {
			min = i
		}
	}
	k := r.keys[min]
	if k.owner != owner || k.at != r.e.now {
		r.fail("dispatch %d: %s at t=%d; the reference takes %s at t=%d (pri %d, seq %d)",
			r.taken, owner, r.e.now, k.owner, k.at, k.pri, k.seq)
	}
	r.keys = append(r.keys[:min], r.keys[min+1:]...)
	r.taken++
}

// done checks that a finished run left nothing in the reference.
func (r *orderRef) done(minTaken int) {
	r.sync()
	if len(r.keys) > 0 {
		r.fail("%d announced events never dispatched, first %+v", len(r.keys), r.keys[0])
	}
	if r.taken < minTaken {
		r.t.Errorf("only %d dispatches observed, want at least %d", r.taken, minTaken)
	}
}

// orderDelay picks a delay around the calendar's edges, far past it, or
// short, so that near and far events often fall due in the same cycle.
func orderDelay(rng *RNG) Time {
	edges := []Time{0, 1, 2, 3, calSpan - 2, calSpan - 1, calSpan, calSpan + 1, calSpan + 2, 3 * calSpan}
	if rng.Intn(8) == 0 {
		return 20*calSpan + rng.Time(4)
	}
	return edges[rng.Intn(len(edges))]
}

// orderMix runs a random mix of Spawn, Sleep, After, Park/Wake and
// Proc.Idle on e, announcing every scheduling call to r and reporting every
// dispatch, and drives it through a series of RunUntil limits.
func orderMix(r *orderRef, rng *RNG) {
	e := r.e
	var procs []*Proc
	names := map[*Proc]string{}
	serial := 0
	id := func(kind string) string {
		serial++
		return fmt.Sprintf("%s%d", kind, serial)
	}
	wake := func() {
		if len(procs) == 0 {
			return
		}
		target := procs[rng.Intn(len(procs))]
		if target.waiting {
			r.will(names[target], 0)
		}
		e.Wake(target)
	}
	after := func(d Time) {
		cb := id("cb")
		r.will(cb, d)
		e.After(d, func() {
			r.took(cb)
			if rng.Intn(2) == 0 {
				wake()
			}
		})
	}
	var spawn func(iters int)
	spawn = func(iters int) {
		name := id("proc")
		r.will(name, 0)
		p := e.Spawn(name, func(p *Proc) {
			r.took(name)
			for i := 0; i < iters; i++ {
				switch rng.Intn(8) {
				case 0, 1:
					d := orderDelay(rng)
					r.will(name, d)
					p.Sleep(d)
					r.took(name)
				case 2:
					after(orderDelay(rng))
				case 3:
					wake()
				case 4:
					woken := !p.token // a token makes Park return at once, with no event
					p.Park()
					if woken {
						r.took(name)
					}
				case 5:
					steps, woke := 1+rng.Intn(4), false
					p.Idle(func() (Time, bool) {
						if woke {
							r.took(name)
						}
						if steps == 0 {
							return 0, true
						}
						steps--
						if rng.Intn(3) == 0 {
							wake()
						}
						d := orderDelay(rng)
						r.will(name, d)
						woke = true
						return d, false
					}, nil, nil)
				case 6:
					if iters > 8 {
						spawn(8)
					}
				case 7:
					for k := 0; k < 3; k++ { // same-cycle ties
						after(Time(rng.Intn(2)))
					}
				}
			}
		})
		procs = append(procs, p)
		names[p] = name
	}
	for i := 0; i < 12; i++ {
		spawn(40)
	}
	for k := 0; k < 8; k++ {
		limits := []Time{1, calSpan - 1, calSpan, 3 * calSpan}
		e.RunUntil(e.Now() + limits[rng.Intn(len(limits))])
		after(orderDelay(rng)) // from driver context, after the clock jump
	}
	e.Run()
}

// TestDispatchOrderMatchesReference checks the event queue against a
// reference that sorts the same scheduling calls by (at, pri, seq): random
// mixes of every scheduling path, with delays on both sides of the
// calendar's span and far beyond it, same-cycle ties, RunUntil limits, a
// Checkpoint/Restore mid-run and ParallelEngine mailbox merges, each with
// no perturb hook (in-place wakeups on) and with a seeded hook that gives
// events non-zero priorities.
func TestDispatchOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		for _, hook := range []uint64{0, seed * 977} {
			t.Run(fmt.Sprintf("seed%d/hook%d", seed, hook), func(t *testing.T) {
				e := NewEngine(seed)
				r := newOrderRef(t, e, hook)
				orderMix(r, NewRNG(seed))
				r.done(300)
				e.Close()
				orderCheckpoint(t, seed, hook)
				orderParallel(t, seed, hook)
			})
		}
	}
}

// orderCheckpoint runs procs that only Sleep, Park and Wake, so that every
// point is quiescent, checkpoints mid-run and continues on the restored
// engine. The procs keep their progress outside the engine and restart at
// the top after the restore, where they report the wakeup that resumed
// them; the reference carries over.
func orderCheckpoint(t *testing.T, seed, hook uint64) {
	const nprocs, iters = 12, 30
	rng := NewRNG(seed + 100)
	var r *orderRef
	progress := make([]int, nprocs)
	live := map[string]bool{}
	var procs []*Proc
	body := func(i int) func(p *Proc) {
		name := fmt.Sprintf("p%d", i)
		return func(p *Proc) {
			r.took(name)
			for ; progress[i] < iters; progress[i]++ {
				switch rng.Intn(6) {
				case 0, 1, 2, 3:
					d := orderDelay(rng)
					r.will(name, d)
					p.Sleep(d)
					r.took(name)
				case 4:
					target := procs[rng.Intn(nprocs)]
					if target.waiting {
						r.will(target.name, 0)
					}
					r.e.Wake(target)
				case 5:
					woken := !p.token
					p.Park()
					if woken {
						r.took(name)
					}
				}
			}
			delete(live, name)
		}
	}
	build := func(e *Engine, announce bool) {
		procs = procs[:0]
		for i := 0; i < nprocs; i++ {
			name := fmt.Sprintf("p%d", i)
			if !announce && !live[name] {
				procs = append(procs, &Proc{done: true}) // exited before the checkpoint
				continue
			}
			if announce {
				r.will(name, 0)
				live[name] = true
			}
			procs = append(procs, e.Spawn(name, body(i)))
		}
	}
	e := NewEngine(seed)
	r = newOrderRef(t, e, hook)
	build(e, true)
	e.RunUntil(6 * calSpan)
	var img bytes.Buffer
	if err := e.Checkpoint(&img); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	e.Close()

	e2, err := Restore(bytes.NewReader(img.Bytes()), func(e *Engine) { build(e, false) })
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer e2.Close()
	var again bytes.Buffer
	if err := e2.Checkpoint(&again); err != nil || !bytes.Equal(again.Bytes(), img.Bytes()) {
		t.Fatalf("restored engine re-checkpoints to %d other bytes (err %v)", again.Len(), err)
	}
	taken := r.taken
	r2 := newOrderRef(t, e2, hook)
	r2.keys, r2.maxSeq = r.keys, r.maxSeq
	r = r2
	e2.Run()
	if taken < 20 {
		t.Errorf("only %d dispatches before the checkpoint", taken)
	}
	r.done(20)
}

// orderParallel runs three partitions whose procs sleep and post messages
// to each other with delays on both sides of the calendar's span. A
// barrier merges each epoch's posts in (source partition, send order), so
// the reference files them in (epoch, source, send order).
func orderParallel(t *testing.T, seed, hook uint64) {
	const nparts = 3
	const L = Time(64)
	type post struct {
		epoch      Time
		src, order int
		key        refKey
	}
	pe := NewParallelEngine(nparts, L, seed, 1)
	defer pe.Close()
	refs := make([]*orderRef, nparts)
	inbox := make([][]post, nparts) // posted and not yet filed, per destination
	sent := make([]int, nparts)
	msgs := 0
	rng := NewRNG(seed + 200)
	var took func(dst, msg int)
	send := func(src int) {
		if msgs >= 400 {
			return
		}
		msgs++
		dst := rng.Intn(nparts)
		delays := []Time{L, L + 1, calSpan - 1, calSpan, calSpan + 1, 3 * calSpan}
		d := delays[rng.Intn(len(delays))]
		now := pe.Part(src).now
		inbox[dst] = append(inbox[dst], post{now / L, src, sent[src], refKey{at: now + d, owner: fmt.Sprintf("m%d", msgs)}})
		sent[src]++
		msg := msgs
		pe.Send(src, dst, d, func() { took(dst, msg) })
	}
	for i := 0; i < nparts; i++ {
		e := pe.Part(i)
		r := newOrderRef(t, e, hook*uint64(i+1))
		refs[i] = r
		r.merged = func(n int) []refKey {
			epoch := e.now / L
			var due, later []post
			for _, m := range inbox[i] {
				if m.epoch < epoch {
					due = append(due, m)
				} else {
					later = append(later, m)
				}
			}
			inbox[i] = later
			sort.Slice(due, func(a, b int) bool {
				x, y := due[a], due[b]
				if x.epoch != y.epoch {
					return x.epoch < y.epoch
				}
				if x.src != y.src {
					return x.src < y.src
				}
				return x.order < y.order
			})
			if len(due) != n {
				r.fail("t=%d: %d sequence numbers unannounced, %d messages due", e.now, n, len(due))
			}
			keys := make([]refKey, len(due))
			for k, m := range due {
				keys[k] = m.key
			}
			return keys
		}
		for k := 0; k < 4; k++ {
			name := fmt.Sprintf("w%d", k)
			r.will(name, 0)
			e.Spawn(name, func(p *Proc) {
				r.took(name)
				for n := 0; n < 30; n++ {
					d := orderDelay(rng)
					r.will(name, d)
					p.Sleep(d)
					r.took(name)
					send(i)
				}
			})
		}
	}
	took = func(dst, msg int) {
		refs[dst].took(fmt.Sprintf("m%d", msg))
		if rng.Intn(2) == 0 {
			send(dst)
		}
	}
	pe.RunUntil(7*L + L/2) // a limit inside an epoch, resumed by Run
	pe.Run()
	for _, r := range refs {
		r.done(60)
	}
}
