package sim

// Resource is a FIFO-fair counting semaphore in virtual time. It models a
// serially-occupied facility: a cache line mid-transfer, a memory controller,
// a single-threaded server. Acquire while full queues the caller; Release
// hands the slot directly to the oldest waiter, preserving arrival order.
type Resource struct {
	e       *Engine
	cap     int
	inUse   int
	waiters []*resWaiter
}

// resWaiter is one queued Acquire. The granted flag records that Release
// transferred slot ownership to this waiter, which is what its unwind path
// needs to distinguish "still queued / skipped as a corpse" (nothing owned)
// from "granted, then fail-stopped before resuming" (must pass the slot on).
type resWaiter struct {
	p       *Proc
	granted bool
}

// NewResource returns a resource with the given capacity (number of
// concurrent holders). Capacity must be at least 1.
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{e: e, cap: capacity}
}

// Acquire obtains a slot, blocking p in FIFO order if none is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.inUse++
		return
	}
	// A parked proc waits on one resource at a time, so its own waiter
	// record serves: queueing allocates nothing.
	w := &p.waiter
	*w = resWaiter{p: p}
	r.waiters = append(r.waiters, w)
	// Fail-stop audit: if p is killed while queued, its Park unwinds through
	// this frame. A corpse must not stay in the FIFO (Release would hand the
	// slot to it, leaking it forever), and a corpse that was already granted
	// the slot — popped by Release just before the kill landed — must pass it
	// on, or every later requester parks forever behind a dead holder.
	defer func() {
		if !p.killed && !p.done {
			return
		}
		for i, q := range r.waiters {
			if q == w {
				r.waiters = append(r.waiters[:i], r.waiters[i+1:]...)
				return
			}
		}
		if w.granted {
			r.Release()
		}
	}()
	p.Park()
}

// TryAcquire obtains a slot without blocking. It reports whether it
// succeeded.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.inUse++
		return true
	}
	return false
}

// Release frees a slot, transferring it to the oldest waiter if any.
// It may be called from any proc or engine callback.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of unheld resource")
	}
	// Skip waiters that were fail-stopped while queued: waking a corpse is a
	// no-op, so handing it the slot would leak the slot forever.
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters = r.waiters[:len(r.waiters)-1]
		if w.p.done || w.p.killed {
			continue
		}
		w.granted = true
		r.e.Wake(w.p) // slot ownership transfers; inUse unchanged
		return
	}
	r.inUse--
}

// InUse returns the number of currently-held slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of procs waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// Queue is an unbounded FIFO of items with blocking receive, usable as a
// mailbox between procs. Push never blocks; Pop parks until an item arrives.
// The queue keeps its backing array: a Push that finds it full slides the
// queued items to the front before it grows. The zero Queue is bound to no
// engine: it serves Push, TryPop and Len, but no proc may Pop from it.
type Queue[T any] struct {
	e       *Engine
	items   []T // items[head:] are queued
	head    int
	waiters []*Proc
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{e: e} }

// Push appends v and wakes the oldest waiting consumer, if any. It may be
// called from any proc or engine callback.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	// Skip consumers fail-stopped while parked; waking a corpse would strand
	// the item until the next Push even with live waiters queued behind it.
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		copy(q.waiters, q.waiters[1:])
		q.waiters = q.waiters[:len(q.waiters)-1]
		if w.done || w.killed {
			continue
		}
		q.e.Wake(w)
		return
	}
}

// Pop removes and returns the oldest item, parking p until one is available.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.Len() == 0 {
		q.waiters = append(q.waiters, p)
		p.Park()
	}
	return q.take()
}

// TryPop removes and returns the oldest item without blocking.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	return q.take(), true
}

// take removes the oldest item; the queue must not be empty.
func (q *Queue[T]) take() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Future is a one-shot value that procs can await: the virtual-time analogue
// of a completion for a split-phase operation.
type Future[T any] struct {
	e       *Engine
	done    bool
	v       T
	waiters []*Proc
}

// NewFuture returns an incomplete future bound to e.
func NewFuture[T any](e *Engine) *Future[T] { return &Future[T]{e: e} }

// Complete resolves the future and wakes all waiters. Completing twice
// panics: split-phase operations finish exactly once.
func (f *Future[T]) Complete(v T) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.v = v
	for _, w := range f.waiters {
		f.e.Wake(w)
	}
	f.waiters = nil
}

// Await parks p until the future completes, then returns its value.
func (f *Future[T]) Await(p *Proc) T {
	for !f.done {
		f.waiters = append(f.waiters, p)
		p.Park()
	}
	return f.v
}

// WaitGroup counts outstanding activities in virtual time.
type WaitGroup struct {
	e       *Engine
	n       int
	waiters []*Proc
}

// NewWaitGroup returns a wait group bound to e.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{e: e} }

// Add increments the outstanding count by delta (which may be negative).
// When the count reaches zero all waiters are woken.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative waitgroup count")
	}
	if w.n == 0 {
		for _, p := range w.waiters {
			w.e.Wake(p)
		}
		w.waiters = nil
	}
}

// Done decrements the outstanding count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks p until the count is zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n > 0 {
		w.waiters = append(w.waiters, p)
		p.Park()
	}
}
