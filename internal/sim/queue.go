package sim

import (
	"math/bits"
	"sort"
)

// The event queue. Events dispatch in (at, pri, seq) order, and most of
// them fall due within a few hundred cycles of the clock: idle polls, URPC
// waits, cache fills. The engine caches the earliest queued event, the
// head, and its time, so that the hot checks (Sleep's in-place test, the
// dispatch limit) are one compare. An event alone in the queue is held
// only as the head; otherwise every event waits in one of two places:
//
//   - a calendar (Brown, CACM 1988) of one FIFO bucket per cycle, for events
//     due in [now, now+calSpan) while the queue is deep, allocated the first
//     time it is; and
//   - a 4-ary min-heap for the rest: events due later, those pushed while
//     the queue is shallow, and those due before now (a corrupt image),
//     which dispatch then rejects.
//
// Each of the two keeps its events in dispatch order and pop compares their
// fronts, so no event moves between them as the clock advances, and the
// merged order is exactly that of one sorted queue.

// calSpan is the calendar's width in cycles: one bucket per cycle. It must
// be a power of two no larger than 4,096, so that one summary word covers
// the bucket bitmap.
const calSpan = 4096

// calMinDepth is the queue depth above which new events go to the
// calendar. A 4-ary heap of fewer events is at most two levels deep, and its
// push and pop cost less than the calendar's bucket and bitmap loads.
const calMinDepth = 8

type event struct {
	at  Time
	pri uint64 // tie-break demotion class; 0 except under a perturb hook
	seq uint64
	p   *Proc  // proc to resume, or nil
	fn  func() // callback to invoke, if p == nil
	// next links the event into its calendar bucket while queued, and into
	// the free list while pooled.
	next *event
}

func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap of events ordered by (at, pri, seq). A
// 4-ary heap does the same number of comparisons as a binary heap in roughly
// half the tree depth, which means fewer cache-missing node hops per
// operation; specializing it to *event avoids container/heap's interface
// conversions and method-value indirections. pri is zero for every event
// unless a perturb hook is installed, so the default order is (at, seq).
type eventHeap []*event

func (q *eventHeap) push(e *event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventBefore(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

func (q *eventHeap) pop() *event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	// Sift the displaced element down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventBefore(h[c], h[min]) {
				min = c
			}
		}
		if !eventBefore(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// calendar holds the events due in [now, now+calSpan), one bucket per
// cycle: an event due at t sits in bucket t mod calSpan, which no other
// queued cycle shares. A bucket is a circular list through event.next, kept
// in (pri, seq) order, and its slot holds the tail, whose next is the first.
type calendar struct {
	tails   [calSpan]*event
	bits    [calSpan / 64]uint64 // bit b of word w: bucket 64w+b is non-empty
	summary uint64               // bit w: word w of bits is non-zero
}

// insert adds ev to its bucket. It goes at the tail unless it sorts before
// the tail, which only a perturb hook's priorities can cause: sequence
// numbers only grow.
func (c *calendar) insert(ev *event) {
	i := ev.at & (calSpan - 1)
	tail := c.tails[i]
	switch {
	case tail == nil:
		ev.next = ev
		c.tails[i] = ev
		c.bits[i/64] |= 1 << (i % 64)
		c.summary |= 1 << (i / 64)
	case !eventBefore(ev, tail):
		ev.next = tail.next
		tail.next = ev
		c.tails[i] = ev
	default:
		prev := tail
		for !eventBefore(ev, prev.next) {
			prev = prev.next
		}
		ev.next = prev.next
		prev.next = ev
	}
}

// removeFirst unlinks ev, the first event of its bucket, and returns the
// bucket's new first event, or nil.
func (c *calendar) removeFirst(ev *event) *event {
	i := ev.at & (calSpan - 1)
	if tail := c.tails[i]; tail != ev {
		tail.next = ev.next
		return ev.next
	}
	c.tails[i] = nil
	w := i / 64
	if c.bits[w] &^= 1 << (i % 64); c.bits[w] == 0 {
		c.summary &^= 1 << w
	}
	return nil
}

// first returns the first event of the earliest non-empty bucket, given
// that every queued event is due in [from, from+calSpan), or nil.
func (c *calendar) first(from Time) *event {
	i := int(from & (calSpan - 1))
	w := i / 64
	if b := c.bits[w] >> (i % 64); b != 0 {
		return c.tails[i+bits.TrailingZeros64(b)].next
	}
	// Later words first, then wrap around to the earliest set word (the low
	// bits of word w included: every queued cycle past the wrap is later).
	s := c.summary &^ (1<<(w+1) - 1)
	if s == 0 {
		if s = c.summary; s == 0 {
			return nil
		}
	}
	w = bits.TrailingZeros64(s)
	return c.tails[w*64+bits.TrailingZeros64(c.bits[w])].next
}

// push queues ev, and makes it the head if it dispatches first. An event
// pushed into an empty queue is filed only when a second one arrives, so a
// queue that holds one event at a time touches neither the calendar nor
// the heap.
func (e *Engine) push(ev *event) {
	if e.pending++; e.pending == 1 {
		e.head, e.headAt = ev, ev.at
		return
	}
	e.file(ev)
}

// file puts ev in the calendar or the heap, and makes ev the head if it
// dispatches first.
func (e *Engine) file(ev *event) {
	if !e.filed {
		// The head was alone: the two make a heap of two in order.
		first, second := e.head, ev
		if eventBefore(ev, e.head) {
			first, second = ev, e.head
			e.head, e.headAt = ev, ev.at
		}
		e.heap = append(e.heap, first, second)
		e.filed = true
		return
	}
	// at-now wraps around for an event due in the past, which goes to the
	// heap.
	if e.pending > calMinDepth && ev.at-e.now < calSpan {
		if e.cal == nil {
			e.cal = new(calendar)
		}
		e.cal.insert(ev)
	} else {
		e.heap.push(ev)
	}
	if ev.at <= e.headAt && eventBefore(ev, e.head) {
		e.head, e.headAt = ev, ev.at
	}
}

// pop removes and returns the head.
func (e *Engine) pop() (ev *event) {
	ev = e.head
	e.pending--
	if !e.filed {
		e.head, e.headAt = nil, ^Time(0) // it was alone
		return
	}
	e.unfile()
	return
}

// unfile removes the head from the calendar or the heap, and makes the next
// event the head: the earlier of the heap's top and the calendar's first
// event from the old head's cycle on. No queued event is due before the old
// head, and none in the calendar calSpan or more cycles after it.
func (e *Engine) unfile() {
	ev := e.head
	var next *event
	if len(e.heap) > 0 && e.heap[0] == ev {
		e.heap.pop()
	} else {
		next = e.cal.removeFirst(ev)
	}
	if next == nil && e.pending > len(e.heap) { // the calendar is not empty
		next = e.cal.first(ev.at)
	}
	if len(e.heap) > 0 && (next == nil || eventBefore(e.heap[0], next)) {
		next = e.heap[0]
	}
	e.head, e.headAt, e.filed = next, ^Time(0), false
	if next == nil {
		return
	}
	e.headAt = next.at
	if e.pending == 1 && len(e.heap) == 1 {
		e.heap[0] = nil // next is alone again: hold it apart
		e.heap = e.heap[:0]
	} else {
		e.filed = true
	}
}

// queued returns every queued event in dispatch order.
func (e *Engine) queued() []*event {
	evs := append(make([]*event, 0, e.pending), e.heap...)
	if e.head != nil && !e.filed {
		evs = append(evs, e.head)
	}
	if e.cal != nil {
		for _, tail := range &e.cal.tails {
			if tail == nil {
				continue
			}
			for ev := tail.next; ; ev = ev.next {
				evs = append(evs, ev)
				if ev == tail {
					break
				}
			}
		}
	}
	sort.Slice(evs, func(i, j int) bool { return eventBefore(evs[i], evs[j]) })
	return evs
}
