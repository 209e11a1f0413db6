package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

// Use acquires the resource, holds it for d cycles, then releases it. This is
// the common pattern for occupying a facility for a fixed service time.
// If p is fail-stopped during the hold, the slot is still released on the
// unwind path — the facility finishes the in-flight service time regardless.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	defer r.Release()
	p.Sleep(d)
}

func TestResourceSerializesUse(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	var ends []Time
	for i := 0; i < 4; i++ {
		e.Spawn("u", func(p *Proc) {
			r.Use(p, 100)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{100, 200, 300, 400}
	if !reflect.DeepEqual(ends, want) {
		t.Fatalf("ends=%v, want %v", ends, want)
	}
}

func TestResourceFIFOFairness(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn("u", func(p *Proc) {
			p.Sleep(Time(i)) // arrive in index order
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(50)
			r.Release()
		})
	}
	e.Run()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("acquisition order not FIFO: %v", order)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		e.Spawn("u", func(p *Proc) {
			r.Use(p, 100)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{100, 100, 200, 200}
	if !reflect.DeepEqual(ends, want) {
		t.Fatalf("ends=%v, want %v", ends, want)
	}
}

func TestTryAcquire(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	if !r.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if r.TryAcquire() {
		t.Fatal("second TryAcquire succeeded on full resource")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
}

func TestReleaseUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r := NewResource(NewEngine(1), 1)
	r.Release()
}

func TestQueueDeliversInOrder(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			q.Push(i)
		}
	})
	e.Run()
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("got %v", got)
	}
	e.CheckQuiesced()
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[string](e)
	var at Time
	e.Spawn("c", func(p *Proc) {
		q.Pop(p)
		at = p.Now()
	})
	e.After(777, func() { q.Push("x") })
	e.Run()
	if at != 777 {
		t.Fatalf("pop returned at %d, want 777", at)
	}
}

func TestQueueTryPop(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
	q.Push(9)
	v, ok := q.TryPop()
	if !ok || v != 9 {
		t.Fatalf("TryPop = %d,%v", v, ok)
	}
}

// TestQueueSlidesInOrder interleaves pushes and pops so that Push slides
// the queued items to the front of a full array, and grows it when they
// fill it: items still come out in push order, and Len counts only the
// queued ones.
func TestQueueSlidesInOrder(t *testing.T) {
	q := NewQueue[int](NewEngine(1))
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round%5+1; i++ {
			v, ok := q.TryPop()
			if !ok {
				break
			}
			if v != want {
				t.Fatalf("round %d: popped %d, want %d", round, v, want)
			}
			want++
		}
		if q.Len() != next-want {
			t.Fatalf("round %d: Len %d, want %d", round, q.Len(), next-want)
		}
	}
}

func TestFutureAwait(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture[int](e)
	var got int
	var at Time
	e.Spawn("w", func(p *Proc) {
		got = f.Await(p)
		at = p.Now()
	})
	e.After(250, func() { f.Complete(42) })
	e.Run()
	if got != 42 || at != 250 {
		t.Fatalf("got=%d at=%d", got, at)
	}
	if !f.done {
		t.Fatal("future not done")
	}
}

func TestFutureAwaitAfterComplete(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture[int](e)
	f.Complete(7)
	var got int
	e.Spawn("w", func(p *Proc) { got = f.Await(p) })
	e.Run()
	if got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f := NewFuture[int](NewEngine(1))
	f.Complete(1)
	f.Complete(2)
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine(1)
	wg := NewWaitGroup(e)
	var doneAt Time
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.Sleep(Time(i * 100))
			wg.Done()
		})
	}
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != 300 {
		t.Fatalf("wait released at %d, want 300", doneAt)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(1000, 0.05)
		if v < 950 || v > 1050 {
			t.Fatalf("jitter %d outside ±5%% of 1000", v)
		}
	}
	if r.Jitter(0, 0.5) != 0 {
		t.Fatal("jitter of zero base changed value")
	}
}

// Property: a single-capacity resource with per-holder service time d serves
// n procs in exactly n*d cycles regardless of arrival pattern density.
func TestResourceThroughputProperty(t *testing.T) {
	f := func(n uint8, d uint8) bool {
		if n == 0 || d == 0 {
			return true
		}
		nn, dd := int(n%32+1), Time(d%100+1)
		e := NewEngine(1)
		r := NewResource(e, 1)
		for i := 0; i < nn; i++ {
			e.Spawn("u", func(p *Proc) { r.Use(p, dd) })
		}
		e.Run()
		return e.Now() == Time(nn)*dd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
