package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"multikernel/internal/trace"
)

// The determinism gate for the parallel engine: a token ring crossing every
// partition boundary plus per-partition background load, run at several worker
// counts, must produce byte-identical traces, metrics, final clocks and final
// checkpoint images. The workload is deliberately irregular — RNG-driven local
// sleeps, RNG-dependent forwarding delays, parked daemons woken by message
// handlers — so any schedule divergence between worker counts shows up.

const (
	ringParts     = 4
	ringLookahead = Time(460)
	ringHops      = 200
)

// ring is the token-ring engine: a ParallelEngine and each partition's
// token handler.
type ring struct {
	*ParallelEngine
	hop [ringParts]func(v, hop uint64)
}

// ringSetup sets partition i's token handler and spawns its parked sink
// daemon. The handler counts the token, wakes the sink, and forwards the
// token to the next partition with an RNG-flavored delay at or above the
// lookahead.
func ringSetup(pe *ring, i int) {
	e := pe.Part(i)
	tokens := e.Metrics().Counter("ring.tokens")
	sinkWakes := e.Metrics().Counter("ring.sink_wakes")
	sink := e.Spawn(fmt.Sprintf("sink%d", i), func(p *Proc) {
		p.SetDaemon(true)
		for {
			for sinkWakes.Value() < tokens.Value() {
				sinkWakes.Inc()
			}
			p.Park()
		}
	})
	pe.hop[i] = func(v, hop uint64) {
		tokens.Inc()
		e.Tracer().Emit(uint64(e.Now()), trace.Instant, trace.SubSim, int32(i), "ring.recv", v, hop)
		e.Wake(sink)
		if hop == 0 {
			return
		}
		// Local work before forwarding, then a cross-partition send with a
		// value-dependent delay ≥ lookahead.
		e.After(1+e.RNG().Time(97), func() {
			ringSend(pe, i, ringLookahead+Time(v%31), v*0x9e3779b9+uint64(i), hop-1)
		})
	}
}

// ringSend passes token v with hop budget hop from partition src to the
// next partition's handler after delay.
func ringSend(pe *ring, src int, delay Time, v, hop uint64) {
	dst := (src + 1) % pe.NParts()
	pe.Send(src, dst, delay, func() { pe.hop[dst](v, hop) })
}

// ringLocals spawns partition i's background chatter: a proc doing a few
// hundred RNG sleeps, contributing local events that interleave with token
// handling inside every epoch.
func ringLocals(pe *ring, i int) {
	e := pe.Part(i)
	pe.Spawn(i, fmt.Sprintf("local%d", i), func(p *Proc) {
		for j := 0; j < 300; j++ {
			p.Sleep(1 + e.RNG().Time(50))
		}
	})
}

// ringSeed injects one token per partition, each with the given hop budget.
func ringSeed(pe *ring, hops uint64) {
	for i := 0; i < pe.NParts(); i++ {
		ringSend(pe, i, ringLookahead, uint64(i+1)*12345, hops)
	}
}

func buildRing(workers int) *ring {
	pe := &ring{ParallelEngine: NewParallelEngine(ringParts, ringLookahead, 7, workers)}
	for i := 0; i < ringParts; i++ {
		ringSetup(pe, i)
		ringLocals(pe, i)
	}
	return pe
}

type ringResult struct {
	ckpt      []byte
	metrics   []byte
	traceHash [32]byte
	clocks    []Time
	tokens    uint64
}

func runRing(t *testing.T, workers int) ringResult {
	t.Helper()
	trace.StartCapture()
	defer trace.StopCapture()
	pe := buildRing(workers)
	ringSeed(pe, ringHops)
	pe.Run()
	if dl := pe.Deadlocked(); len(dl) > 0 {
		t.Fatalf("workers=%d: deadlocked procs %v", workers, dl)
	}
	var img bytes.Buffer
	if err := pe.Checkpoint(&img); err != nil {
		t.Fatalf("workers=%d: checkpoint: %v", workers, err)
	}
	snap := pe.MetricsSnapshot()
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	clocks := make([]Time, pe.NParts())
	for i := range clocks {
		clocks[i] = pe.Part(i).Now()
	}
	pe.Close()
	var buf bytes.Buffer
	if err := trace.WriteCaptured(&buf); err != nil {
		t.Fatal(err)
	}
	return ringResult{
		ckpt:      img.Bytes(),
		metrics:   js,
		traceHash: sha256.Sum256(buf.Bytes()),
		clocks:    clocks,
		tokens:    snap.Counters["ring.tokens"],
	}
}

func TestParallelDeterminismAcrossWorkers(t *testing.T) {
	ref := runRing(t, 1)
	// Each of the ringParts tokens is received hops+1 times.
	if want := uint64(ringParts * (ringHops + 1)); ref.tokens != want {
		t.Fatalf("serial reference received %d tokens, want %d", ref.tokens, want)
	}
	for _, w := range []int{2, 3, 4, 8} {
		got := runRing(t, w)
		if !bytes.Equal(got.ckpt, ref.ckpt) {
			t.Errorf("workers=%d: final checkpoint image differs from serial reference", w)
		}
		if !bytes.Equal(got.metrics, ref.metrics) {
			t.Errorf("workers=%d: merged metrics differ from serial reference\n got: %s\nwant: %s", w, got.metrics, ref.metrics)
		}
		if got.traceHash != ref.traceHash {
			t.Errorf("workers=%d: trace bytes differ from serial reference", w)
		}
		for i := range ref.clocks {
			if got.clocks[i] != ref.clocks[i] {
				t.Errorf("workers=%d: partition %d clock %d, want %d", w, i, got.clocks[i], ref.clocks[i])
			}
		}
	}
}

// TestParallelRunUntilStaged checks that chopping a run into arbitrary
// RunUntil slices — epoch-aligned, mid-epoch, and a final open-ended Run — is
// indistinguishable from one uninterrupted Run, at every worker count: same
// metrics, same final checkpoint bytes (which cover clocks, heaps, sequence
// numbers and RNG streams). It also checks the clock contract: after
// RunUntil(t), every partition clock reads exactly t.
func TestParallelRunUntilStaged(t *testing.T) {
	finish := func(pe *ring) ([]byte, []byte) {
		if dl := pe.Deadlocked(); len(dl) > 0 {
			t.Fatalf("deadlocked procs %v", dl)
		}
		var img bytes.Buffer
		if err := pe.Checkpoint(&img); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		js, err := json.Marshal(pe.MetricsSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		pe.Close()
		return img.Bytes(), js
	}

	pe := buildRing(1)
	ringSeed(pe, ringHops)
	pe.Run()
	refImg, refJS := finish(pe)

	L := ringLookahead
	cuts := []Time{3*L - 1, 3 * L, 10*L + 123, 10*L + 124, 40 * L}
	for _, w := range []int{1, 2, 4} {
		pe := buildRing(w)
		ringSeed(pe, ringHops)
		for _, cut := range cuts {
			pe.RunUntil(cut)
			for i := 0; i < pe.NParts(); i++ {
				if now := pe.Part(i).Now(); now != cut {
					t.Fatalf("workers=%d: after RunUntil(%d) partition %d clock is %d", w, cut, i, now)
				}
			}
		}
		pe.Run()
		img, js := finish(pe)
		if !bytes.Equal(img, refImg) {
			t.Errorf("workers=%d: staged run's final checkpoint differs from uninterrupted run", w)
		}
		if !bytes.Equal(js, refJS) {
			t.Errorf("workers=%d: staged run's metrics differ from uninterrupted run", w)
		}
	}
}

// TestParallelCrossPartitionDeadlock is the regression test for deadlock
// detection spanning partitions: a proc parked in partition 0 waiting for a
// message partition 1 never sends must drain every heap and be reported, with
// its partition prefix, just like a local deadlock.
func TestParallelCrossPartitionDeadlock(t *testing.T) {
	pe := NewParallelEngine(2, ringLookahead, 1, 2)
	defer pe.Close()
	pe.Spawn(0, "waiter", func(p *Proc) { p.Park() })
	pe.Spawn(1, "busy", func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Sleep(100)
		}
	})
	pe.Run()
	dl := pe.Deadlocked()
	if len(dl) != 1 || dl[0] != "p0/waiter" {
		t.Fatalf("Deadlocked() = %v, want [p0/waiter]", dl)
	}
}

// TestParallelCrossPartitionWake is the positive counterpart: the same shape,
// but partition 1 does send the wakeup message, so the run quiesces cleanly
// and the waiter observes the sender's virtual time plus the message delay.
func TestParallelCrossPartitionWake(t *testing.T) {
	pe := NewParallelEngine(2, ringLookahead, 1, 2)
	defer pe.Close()
	var wokeAt Time
	waiter := pe.Spawn(0, "waiter", func(p *Proc) {
		p.Park()
		wokeAt = p.Now()
	})
	pe.Spawn(1, "sender", func(p *Proc) {
		p.Sleep(100)
		pe.Send(1, 0, ringLookahead, func() { pe.Part(0).Wake(waiter) })
	})
	pe.Run()
	if dl := pe.Deadlocked(); len(dl) != 0 {
		t.Fatalf("Deadlocked() = %v, want none", dl)
	}
	if want := Time(100) + ringLookahead; wokeAt != want {
		t.Fatalf("waiter woke at t=%d, want %d", wokeAt, want)
	}
}

func TestParallelSendBelowLookaheadPanics(t *testing.T) {
	pe := NewParallelEngine(2, ringLookahead, 1, 1)
	defer pe.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Send with delay below lookahead did not panic")
		}
	}()
	pe.Send(0, 1, ringLookahead-1, func() {})
}

// TestParallelStopAtBarrier checks that Stop from simulated code halts at the
// epoch barrier at the same point regardless of worker count, and that Run can
// then resume to completion with results identical to a never-stopped run.
func TestParallelStopAtBarrier(t *testing.T) {
	run := func(w int, stop bool) ([]Time, []byte) {
		pe := buildRing(w)
		ringSeed(pe, ringHops)
		// The timer event exists in both variants so the engines' scheduling
		// state stays comparable; only whether it stops the run differs.
		pe.Part(0).After(20*ringLookahead+7, func() {
			if stop {
				pe.Stop()
			}
		})
		pe.Run()
		stopped := make([]Time, pe.NParts())
		for i := range stopped {
			stopped[i] = pe.Part(i).Now()
		}
		pe.Run() // resume to completion
		var img bytes.Buffer
		if err := pe.Checkpoint(&img); err != nil {
			t.Fatalf("workers=%d: checkpoint: %v", w, err)
		}
		pe.Close()
		return stopped, img.Bytes()
	}
	refStop, refImg := run(1, true)
	_, cleanImg := run(1, false)
	if !bytes.Equal(refImg, cleanImg) {
		t.Error("stop+resume run differs from never-stopped run")
	}
	for _, w := range []int{2, 4} {
		stopped, img := run(w, true)
		for i := range refStop {
			if stopped[i] != refStop[i] {
				t.Errorf("workers=%d: stopped with partition %d at t=%d, want %d", w, i, stopped[i], refStop[i])
			}
		}
		if !bytes.Equal(img, refImg) {
			t.Errorf("workers=%d: stop+resume final image differs from serial reference", w)
		}
	}
}

// TestParallelWorkerClamp checks the worker budget is clamped to [1, nparts].
func TestParallelWorkerClamp(t *testing.T) {
	pe := NewParallelEngine(3, ringLookahead, 1, 64)
	if pe.Workers() != 3 {
		t.Errorf("Workers() = %d, want clamp to 3", pe.Workers())
	}
	pe.Close()
	pe = NewParallelEngine(3, ringLookahead, 1, 0)
	if pe.Workers() != 1 {
		t.Errorf("Workers() = %d, want clamp to 1", pe.Workers())
	}
	pe.Close()
}

// TestParallelProcPanicReachesRunCaller: a proc panic surfaces from Run and
// RunUntil at every worker count, whichever goroutine ran its partition.
// Partitions 1 and 3 panic in the same epoch; every partition finishes the
// epoch, and the caller re-panics with partition 1's panic, naming the proc,
// the virtual time and the panicking stack.
func TestParallelProcPanicReachesRunCaller(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		for _, until := range []bool{false, true} {
			pe := NewParallelEngine(4, ringLookahead, 1, w)
			for i := 0; i < pe.NParts(); i++ {
				pe.Spawn(i, fmt.Sprintf("proc%d", i), func(p *Proc) {
					p.Sleep(Time(5 + i))
					if i%2 == 1 {
						explode()
					}
					p.Sleep(2 * ringLookahead)
				})
			}
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				if until {
					pe.RunUntil(10 * ringLookahead)
				} else {
					pe.Run()
				}
				return "run returned"
			}()
			for _, want := range []string{`proc "proc1"`, "t=6", "boom", "sim.explode"} {
				if !strings.Contains(msg, want) {
					t.Errorf("workers=%d RunUntil=%v: recovered panic lacks %q:\n%s", w, until, want, msg)
				}
			}
			if strings.Count(msg, "panicked") != 1 {
				t.Errorf("workers=%d RunUntil=%v: panic named more than once:\n%s", w, until, msg)
			}
			for i := 0; i < pe.NParts(); i++ {
				want := ringLookahead - 1 // the epoch's end
				if i%2 == 1 {
					want = Time(5 + i) // where it panicked
				}
				if now := pe.Part(i).Now(); now != want {
					t.Errorf("workers=%d RunUntil=%v: partition %d stopped at t=%d, want %d", w, until, i, now, want)
				}
			}
			pe.Close()
		}
	}
}

// TestParallelHelpersRunPartitions: a helper goroutine runs a partition
// while another goroutine runs the other one. Partition 0's proc blocks its
// host goroutine until partition 1's proc, in the same epoch, closes a
// channel, so the run finishes only if two goroutines run the epoch; if
// every partition ran on the caller, it would wait forever. The worker-count
// determinism tests cannot see this: they pass with every partition on the
// caller.
func TestParallelHelpersRunPartitions(t *testing.T) {
	const timeout = 10 * time.Second
	pe := NewParallelEngine(2, ringLookahead, 1, 2)
	defer pe.Close()
	released := make(chan struct{})
	var waited bool
	pe.Spawn(0, "blocker", func(p *Proc) {
		p.Sleep(1)
		select {
		case <-released:
		case <-time.After(timeout):
			waited = true
		}
	})
	pe.Spawn(1, "releaser", func(p *Proc) {
		p.Sleep(2)
		close(released)
	})
	pe.Run()
	if waited {
		t.Fatalf("partition 0 waited %v for partition 1 within one epoch: no helper ran a partition", timeout)
	}
}
