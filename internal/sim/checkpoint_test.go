package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"multikernel/internal/ckpt"
)

// The checkpoint equivalence gate: because Engine.Checkpoint serializes the
// engine's complete state — clock, sequence counters, RNG stream, procs,
// event heap, component blobs — "restore produces the same execution" can be
// tested as byte equality of later checkpoints. Three runs of the same
// workload must converge to identical final images: (A) run, checkpoint
// mid-way, continue; (B) restore from A's mid-image, continue; (C) run
// uninterrupted.

// ckptStore is a minimal checkpointed component: a value log plus a done
// flag, mirroring how real components keep durable state outside proc stacks.
type ckptStore struct {
	vals []uint64
	done uint64
}

func (s *ckptStore) CheckpointState(w io.Writer) error {
	if err := ckpt.WriteU64(w, s.done); err != nil {
		return err
	}
	return ckpt.WriteU64Slice(w, s.vals)
}

func (s *ckptStore) RestoreState(r io.Reader) error {
	if err := ckpt.ReadU64(r, &s.done); err != nil {
		return err
	}
	v, err := ckpt.ReadU64Slice(r)
	s.vals = v
	return err
}

const storeTarget = 32

// buildStoreSim is both the initial construction and the restore builder: a
// producer appending RNG-derived values on an RNG-derived cadence, and a
// parked server daemon that sums the log once the producer signals done. Both
// procs follow the checkpoint-restart-safe shape — durable state in the
// component, conditions re-checked at the top — so entering the function from
// the start (after a restore) is indistinguishable from resuming at a yield.
func buildStoreSim(st *ckptStore) func(e *Engine) {
	return func(e *Engine) {
		e.RegisterCheckpoint("store", st)
		appended := e.Metrics().Counter("store.appended")
		server := e.Spawn("server", func(p *Proc) {
			p.SetDaemon(true)
			for st.done == 0 {
				p.Park()
			}
			var sum uint64
			for _, v := range st.vals {
				sum += v
			}
			st.vals = append(st.vals, sum)
		})
		e.Spawn("producer", func(p *Proc) {
			for len(st.vals) < storeTarget {
				st.vals = append(st.vals, e.RNG().Uint64()>>32)
				appended.Inc()
				p.Sleep(50 + e.RNG().Time(100))
			}
			st.done = 1
			e.Wake(server)
		})
	}
}

func TestCheckpointRestoreEquivalence(t *testing.T) {
	finalState := func(e *Engine, st *ckptStore) ([]byte, []byte, []uint64) {
		t.Helper()
		if dl := e.Deadlocked(); len(dl) > 0 {
			t.Fatalf("deadlocked procs %v", dl)
		}
		var img bytes.Buffer
		if err := e.Checkpoint(&img); err != nil {
			t.Fatalf("final checkpoint: %v", err)
		}
		js, err := json.Marshal(e.Metrics().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		return img.Bytes(), js, st.vals
	}

	// Run A: run to a mid-point, checkpoint, continue to completion.
	stA := &ckptStore{}
	eA := NewEngine(11)
	buildStoreSim(stA)(eA)
	eA.RunUntil(1234)
	var mid bytes.Buffer
	if err := eA.Checkpoint(&mid); err != nil {
		t.Fatalf("mid checkpoint: %v", err)
	}
	if len(stA.vals) == 0 || len(stA.vals) >= storeTarget {
		t.Fatalf("mid checkpoint caught the producer at %d values; want mid-run", len(stA.vals))
	}
	eA.Run()
	imgA, jsA, valsA := finalState(eA, stA)
	if len(valsA) != storeTarget+1 {
		t.Fatalf("run A produced %d values, want %d", len(valsA), storeTarget+1)
	}

	// Run B: restore from the mid-image and run to completion.
	stB := &ckptStore{}
	eB, err := Restore(bytes.NewReader(mid.Bytes()), buildStoreSim(stB))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	eB.Run()
	imgB, jsB, valsB := finalState(eB, stB)

	// Run C: uninterrupted.
	stC := &ckptStore{}
	eC := NewEngine(11)
	buildStoreSim(stC)(eC)
	eC.Run()
	imgC, jsC, valsC := finalState(eC, stC)

	if !bytes.Equal(imgA, imgB) {
		t.Error("restored run's final checkpoint differs from the interrupted original")
	}
	if !bytes.Equal(imgA, imgC) {
		t.Error("checkpointed run's final image differs from an uninterrupted run")
	}
	if !bytes.Equal(jsA, jsB) || !bytes.Equal(jsA, jsC) {
		t.Errorf("metrics diverge:\nA: %s\nB: %s\nC: %s", jsA, jsB, jsC)
	}
	for i := range valsA {
		if valsB[i] != valsA[i] || valsC[i] != valsA[i] {
			t.Fatalf("value %d diverges: A=%d B=%d C=%d", i, valsA[i], valsB[i], valsC[i])
		}
	}
}

// TestCheckpointAtEveryQuiescentPoint sweeps the checkpoint cut over the
// whole run: this workload parks and sleeps through proc wakeups only, so
// every point before completion is quiescent, and restoring from any of them
// must reproduce the uninterrupted final image.
func TestCheckpointAtEveryQuiescentPoint(t *testing.T) {
	stC := &ckptStore{}
	eC := NewEngine(11)
	buildStoreSim(stC)(eC)
	eC.Run()
	tEnd := eC.Now()
	var ref bytes.Buffer
	if err := eC.Checkpoint(&ref); err != nil {
		t.Fatal(err)
	}
	eC.Close()

	var restored int
	for cut := Time(0); cut < tEnd; cut += 157 {
		st := &ckptStore{}
		e := NewEngine(11)
		buildStoreSim(st)(e)
		e.RunUntil(cut)
		var mid bytes.Buffer
		err := e.Checkpoint(&mid)
		e.Close()
		if err != nil {
			t.Fatalf("cut=%d: checkpoint: %v", cut, err)
		}
		st2 := &ckptStore{}
		e2, err := Restore(bytes.NewReader(mid.Bytes()), buildStoreSim(st2))
		if err != nil {
			t.Fatalf("cut=%d: restore: %v", cut, err)
		}
		restored++
		e2.Run()
		var img bytes.Buffer
		if err := e2.Checkpoint(&img); err != nil {
			t.Fatalf("cut=%d: final checkpoint: %v", cut, err)
		}
		e2.Close()
		if !bytes.Equal(img.Bytes(), ref.Bytes()) {
			t.Fatalf("cut=%d: restored run's final image differs from uninterrupted run", cut)
		}
	}
	if restored == 0 {
		t.Fatal("no quiescent points found; sweep is vacuous")
	}
}

func TestCheckpointRejectsPendingCallback(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	e.After(10, func() {})
	if err := e.Checkpoint(io.Discard); err == nil {
		t.Fatal("checkpoint with a pending After callback did not error")
	}
}

func TestCheckpointRejectsPendingParkTimeout(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	e.Spawn("sleeper", func(p *Proc) { p.ParkTimeout(1000) })
	e.RunUntil(10)
	if err := e.Checkpoint(io.Discard); err == nil {
		t.Fatal("checkpoint with an armed ParkTimeout did not error")
	}
}

// TestCheckpointRejectsPendingIdleStep: a proc inside Idle keeps its loop
// state in Go memory, so its pending wakeup is not a plain proc wakeup and
// the engine is not quiescent until the loop has resumed the proc.
func TestCheckpointRejectsPendingIdleStep(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	polls := 0
	e.Spawn("poller", func(p *Proc) {
		p.SetDaemon(true)
		p.Idle(func() (Time, bool) {
			polls++
			return 10, polls == 5
		}, nil, nil)
		p.Park()
	})
	e.RunUntil(25) // the wakeup at 30 went through the heap: a step is pending
	if err := e.Checkpoint(io.Discard); err == nil || !strings.Contains(err.Error(), "idle step") {
		t.Fatalf("checkpoint with a pending idle step: err = %v, want an idle-step error", err)
	}
	e.Run()
	if err := e.Checkpoint(io.Discard); err != nil {
		t.Fatalf("checkpoint after the idle loop resumed and parked: %v", err)
	}
}

func TestCheckpointRejectsDuplicateProcNames(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	block := func(p *Proc) { p.Park() }
	e.Spawn("twin", block)
	e.Spawn("twin", block)
	e.Run()
	if err := e.Checkpoint(io.Discard); err == nil {
		t.Fatal("checkpoint with duplicate proc names did not error")
	}
}

func TestRestoreRejectsBuilderMismatch(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) { p.Park() })
	e.Run()
	var img bytes.Buffer
	if err := e.Checkpoint(&img); err != nil {
		t.Fatal(err)
	}
	e.Close()

	if _, err := Restore(bytes.NewReader(img.Bytes()), func(e *Engine) {}); err == nil {
		t.Error("restore whose builder omits a checkpointed proc did not error")
	}
	if _, err := Restore(bytes.NewReader(img.Bytes()), func(e *Engine) {
		e.Spawn("p", func(p *Proc) { p.Park() })
		e.RegisterCheckpoint("extra", &ckptStore{})
	}); err == nil {
		t.Error("restore whose builder registers an extra component did not error")
	}
	if _, err := Restore(bytes.NewReader(img.Bytes()[:len(img.Bytes())/2]), func(e *Engine) {
		e.Spawn("p", func(p *Proc) { p.Park() })
	}); err == nil {
		t.Error("restore of a truncated image did not error")
	}
}

// TestRestoreRejectsCorruptCounts: Restore grows its tables as records
// arrive, so a corrupt proc, event or component count in a short image
// ends in an error. Sized from the header, 2^33 procs ran out of memory and
// 2^62 panicked in makeslice.
func TestRestoreRejectsCorruptCounts(t *testing.T) {
	header := append([]byte(ckptMagic), make([]byte, 7*8)...)
	for _, n := range []uint64{1 << 33, 1 << 62} {
		for i, field := range []string{"procs", "events", "components"} {
			img := header
			for range i {
				img = binary.LittleEndian.AppendUint64(img, 0) // an empty table
			}
			img = binary.LittleEndian.AppendUint64(img, n)
			if _, err := Restore(bytes.NewReader(img), func(*Engine) {}); err == nil {
				t.Errorf("%d-byte image with %d %s restored without error", len(img), n, field)
			}
		}
	}
}

// TestParallelCheckpointLeavesRunUnchanged runs the ring in two phases:
// phase 1 to quiescence, checkpoint, then phase 2 with fresh tokens. The
// final image and metrics must be byte-identical to a run that never
// checkpointed.
func TestParallelCheckpointLeavesRunUnchanged(t *testing.T) {
	phase2 := func(pe *ring) ([]byte, []byte) {
		t.Helper()
		ringSeed(pe, 40)
		pe.Run()
		if dl := pe.Deadlocked(); len(dl) > 0 {
			t.Fatalf("deadlocked procs %v", dl)
		}
		var img bytes.Buffer
		if err := pe.Checkpoint(&img); err != nil {
			t.Fatalf("final checkpoint: %v", err)
		}
		js, err := json.Marshal(pe.MetricsSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		pe.Close()
		return img.Bytes(), js
	}

	// A: phase 1, checkpoint, phase 2.
	peA := buildRing(2)
	ringSeed(peA, 60)
	peA.Run()
	var mid bytes.Buffer
	if err := peA.Checkpoint(&mid); err != nil {
		t.Fatalf("mid checkpoint: %v", err)
	}
	imgA, jsA := phase2(peA)

	// D: the same two phases with no checkpoint in between.
	peD := buildRing(2)
	ringSeed(peD, 60)
	peD.Run()
	imgD, jsD := phase2(peD)
	if !bytes.Equal(imgD, imgA) {
		t.Error("taking a checkpoint perturbed the run: final images differ")
	}
	if !bytes.Equal(jsD, jsA) {
		t.Error("taking a checkpoint perturbed the run: metrics differ")
	}
}
