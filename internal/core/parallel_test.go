package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"multikernel/internal/interconnect"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// shootdownRounds spawns a driver on core 0's replica running machine-wide
// unmap agreement rounds — the heaviest cross-core protocol in the system,
// touching every monitor through the URPC mesh.
func shootdownRounds(e *sim.Engine, s *System, m *topo.Machine, rounds int) {
	targets := make([]topo.CoreID, m.NumCores())
	for c := range targets {
		targets[c] = topo.CoreID(c)
	}
	e.Spawn("driver", func(p *sim.Proc) {
		mon := s.Net.Monitor(0)
		for i := 0; i < rounds; i++ {
			if !mon.Unmap(p, 0x4000_0000, 4096, targets, monitor.NUMAAware) {
				panic("unmap round failed")
			}
		}
	})
}

// The serial-equivalence anchor: BootParallel on a single-partition engine is
// the serial boot run through the parallel engine's epoch loop (one epoch,
// since a lone partition's lookahead is unbounded, and no worker goroutine),
// and must reproduce the serial reference byte-for-byte in every observable —
// trace, metrics snapshot, engine checkpoint image. This is the nparts=1 half
// of the determinism contract; the workers-sweep identity at nparts=8 lives
// in expt.BootParallelBench.
func TestParallelBootMatchesSerialAtOnePartition(t *testing.T) {
	m := topo.AMD4x4()
	const seed, rounds = 7, 3
	// Both runs drain via RunUntil at the same virtual instant (far past the
	// workload) so the serialized clocks agree: Run would leave the serial
	// clock on the last event and the parallel clocks on an epoch boundary.
	const alignT = sim.Time(1) << 40

	run := func(e *sim.Engine, s *System, rec *trace.Recorder, drive func()) (events []trace.Event, metrics, img []byte) {
		shootdownRounds(e, s, m, rounds)
		drive()
		mj, err := json.Marshal(e.Metrics().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return rec.Events(), mj, buf.Bytes()
	}

	se := sim.NewEngine(seed)
	srec := trace.NewRecorder()
	se.SetTracer(srec)
	ss := Boot(se, m)
	wantEv, wantMet, wantImg := run(se, ss, srec, func() { se.RunUntil(alignT) })
	se.Close()
	if len(wantEv) == 0 {
		t.Fatal("serial reference produced no trace events")
	}

	pe := sim.NewParallelEngine(1, interconnect.Lookahead(m, topo.Partition(m, 1)), seed, 1)
	defer pe.Close()
	rec := trace.NewRecorder()
	pe.Part(0).SetTracer(rec)
	ps := BootParallel(pe, m, Options{})
	gotEv, gotMet, gotImg := run(pe.Part(0), ps.Parts[0], rec, func() { pe.RunUntil(alignT) })
	if len(gotEv) != len(wantEv) {
		t.Fatalf("%d trace events, serial reference has %d", len(gotEv), len(wantEv))
	}
	for i := range gotEv {
		if gotEv[i] != wantEv[i] {
			t.Fatalf("trace diverges at event %d: %+v vs serial %+v", i, gotEv[i], wantEv[i])
		}
	}
	if !bytes.Equal(gotMet, wantMet) {
		t.Fatal("metrics snapshot diverges from serial reference")
	}
	if !bytes.Equal(gotImg, wantImg) {
		t.Fatal("checkpoint image diverges from serial reference")
	}
}

func TestBootParallelRejectsExcessLookahead(t *testing.T) {
	m := topo.AMD8x4()
	pm := topo.PerSocket(m)
	pe := sim.NewParallelEngine(pm.NParts(), interconnect.Lookahead(m, pm)+1, 7, 1)
	defer pe.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("BootParallel accepted a lookahead above the cross-partition minimum")
		}
	}()
	BootParallel(pe, m, Options{})
}
