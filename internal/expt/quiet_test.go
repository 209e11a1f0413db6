package expt

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"multikernel/internal/core"
	"multikernel/internal/interconnect"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// TestMonitorIdleStepsAreSkipped fails if the engine stops skipping the
// monitors' quiet idle steps: on BenchmarkMonitorIdlePinned's scenario,
// which dispatches 4,957,679 events and nearly all of them empty polls, at
// least 90% of them must be skipped steps rather than events.
func TestMonitorIdleStepsAreSkipped(t *testing.T) {
	e := monitorIdleScenario()
	defer e.Close()
	events := e.Metrics().Snapshot().Counters["sim.events_dispatched"]
	skipped := e.SkippedSteps()
	if events != 4_957_679 {
		t.Fatalf("sim.events_dispatched = %d, want the pinned 4,957,679", events)
	}
	if skipped*10 < events*9 {
		t.Fatalf("%d of %d dispatched events were skipped steps; want at least 90%%", skipped, events)
	}
}

// TestParallelBootSkipMatchesStepped runs every parallel-boot workload on
// the per-socket 8x4 engine with no perturb hook, where the monitors' quiet
// idle steps are skipped across epochs, and with a zero hook in every
// partition, where each is an event, and requires the same checkpoint
// image, merged metrics and per-partition trace events.
func TestParallelBootSkipMatchesStepped(t *testing.T) {
	run := func(wl bootWorkload, hook sim.PerturbFunc) (img, met []byte, evs []trace.Event, skipped uint64) {
		m := topo.AMD8x4()
		pm := topo.PerSocket(m)
		pe := sim.NewParallelEngine(pm.NParts(), interconnect.Lookahead(m, pm), bootSeed, 1)
		defer pe.Close()
		recs := make([]*trace.Recorder, pm.NParts())
		for i := range recs {
			recs[i] = trace.NewRecorder()
			pe.Part(i).SetTracer(recs[i])
			pe.Part(i).SetPerturb(hook)
		}
		wl.setup(core.BootParallel(pe, m, core.Options{}), 2)
		if wl.staged {
			pe.RunUntil(50_000)
			pe.RunUntil(123_457)
		}
		pe.Run()
		js, err := json.Marshal(pe.MetricsSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := pe.Checkpoint(&b); err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			evs = append(evs, r.Events()...)
			skipped += pe.Part(i).SkippedSteps()
		}
		return b.Bytes(), js, evs, skipped
	}
	zero := func(sim.Time, sim.Time, uint64) (sim.Time, uint64) { return 0, 0 }
	for _, wl := range bootWorkloads() {
		t.Run(wl.name, func(t *testing.T) {
			img, met, evs, skipped := run(wl, nil)
			wantImg, wantMet, wantEvs, _ := run(wl, zero)
			if skipped == 0 {
				t.Error("no idle step was skipped")
			}
			if !bytes.Equal(img, wantImg) {
				t.Error("checkpoint images differ")
			}
			if !bytes.Equal(met, wantMet) {
				t.Errorf("metrics differ:\nreference: %s\nskipping:  %s", wantMet, met)
			}
			if !reflect.DeepEqual(evs, wantEvs) {
				t.Errorf("trace events differ (%d vs %d)", len(wantEvs), len(evs))
			}
		})
	}
}

// TestKVServerStepsAreSkipped fails if the engine stops skipping the kv
// shard servers' quiet idle passes: on BenchmarkKVClusterPinned's scenario
// (the kvcluster boot workload at scale 24, one worker), which dispatches
// 99,342 events, most of them the servers' empty polls, at least 90% of
// them must be skipped steps rather than events (94.5% are).
func TestKVServerStepsAreSkipped(t *testing.T) {
	m := topo.AMD8x4()
	pm := topo.PerSocket(m)
	pe := sim.NewParallelEngine(pm.NParts(), interconnect.Lookahead(m, pm), bootSeed, 1)
	defer pe.Close()
	bootKVCluster(core.BootParallel(pe, m, core.Options{}), 24)
	pe.Run()
	var skipped uint64
	for i := 0; i < pe.NParts(); i++ {
		skipped += pe.Part(i).SkippedSteps()
	}
	events := pe.MetricsSnapshot().Counters["sim.events_dispatched"]
	if events != 99_342 {
		t.Fatalf("sim.events_dispatched = %d, want the pinned 99,342", events)
	}
	if skipped*10 < events*9 {
		t.Fatalf("%d of %d dispatched events were skipped steps; want at least 90%%", skipped, events)
	}
}

// TestKVClientStepsAreSkipped fails if the engine stops skipping the kv
// clients' quiet Deadline receive checks. On BenchmarkKVClusterPinned's
// scenario the two clients run on sockets 4 and 5, beside monitors that
// dispatch and skip exactly what the monitors of sockets 6 and 7 do (which
// host no client), so what partitions 4 and 5 dispatch beyond partitions 6
// and 7 is the clients' wakeups and the reply deliveries. At least half of
// it must be skipped steps: 58% is, and none was while the receive polled
// through a blocking loop.
func TestKVClientStepsAreSkipped(t *testing.T) {
	m := topo.AMD8x4()
	pm := topo.PerSocket(m)
	pe := sim.NewParallelEngine(pm.NParts(), interconnect.Lookahead(m, pm), bootSeed, 1)
	defer pe.Close()
	bootKVCluster(core.BootParallel(pe, m, core.Options{}), 24)
	pe.Run()
	events := pe.MetricsSnapshot().Counters["sim.events_dispatched"]
	if events != 99_342 {
		t.Fatalf("sim.events_dispatched = %d, want the pinned 99,342", events)
	}
	var added, skipped uint64
	for _, pair := range [][2]int{{4, 6}, {5, 7}} {
		c, ctl := pe.Part(pair[0]), pe.Part(pair[1])
		ce, cs := c.Metrics().Snapshot().Counters["sim.events_dispatched"], c.SkippedSteps()
		le, ls := ctl.Metrics().Snapshot().Counters["sim.events_dispatched"], ctl.SkippedSteps()
		if ce <= le || cs < ls {
			t.Fatalf("partition %d dispatched %d and skipped %d, its control %d and %d", pair[0], ce, cs, le, ls)
		}
		added, skipped = added+ce-le, skipped+cs-ls
	}
	if skipped*2 < added {
		t.Fatalf("%d of the %d wakeups the clients' partitions add were skipped steps; want at least half", skipped, added)
	}
}

// TestWebStepsAreSkipped fails if the engine stops skipping the quiet polls
// of section 5.4's web+database pipeline: the NIC driver's, the web
// server's accept loop and database waits, and the KV service's. Over 50M
// cycles after a 5M-cycle warm-up, at least 85% of the wakeups must be
// skipped steps: 89.9% are, and 48.8% were while only the database waits
// ran as skippable idle steps.
func TestWebStepsAreSkipped(t *testing.T) {
	env, gen := buildWebServer(true, false)
	defer env.Close()
	events := func() uint64 { return env.E.Metrics().Snapshot().Counters["sim.events_dispatched"] }
	env.E.RunUntil(5_000_000)
	e0, s0, c0 := events(), env.E.SkippedSteps(), gen.Completed
	env.E.RunUntil(55_000_000)
	added, skipped := events()-e0, env.E.SkippedSteps()-s0
	gen.Stop()
	if gen.Completed == c0 {
		t.Fatal("no request completed in the window")
	}
	t.Logf("%d of %d wakeups were skipped steps (%.1f%%)", skipped, added, 100*float64(skipped)/float64(added))
	if skipped*100 < added*85 {
		t.Fatalf("%d of the %d wakeups in the window were skipped steps; want at least 85%%", skipped, added)
	}
}
