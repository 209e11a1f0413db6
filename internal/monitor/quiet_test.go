package monitor

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"multikernel/internal/caps"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// quietRun is what TestSkippedPassesMatchSteppedPasses compares of one run:
// the app's log (operation results and times), every sampled and final
// registry snapshot, per-core cache and monitor counters, the clock and
// the trace bytes.
type quietRun struct {
	log     []string
	clock   sim.Time
	trace   []byte
	skipped uint64
}

// runQuietScenario drives app on a fresh network over m, with a sampler
// that logs a registry snapshot every 4,000 cycles, under hook.
func runQuietScenario(t *testing.T, m *topo.Machine, hook sim.PerturbFunc, app func(f *fixture, p *sim.Proc, log func(string))) quietRun {
	f := newFixtureQuick(m)
	defer f.e.Close()
	f.e.SetPerturb(hook)
	rec := trace.NewRecorder()
	f.e.SetTracer(rec)
	var out quietRun
	log := func(s string) { out.log = append(out.log, fmt.Sprintf("t=%d %s", f.e.Now(), s)) }
	snap := func() {
		s := f.e.Metrics().Snapshot()
		log(fmt.Sprintf("snap %v %v", s.Counters, s.Gauges))
	}
	done := false
	f.e.Spawn("app", func(p *sim.Proc) {
		app(f, p, log)
		done = true
	})
	f.e.Spawn("sampler", func(p *sim.Proc) {
		for !done {
			p.Sleep(4_000)
			snap()
		}
	})
	f.e.Run()
	snap()
	for c := 0; c < m.NumCores(); c++ {
		log(fmt.Sprintf("core %d cache %+v monitor %+v", c, f.sys.Stats(topo.CoreID(c)), f.net.Monitor(topo.CoreID(c)).Stats()))
	}
	out.clock = f.e.Now()
	out.skipped = f.e.SkippedSteps()
	var b bytes.Buffer
	if err := trace.WriteJSON(&b, rec); err != nil {
		t.Fatal(err)
	}
	out.trace = b.Bytes()
	return out
}

// TestSkippedPassesMatchSteppedPasses compares the monitors' skipped idle
// passes (no perturb hook) with the zero-hook reference, where every poll
// is an event, over the agreement protocols on 4x4, 8x4 and the
// hierarchical mesh, requests and notifies that land mid-pass, and
// operations issued around the park point. Every logged line, sampled
// snapshot, counter, the clock and the trace bytes must be equal.
func TestSkippedPassesMatchSteppedPasses(t *testing.T) {
	protocols := func(f *fixture, p *sim.Proc, log func(string)) {
		mon := f.net.Monitor(0)
		last := topo.CoreID(f.m.NumCores() - 1)
		for i, proto := range []Protocol{Unicast, Multicast, NUMAAware} {
			log(fmt.Sprint("unmap ", mon.Unmap(p, 0x10000+memory.Addr(i)*0x1000, 4096, nil, proto)))
			p.Sleep(sim.Time(300 * i))
		}
		log(fmt.Sprint("retype ", mon.Retype(p, 0x40000, 8192, caps.Frame, 0, nil)))
		f.vetoCores[last-1] = true
		log(fmt.Sprint("vetoed retype ", mon.Retype(p, 0x50000, 8192, caps.Frame, 0, nil)))
		f.vetoCores[last-1] = false
		log(fmt.Sprint("ping ", mon.Ping(p, last)))
	}
	type row struct {
		name string
		m    *topo.Machine
		app  func(f *fixture, p *sim.Proc, log func(string))
	}
	rows := []row{
		{"protocols/4x4", topo.AMD4x4(), protocols},
		{"protocols/8x4", topo.AMD8x4(), protocols},
		{"protocols/mesh", hierMachine(), protocols},
		{"pipelined requests and mid-pass notifies/8x4", topo.AMD8x4(), func(f *fixture, p *sim.Proc, log func(string)) {
			// Requests land on monitors that are mid-pass (local request),
			// and their messages wake monitors that have not parked yet
			// (notify), at staggered cycles.
			var futs []*sim.Future[bool]
			for i := 0; i < 6; i++ {
				mon := f.net.Monitor(topo.CoreID(3 * i))
				futs = append(futs, mon.RetypeAsync(p, 0x80000+memory.Addr(i)*0x4000, 4096, caps.Frame, 0, nil))
				p.Sleep(sim.Time(97 + 211*i))
			}
			for i, fut := range futs {
				log(fmt.Sprint("retype ", i, " ", fut.Await(p)))
			}
		}},
	}
	// Pings issued at cycles around the point where the idle monitors
	// park after boot, so that requests meet a pass end, the park itself
	// and a parked monitor.
	for _, at := range []sim.Time{21_400, 21_890, 21_951, 22_004, 22_102, 22_551, 23_003} {
		rows = append(rows, row{fmt.Sprintf("park point/8x4/%d", at), topo.AMD8x4(), func(f *fixture, p *sim.Proc, log func(string)) {
			p.Sleep(at)
			log(fmt.Sprint("ping ", f.net.Monitor(5).Ping(p, 17)))
		}})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got := runQuietScenario(t, r.m, nil, r.app)
			want := runQuietScenario(t, r.m, func(sim.Time, sim.Time, uint64) (sim.Time, uint64) { return 0, 0 }, r.app)
			if got.skipped == 0 {
				t.Error("no idle step was skipped")
			}
			if !reflect.DeepEqual(want.log, got.log) {
				for i := range want.log {
					if i >= len(got.log) || want.log[i] != got.log[i] {
						t.Fatalf("line %d differs:\nreference: %s\nskipping:  %s", i, want.log[i], strings.Join(got.log[i:min(len(got.log), i+1)], ""))
					}
				}
				t.Fatalf("skipping run logged more: %v", got.log[len(want.log):])
			}
			if want.clock != got.clock {
				t.Errorf("clock: reference %d, skipping %d", want.clock, got.clock)
			}
			if !bytes.Equal(want.trace, got.trace) {
				t.Error("trace bytes differ")
			}
		})
	}
}
