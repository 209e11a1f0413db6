package apps

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"multikernel/internal/cache"
	"multikernel/internal/core"
	"multikernel/internal/interconnect"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
	"multikernel/internal/urpc"
)

// sampleMetrics logs a full metrics snapshot of e every every cycles, n
// times: counters that skipped steps stand for must read as the reference
// schedule's at every instant, not only at the end.
func sampleMetrics(e *sim.Engine, log func(string), every sim.Time, n int) {
	for k := 1; k <= n; k++ {
		e.After(sim.Time(k)*every, func() { log(fmt.Sprintf("metrics %v", e.Metrics().Snapshot())) })
	}
}

// waitFixture is a channel from core 0 to core 2 and a receiver proc that
// logs a Deadline receive for each of deadlines in turn.
func waitFixture(e *sim.Engine, sys *cache.System, log func(string), name string, deadlines []sim.Time) *urpc.Channel {
	ch := urpc.New(sys, 0, 2, urpc.Options{Home: -1})
	e.Spawn(name, func(p *sim.Proc) {
		var m [1]urpc.Message
		for _, d := range deadlines {
			n := ch.Recv(p, m[:], urpc.Deadline(d))
			log(fmt.Sprintf("%s got %d: %d", name, n, m[0][0]))
		}
	})
	return ch
}

// sendAfter spawns a sender that sleeps each of gaps and then sends on ch.
func sendAfter(e *sim.Engine, ch *urpc.Channel, gaps []sim.Time) {
	e.Spawn("send", func(p *sim.Proc) {
		for i, g := range gaps {
			p.Sleep(g)
			ch.Send(p, []urpc.Message{{uint64(i + 1)}}, urpc.Spin)
		}
	})
}

// spread returns n values from base in steps of step.
func spread(n int, base, step sim.Time) []sim.Time {
	out := make([]sim.Time, n)
	for i := range out {
		out[i] = base + sim.Time(i)*step
	}
	return out
}

// traceHash logs the bytes rec has recorded.
func traceHash(rec *trace.Recorder, log func(string)) {
	var b bytes.Buffer
	if err := trace.WriteJSON(&b, rec); err != nil {
		panic(err)
	}
	log(fmt.Sprintf("trace %d bytes %x", b.Len(), sha256.Sum256(b.Bytes())))
}

// installMidWait returns a row in which receivers wait under Deadline while
// install runs at t=at, from a callback: two that began 1,000 and at
// cycles before it and receive a message later, and one that times out
// with no message at all, so that no drain loads its ring's line.
func installMidWait(at sim.Time, install func(e *sim.Engine, sys *cache.System, log func(string)) func()) func(e *sim.Engine, sys *cache.System, log func(string)) {
	return func(e *sim.Engine, sys *cache.System, log func(string)) {
		early := waitFixture(e, sys, log, "early", []sim.Time{60_000, 60_000})
		waitFixture(e, sys, log, "idle", []sim.Time{at + 20_000})
		late := urpc.New(sys, 0, 2, urpc.Options{Home: -1})
		e.Spawn("late", func(p *sim.Proc) {
			var m [1]urpc.Message
			p.Sleep(at - 1_000)
			n := late.Recv(p, m[:], urpc.Deadline(40_000))
			log(fmt.Sprintf("late got %d", n))
		})
		sendAfter(e, early, []sim.Time{at + 9_000})
		sendAfter(e, late, []sim.Time{at + 2_500})
		sampleMetrics(e, log, 4_111, 12)
		var finish func()
		e.After(at, func() { finish = install(e, sys, log) })
		e.Run()
		finish()
	}
}

// deadlineRows are TestDeadlineRecvSkipMatchesStepped's single-engine
// rows. None installs a recorder before its waits start, so the waits'
// quiet stretches are skipped.
var deadlineRows = []struct {
	name  string
	build func(e *sim.Engine, sys *cache.System, log func(string))
}{
	{"replies during the ladder", func(e *sim.Engine, sys *cache.System, log func(string)) {
		// The ladder's checks take 3,200 cycles; replies land at offsets
		// across it.
		ch := waitFixture(e, sys, log, "recv", spread(40, 1_000_000, 0))
		sendAfter(e, ch, spread(40, 60, 83))
		sampleMetrics(e, log, 1_237, 60)
		e.Run()
	}},
	{"replies in the capped phase", func(e *sim.Engine, sys *cache.System, log func(string)) {
		ch := waitFixture(e, sys, log, "recv", spread(16, 1_000_000, 0))
		sendAfter(e, ch, spread(16, 4_000, 211))
		sampleMetrics(e, log, 2_333, 40)
		e.Run()
	}},
	{"deadlines expire inside skipped stretches", func(e *sim.Engine, sys *cache.System, log func(string)) {
		// In the ladder at every offset of its first checks, then past it
		// at every offset into a capped check.
		deadlines := append(spread(120, 0, 1), spread(36, 150, 97)...)
		deadlines = append(deadlines, spread(34, 20_000, 49)...)
		waitFixture(e, sys, log, "recv", deadlines)
		sampleMetrics(e, log, 3_001, 50)
		e.Run()
	}},
	{"a stale reply restarts the wait", func(e *sim.Engine, sys *cache.System, log func(string)) {
		// ClusterClient.attempt's loop: a reply for another request starts
		// a new wait for what is left of the deadline.
		ch := urpc.New(sys, 0, 2, urpc.Options{Home: -1})
		e.Spawn("recv", func(p *sim.Proc) {
			var m [1]urpc.Message
			for i := uint64(0); i < 10; i++ {
				deadline := p.Now() + 30_000
				for p.Now() < deadline {
					if ch.Recv(p, m[:], urpc.Deadline(deadline-p.Now())) == 0 {
						log("timed out")
						break
					}
					if m[0][0] == 100+i {
						log(fmt.Sprintf("got %d", m[0][0]))
						break
					}
					log(fmt.Sprintf("stale %d", m[0][0]))
				}
			}
		})
		e.Spawn("send", func(p *sim.Proc) {
			for i := uint64(0); i < 10; i++ {
				p.Sleep(sim.Time(300 + 1_311*i))
				ch.Send(p, []urpc.Message{{900 + i}}, urpc.Spin)
				p.Sleep(sim.Time(700 + 977*i))
				ch.Send(p, []urpc.Message{{100 + i}}, urpc.Spin)
			}
		})
		sampleMetrics(e, log, 2_999, 40)
		e.Run()
	}},
	{"a client killed mid-wait", func(e *sim.Engine, sys *cache.System, log func(string)) {
		for k := range 10 {
			ch := urpc.New(sys, 0, 2, urpc.Options{Home: -1})
			victim := e.Spawn(fmt.Sprintf("recv%d", k), func(p *sim.Proc) {
				defer log(fmt.Sprintf("recv%d unwound", k))
				var m [1]urpc.Message
				ch.Recv(p, m[:], urpc.Deadline(1_000_000))
			})
			e.After(sim.Time(300+911*k), func() { e.Kill(victim) })
		}
		ch := waitFixture(e, sys, log, "survivor", []sim.Time{1_000_000})
		sendAfter(e, ch, []sim.Time{12_345})
		sampleMetrics(e, log, 1_777, 10)
		e.Run()
	}},
	{"SetTracer during the ladder", installMidWait(2_345, func(e *sim.Engine, _ *cache.System, log func(string)) func() {
		rec := trace.NewRecorder()
		e.SetTracer(rec)
		return func() { traceHash(rec, log) }
	})},
	{"SetTracer in the capped phase", installMidWait(12_345, func(e *sim.Engine, _ *cache.System, log func(string)) func() {
		rec := trace.NewRecorder()
		e.SetTracer(rec)
		return func() { traceHash(rec, log) }
	})},
	{"StartTouchTracking during the ladder", installMidWait(2_345, func(_ *sim.Engine, sys *cache.System, log func(string)) func() {
		sys.StartTouchTracking()
		return func() { log(fmt.Sprintf("touched %d lines", sys.StopTouchTracking())) }
	})},
	{"StartTouchTracking in the capped phase", installMidWait(12_345, func(_ *sim.Engine, sys *cache.System, log func(string)) func() {
		sys.StartTouchTracking()
		return func() { log(fmt.Sprintf("touched %d lines", sys.StopTouchTracking())) }
	})},
}

// TestDeadlineRecvSkipMatchesStepped runs each Deadline receive row with
// no perturb hook, where the engine skips the waits' quiet checks, and
// with a hook that perturbs nothing, where every check's steps are events,
// untraced: receive logs, mid-run metrics snapshots, clock, sequence
// number and final metrics must be equal, and the first run must have
// skipped steps. The kv server rows run untraced too, so that their
// clients' waits are skipped (a server killed mid-wait, which the client
// retries and re-resolves, among them), and so do cross-partition replies
// at 1, 2 and 4 workers.
func TestDeadlineRecvSkipMatchesStepped(t *testing.T) {
	for _, r := range deadlineRows {
		t.Run(r.name, func(t *testing.T) {
			if s := checkSkipRow(t, topo.AMD2x2(), r.build, false); s.skipped == 0 {
				t.Error("no idle step was skipped")
			}
		})
	}
	for _, r := range kvServerRows {
		t.Run("untraced "+r.name, func(t *testing.T) {
			if s := checkSkipRow(t, topo.AMD4x4(), r.build, false); s.skipped == 0 {
				t.Error("no idle step was skipped")
			}
		})
	}
	zero := func(sim.Time, sim.Time, uint64) (sim.Time, uint64) { return 0, 0 }
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("cross-partition replies at %d workers", w), func(t *testing.T) {
			got, skipped := crossPartitionWaits(w, nil)
			want, _ := crossPartitionWaits(w, zero)
			if skipped == 0 {
				t.Error("no idle step was skipped")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("runs differ:\nno hook:   %s\nzero hook: %s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// crossPartitionWaits runs a kv cluster on the per-socket AMD4x4 engine at
// workers under hook in every partition: servers on sockets 0 to 2 and
// clients on socket 3, whose replies cross partitions, and one client
// beside a server. It returns the receive log, the merged metrics between
// RunUntil slices and at the end, each partition's clock and sequence
// number and the final image, and the steps the engine skipped.
func crossPartitionWaits(workers int, hook sim.PerturbFunc) ([]string, uint64) {
	m := topo.AMD4x4()
	pm := topo.PerSocket(m)
	pe := sim.NewParallelEngine(pm.NParts(), interconnect.Lookahead(m, pm), 3, workers)
	defer pe.Close()
	var log []string
	logs := make([][]string, pm.NParts())
	ps := core.BootParallel(pe, m, core.Options{})
	ps.Each(func(part int, s *core.System) {
		s.Eng.SetPerturb(hook)
		cl := NewKVCluster(s.Eng, s.Cache, s.Net, ClusterConfig{Rows: 32, Servers: []topo.CoreID{0, 4, 8}})
		for k, c := range []topo.CoreID{12, 13, 1} {
			h := cl.Connect(c)
			if !s.Cache.LocalCore(c) {
				continue
			}
			rng := sim.NewRNG(uint64(k) + 7)
			s.Eng.Spawn(fmt.Sprintf("client%d", k), func(p *sim.Proc) {
				for i := uint64(0); i < 30; i++ {
					key := uint64(rng.Intn(32))
					if i%3 == 0 {
						ok, err := h.Put(p, key, i<<8|uint64(k))
						logs[part] = append(logs[part], fmt.Sprintf("t=%d client%d put %d %v %v", p.Now(), k, key, ok, err))
					} else {
						v, ok, err := h.Get(p, key)
						logs[part] = append(logs[part], fmt.Sprintf("t=%d client%d get %d = %d %v %v", p.Now(), k, key, v, ok, err))
					}
					p.Sleep(rng.Time(6_000))
				}
			})
		}
	})
	for _, t := range []sim.Time{150_000, 150_311, 400_000, 777_777} {
		pe.RunUntil(t)
		log = append(log, fmt.Sprintf("t=%d metrics %v", t, pe.MetricsSnapshot()))
	}
	pe.Run()
	log = append(log, fmt.Sprintf("metrics %v", pe.MetricsSnapshot()))
	var skipped uint64
	for i := range pe.NParts() {
		e := pe.Part(i)
		skipped += e.SkippedSteps()
		log = append(log, logs[i]...)
		var seq uint64
		e.SetPerturb(func(_, _ sim.Time, s uint64) (sim.Time, uint64) { seq = s - 1; return 0, 0 })
		e.After(0, func() {})
		e.SetPerturb(hook)
		log = append(log, fmt.Sprintf("partition %d t=%d seq=%d", i, e.Now(), seq))
	}
	pe.Run()
	var img bytes.Buffer
	if err := pe.Checkpoint(&img); err != nil {
		panic(err)
	}
	log = append(log, fmt.Sprintf("image %x", sha256.Sum256(img.Bytes())))
	return log, skipped
}
