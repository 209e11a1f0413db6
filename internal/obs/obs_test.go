package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"multikernel/internal/apps"
	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/kernel"
	"multikernel/internal/memory"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/skb"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
	"multikernel/internal/urpc"
)

func newSys(m *topo.Machine) (*sim.Engine, *cache.System) {
	e := sim.NewEngine(1)
	return e, cache.New(e, m, memory.New(m), interconnect.New(m))
}

func newPlane(m *topo.Machine, cfg Config) (*sim.Engine, *cache.System, *skb.KB, *Plane) {
	e, sys := newSys(m)
	kb := skb.New(m)
	kb.Discover()
	return e, sys, kb, NewPlane(e, sys, kb, cfg)
}

func TestStoreRingWrap(t *testing.T) {
	st := NewStore(4)
	for i := 1; i <= 10; i++ {
		st.Commit(uint64(i*100), "c", int64(i), false)
	}
	s := st.Get("c")
	if s.N() != 10 {
		t.Fatalf("N = %d, want 10", s.N())
	}
	if s.Total() != 55 {
		t.Fatalf("Total = %d, want 55 (ring must not truncate the total)", s.Total())
	}
	pts := s.Points()
	if len(pts) != 4 {
		t.Fatalf("retained %d points, want 4", len(pts))
	}
	for i, p := range pts {
		want := int64(7 + i)
		if p.V != want || p.At != uint64(want*100) {
			t.Fatalf("point %d = %+v, want V=%d At=%d", i, p, want, want*100)
		}
	}
	if last, ok := s.Last(); !ok || last.V != 10 {
		t.Fatalf("Last = %+v/%v, want V=10", last, ok)
	}
}

func TestCounterTracksReaccumulateAfterWrap(t *testing.T) {
	st := NewStore(3)
	for i := 1; i <= 6; i++ {
		st.Commit(uint64(i), "c", 10, false)
	}
	st.Commit(7, "g", -5, true) // negative gauge level clamps in export
	trs := st.CounterTracks("")
	if len(trs) != 2 {
		t.Fatalf("got %d tracks, want 2", len(trs))
	}
	// Counter track: running totals for the retained window, ending at Total.
	c := trs[0]
	want := []uint64{40, 50, 60}
	for i, p := range c.Points {
		if p.V != want[i] {
			t.Fatalf("counter point %d = %d, want %d (must end at Total=60)", i, p.V, want[i])
		}
	}
	if g := trs[1]; g.Points[0].V != 0 {
		t.Fatalf("negative gauge exported as %d, want clamp to 0", g.Points[0].V)
	}
}

func TestOwnership(t *testing.T) {
	_, _, _, pl := newPlane(topo.AMD4x4(), Config{Interval: 10_000})
	if _, ok := pl.ownerOf("obs.msgs"); ok {
		t.Fatal("plane must not sample its own counters")
	}
	// Link counters live on the A-side socket's first core.
	if o, ok := pl.ownerOf("interconnect.link.2-3.dwords"); !ok || o != topo.CoreID(8) {
		t.Fatalf("link 2-3 owner = %v/%v, want core 8 (socket 2's first)", o, ok)
	}
	// Health-critical series live on the root.
	for _, n := range []string{"kv.shard.0.replicas", "monitor.pings", "sim.heap_max_depth"} {
		if o, ok := pl.ownerOf(n); !ok || o != pl.cfg.Root {
			t.Fatalf("%s owner = %v/%v, want root", n, o, ok)
		}
	}
	// Hash-spread names are total and stable.
	o1, ok1 := pl.ownerOf("app.widgets")
	o2, ok2 := pl.ownerOf("app.widgets")
	if !ok1 || !ok2 || o1 != o2 {
		t.Fatalf("hash ownership unstable: %v/%v vs %v/%v", o1, ok1, o2, ok2)
	}
}

// obsWorkload drives counters, a gauge and a histogram from a proc, then
// quiesces well before the horizon so committed totals must match exactly.
func obsWorkload(e *sim.Engine) {
	reg := e.Metrics()
	work := reg.Counter("app.work")
	depth := reg.Gauge("app.depth")
	lat := reg.Histogram("app.lat")
	e.Spawn("load", func(p *sim.Proc) {
		rng := sim.NewRNG(7)
		for i := 0; i < 500; i++ {
			work.Inc()
			depth.Set(int64(i % 17))
			lat.Observe(rng.Uint64() % 100_000)
			p.Sleep(1_000)
		}
	})
}

func TestPlaneFidelity(t *testing.T) {
	e, _, kb, pl := newPlane(topo.AMD4x4(), Config{Interval: 50_000, Publish: true})
	obsWorkload(e)
	pl.Start()
	// Workload quiesces at 500k; run several more windows so every last
	// delta is sampled, shipped and committed.
	e.RunUntil(1_000_000)

	reg := e.Metrics()
	st := pl.Store()
	if got, want := st.Get("app.work").Total(), int64(reg.Counter("app.work").Value()); got != want {
		t.Fatalf("app.work total = %d, want exact registry value %d", got, want)
	}
	if last, ok := st.Get("app.depth").Last(); !ok || last.V != reg.Gauge("app.depth").Value() {
		t.Fatalf("app.depth last = %+v/%v, want registry level %d", last, ok, reg.Gauge("app.depth").Value())
	}
	_, n, sum, _ := reg.Histogram("app.lat").Raw()
	if got := st.Get("app.lat.n").Total(); got != int64(n) {
		t.Fatalf("app.lat.n total = %d, want %d", got, n)
	}
	if got := st.Get("app.lat.sum").Total(); got != int64(sum) {
		t.Fatalf("app.lat.sum total = %d, want %d", got, sum)
	}
	if v := reg.Counter("obs.late").Value(); v != 0 {
		t.Fatalf("healthy run counted %d late windows, want 0", v)
	}
	if reg.Counter("obs.windows").Value() == 0 {
		t.Fatal("no windows committed")
	}
	// The plane's own URPC traffic crosses sockets, so link heat facts must
	// have been published.
	if len(kb.Query("link_heat", skb.Wildcard, skb.Wildcard, skb.Wildcard)) == 0 {
		t.Fatal("no link_heat facts published")
	}
}

func TestPlaneDisabledIsExactlyFree(t *testing.T) {
	// The same cross-socket URPC workload, with (a) no plane, (b) a disabled
	// plane, must finish on the same cycle — the zero-overhead contract.
	run := func(plane bool) sim.Time {
		e, sys := newSys(topo.AMD4x4())
		if plane {
			kb := skb.New(sys.Machine())
			kb.Discover()
			pl := NewPlane(e, sys, kb, Config{}) // Interval 0: disabled
			pl.Start()
			if pl.Enabled() {
				t.Fatal("Interval 0 plane claims enabled")
			}
		}
		done := pingPong(e, sys, 200)
		e.Run()
		return *done
	}
	base, disabled := run(false), run(true)
	if base == 0 || base != disabled {
		t.Fatalf("disabled plane perturbed the run: base %d, disabled %d", base, disabled)
	}
}

// pingPong runs n cross-socket request/response pairs between cores 1 and 5
// and returns a pointer filled with the client's completion time.
func pingPong(e *sim.Engine, sys *cache.System, n int) *sim.Time {
	req := urpc.New(sys, 1, 5, urpc.Options{Slots: 16})
	rsp := urpc.New(sys, 5, 1, urpc.Options{Slots: 16})
	done := new(sim.Time)
	var client, server *sim.Proc
	server = e.Spawn("server", func(p *sim.Proc) {
		p.SetDaemon(true)
		var m [1]urpc.Message
		for {
			if req.Recv(p, m[:], urpc.Poll) > 0 {
				rsp.Send(p, m[:], urpc.Spin)
				e.Wake(client)
			} else {
				p.Park()
			}
		}
	})
	client = e.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			msg := [1]urpc.Message{{uint64(i)}}
			req.Send(p, msg[:], urpc.Spin)
			e.Wake(server)
			for {
				if rsp.Recv(p, msg[:], urpc.Poll) > 0 {
					break
				}
				p.ParkTimeout(1_000)
			}
		}
		*done = p.Now()
	})
	return done
}

func TestPlaneByteIdenticalAcrossRuns(t *testing.T) {
	dump := func() []byte {
		e, _, _, pl := newPlane(topo.AMD4x4(), Config{Interval: 50_000, Seed: 42})
		obsWorkload(e)
		pl.Start()
		e.RunUntil(1_000_000)
		var b bytes.Buffer
		if err := pl.Store().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := dump(), dump()
	if !bytes.Equal(a, b) {
		t.Fatal("store JSON differs between identical runs")
	}
	if !bytes.Contains(a, []byte(`"name":"app.work"`)) {
		t.Fatal("dump missing app.work series")
	}
}

func TestHealthDetectsKill(t *testing.T) {
	const (
		fdPeriod  = sim.Time(400_000)
		opTimeout = sim.Time(100_000)
		interval  = sim.Time(200_000)
		killAt    = sim.Time(900_000)
	)
	m := topo.AMD4x4()
	e, sys := newSys(m)
	kern := kernel.NewSystem(e, m)
	kb := skb.New(m)
	kb.Discover()
	kb.Measure(func(a, b topo.CoreID) sim.Time { return 2 * m.TransferLat(b, a) })
	e.SetTracer(trace.NewRing(65536))
	net := monitor.NewNetwork(e, sys, kern, kb, monitor.Hooks{})
	net.EnableFaultTolerance(opTimeout)
	cl := apps.NewKVCluster(e, sys, net, apps.ClusterConfig{
		Rows:    16,
		Servers: []topo.CoreID{2, 3, 6},
		Spares:  []topo.CoreID{8, 12},
	})
	cl.StartFailureDetector(net, 0, fdPeriod)

	pl := NewPlane(e, sys, kb, Config{Interval: interval, Publish: true})
	h := pl.EnableHealth(HealthConfig{ReplicaTarget: 2})
	pl.Start()

	c := cl.Connect(1)
	e.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			c.Put(p, uint64(i%16), uint64(i))
			p.Sleep(30_000)
		}
	})
	victim := cl.Primary(0)
	e.After(killAt, func() {
		cl.KillCore(victim)
		net.FailStop(victim)
		pl.FailStop(victim)
	})
	// Detection bound: failure-detector period + monitor op deadline to
	// demote, plus at most two sampling intervals for the shrunken gauge to
	// ride up the tree and commit.
	bound := uint64(killAt + fdPeriod + opTimeout + 2*interval)
	e.RunUntil(sim.Time(bound) + 50_000)

	evs := h.Events()
	if len(evs) == 0 {
		t.Fatalf("no health event within the detection bound (kill %d, bound %d)", killAt, bound)
	}
	if evs[0].Kind != ShardDegraded {
		t.Fatalf("first event %+v, want degraded", evs[0])
	}
	if evs[0].At > bound {
		t.Fatalf("degraded at %d, want ≤ %d (kill %d + bound %d)",
			evs[0].At, bound, killAt, bound-uint64(killAt))
	}
	// The transition also lands in the trace as an instant event (checked
	// now, before the flight-recorder ring wraps past it).
	var sawTrace bool
	for _, ev := range e.Tracer().Events() {
		if ev.Name == "obs.shard.degraded" && ev.Sub == trace.SubObs {
			sawTrace = true
		}
	}
	if !sawTrace {
		t.Fatal("no obs.shard.degraded trace instant")
	}

	// Re-replication onto a spare must eventually recover every shard.
	e.RunUntil(60_000_000)
	evs = h.Events()
	if h.Degraded() {
		t.Fatalf("still degraded at horizon; events: %+v", evs)
	}
	var recovered bool
	for _, ev := range evs {
		if ev.Kind == ShardRecovered {
			recovered = true
			if ev.Replicas < 2 {
				t.Fatalf("recovered event with %d replicas: %+v", ev.Replicas, ev)
			}
		}
	}
	if !recovered {
		t.Fatal("no recovered event emitted")
	}
	// Windowed latency quantiles were derived for busy windows.
	p99 := pl.Store().Get("kv.op_cycles.p99")
	if p99 == nil || p99.N() == 0 {
		t.Fatal("no windowed p99 series derived")
	}
	// The dead server's sampler is gone, but the plane keeps committing.
	wBefore := e.Metrics().Counter("obs.windows").Value()
	e.RunUntil(61_000_000)
	if e.Metrics().Counter("obs.windows").Value() <= wBefore {
		t.Fatal("plane stopped committing after the kill")
	}
}

func TestShardHealthFactsPublished(t *testing.T) {
	e, sys := newSys(topo.AMD4x4())
	kb := skb.New(sys.Machine())
	kb.Discover()
	cl := apps.NewKVCluster(e, sys, nil, apps.ClusterConfig{
		Rows:    8,
		Servers: []topo.CoreID{2, 3, 6},
	})
	pl := NewPlane(e, sys, kb, Config{Interval: 100_000, Publish: true})
	pl.Start()
	e.RunUntil(500_000)
	rows := kb.Query("shard_health", skb.Wildcard, skb.Wildcard)
	if len(rows) != cl.Shards() {
		t.Fatalf("published %d shard_health facts, want %d", len(rows), cl.Shards())
	}
	for _, r := range rows {
		if r[1] < 2 {
			t.Fatalf("healthy shard %d published replicas %d", r[0], r[1])
		}
	}
	qd := kb.Query("queue_depth", skb.Wildcard, skb.Wildcard)
	if len(qd) != 3 {
		t.Fatalf("published %d queue_depth facts, want 3", len(qd))
	}
}

func TestRenderAndNames(t *testing.T) {
	st := NewStore(8)
	st.Commit(100, "b.two", 2, false)
	st.Commit(100, "a.one", 1, true)
	names := st.Names()
	if len(names) != 2 || names[0] != "a.one" || names[1] != "b.two" {
		t.Fatalf("Names = %v, want sorted", names)
	}
	out := st.Render("")
	if !strings.Contains(out, "a.one") || !strings.Contains(out, "gauge") {
		t.Fatalf("render missing series/gauge marker:\n%s", out)
	}
	if st.Render("b.") == out {
		t.Fatal("prefix filter had no effect")
	}
	if fmt.Sprintf("%d", st.Get("b.two").Total()) != "2" {
		t.Fatal("total wrong")
	}
}
