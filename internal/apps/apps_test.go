package apps

import (
	"errors"
	"strings"
	"testing"

	"multikernel/internal/baseline"
	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/kernel"
	"multikernel/internal/memory"
	"multikernel/internal/netstack"
	"multikernel/internal/sim"
	"multikernel/internal/threads"
	"multikernel/internal/topo"
)

func newSys(m *topo.Machine) (*sim.Engine, *cache.System) {
	e := sim.NewEngine(1)
	return e, cache.New(e, m, memory.New(m), interconnect.New(m))
}

func TestSHMUpdateSingleCoreIsCheap(t *testing.T) {
	e, sys := newSys(topo.AMD4x4())
	res := SHMUpdate(e, sys, 1, 8, 50)
	// After warm-up, a single core updating 8 owned lines costs ~8 stores.
	if mean := res.ClientLatency.Percentile(50); mean > 200 {
		t.Fatalf("single-core 8-line update median %v cycles, want small", mean)
	}
}

func TestSHMUpdateDegradesLinearly(t *testing.T) {
	lat := func(n int) float64 {
		e, sys := newSys(topo.AMD4x4())
		return SHMUpdate(e, sys, n, 8, 30).ClientLatency.Percentile(50)
	}
	l2, l8, l16 := lat(2), lat(8), lat(16)
	t.Logf("SHM8: 2=%.0f 8=%.0f 16=%.0f", l2, l8, l16)
	if !(l2 < l8 && l8 < l16) {
		t.Fatalf("not monotone: %v %v %v", l2, l8, l16)
	}
	if l16 < 4*l2 {
		t.Fatalf("SHM contention too flat: 2 cores %.0f, 16 cores %.0f", l2, l16)
	}
}

func TestMSGServerCostFlat(t *testing.T) {
	cost := func(n int) float64 {
		e, sys := newSys(topo.AMD4x4())
		return MSGUpdate(e, sys, n, 8, 30).ServerCost.Percentile(50)
	}
	c2, c12 := cost(2), cost(12)
	t.Logf("MSG server cost: 2=%.0f 12=%.0f", c2, c12)
	if c12 > 2*c2+100 {
		t.Fatalf("server-side cost not flat: %v -> %v", c2, c12)
	}
}

func TestFig3CrossoverMSGBeatsSHMForLargeUpdates(t *testing.T) {
	// Paper: for updates of 4+ cache lines at high core counts, RPC latency
	// beats shared-memory access (SHM8 vs MSG8 at 14+ cores).
	e1, sys1 := newSys(topo.AMD4x4())
	shm := SHMUpdate(e1, sys1, 14, 8, 30).ClientLatency.Percentile(50)
	e2, sys2 := newSys(topo.AMD4x4())
	msg := MSGUpdate(e2, sys2, 14, 8, 30).ClientLatency.Percentile(50)
	t.Logf("14 cores, 8 lines: SHM=%.0f MSG=%.0f", shm, msg)
	if msg >= shm {
		t.Fatalf("MSG (%.0f) should beat SHM (%.0f) for 8-line updates at 14 cores", msg, shm)
	}
}

func coresN(n int) []topo.CoreID {
	out := make([]topo.CoreID, n)
	for i := range out {
		out[i] = topo.CoreID(i)
	}
	return out
}

func TestComputeWorkloadsScale(t *testing.T) {
	run := func(wl Workload, n int) sim.Time {
		m := topo.AMD4x4()
		e, sys := newSys(m)
		defer e.Close()
		kern := kernel.NewSystem(e, m)
		team := threads.NewTeam(sys, kern, coresN(16))
		return RunCompute(team, wl, coresN(n), func(parts int) Barrier {
			return SpinBarrierAdapter{team.NewSpinBarrier(parts, 0)}
		})
	}
	for _, wl := range NASWorkloads() {
		wl.Iters = 4 // shorten for the test
		t1 := run(wl, 1)
		t8 := run(wl, 8)
		if t8 >= t1 {
			t.Errorf("%s: no speedup from 1 to 8 cores (%d -> %d)", wl.Name, t1, t8)
		}
	}
}

func TestComputeBaselineBarrierDiffers(t *testing.T) {
	m := topo.AMD4x4()
	wl := Workload{Name: "barrier-heavy", Iters: 10, Work: 2_000_000, BarriersPerIter: 6}

	e1, sys1 := newSys(m)
	kern1 := kernel.NewSystem(e1, m)
	team1 := threads.NewTeam(sys1, kern1, coresN(16))
	bf := RunCompute(team1, wl, coresN(16), func(parts int) Barrier {
		return SpinBarrierAdapter{team1.NewSpinBarrier(parts, 0)}
	})
	e1.Close()

	e2, sys2 := newSys(m)
	kern2 := kernel.NewSystem(e2, m)
	base := baseline.New(e2, sys2, kern2, baseline.Linux)
	team2 := threads.NewTeam(sys2, kern2, coresN(16))
	lx := RunCompute(team2, wl, coresN(16), func(parts int) Barrier {
		return kernelBarrierAdapter{base.NewBarrier(parts, 0)}
	})
	e2.Close()

	t.Logf("barrier-heavy: barrelfish=%d linux=%d", bf, lx)
	if bf == lx {
		t.Fatal("barrier implementations indistinguishable")
	}
	// The user-space spin barrier should win on a barrier-heavy load.
	if bf > lx {
		t.Fatalf("spin barrier (%d) slower than kernel barrier (%d)", bf, lx)
	}
}

// kernelBarrierAdapter adapts the baseline barrier to the apps.Barrier
// interface.
type kernelBarrierAdapter struct{ b *baseline.Barrier }

func (a kernelBarrierAdapter) Wait(th *threads.Thread) { a.b.Wait(th.Proc(), th.Core()) }

func TestKVStoreSelect(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	kv := NewKVStore(sys, 1, 1000)
	e.Spawn("q", func(p *sim.Proc) {
		v, ok := kv.Select(p, 42)
		if !ok || v != 42*2654435761+1 {
			t.Errorf("select(42) = %d, %v", v, ok)
		}
		if _, ok := kv.Select(p, 5000); ok {
			t.Error("select of missing key succeeded")
		}
		if n := kv.SelectRange(p, 10, 20); n != 10 {
			t.Errorf("range scan found %d rows", n)
		}
	})
	e.Run()
	if kv.Queries != 3 {
		t.Fatalf("queries=%d", kv.Queries)
	}
}

func TestKVServiceOverURPC(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	defer e.Close()
	kv := NewKVStore(sys, 1, 1000)
	svc := NewKVService(e, kv)
	cli := svc.Connect(3)
	done := false
	e.Spawn("web", func(p *sim.Proc) {
		for i := uint64(0); i < 20; i++ {
			v, ok, err := cli.Select(p, i)
			if err != nil || !ok || v != i*2654435761+1 {
				t.Errorf("remote select(%d) = %d, %v, %v", i, v, ok, err)
			}
		}
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("client did not finish")
	}
}

// A dead service core must turn into ErrChannelDead on every client path,
// not a deadlock (the pre-fault-awareness client parked forever).
func TestKVClientSurvivesDeadService(t *testing.T) {
	e, sys := newSys(topo.AMD2x2())
	defer e.Close()
	kv := NewKVStore(sys, 1, 100)
	svc := NewKVService(e, kv)
	cli := svc.Connect(3)
	cli.Timeout = 2_000_000 // short deadline keeps the test fast
	var errSel, errUpd, errRange error
	e.Spawn("cli", func(p *sim.Proc) {
		if _, ok, err := cli.Select(p, 1); err != nil || !ok {
			t.Errorf("select against live service failed: ok=%v err=%v", ok, err)
		}
		svc.FailStop()
		_, _, errSel = cli.Select(p, 2)
		_, errUpd = cli.Update(p, 3, 9)
		_, errRange = cli.SelectRange(p, 0, 10)
	})
	e.Run()
	for name, err := range map[string]error{
		"select": errSel, "update": errUpd, "selectrange": errRange,
	} {
		if !errors.Is(err, ErrChannelDead) {
			t.Errorf("%s after service death: err = %v, want ErrChannelDead", name, err)
		}
	}
	if !cli.Dead() {
		t.Error("client connection not marked dead after verdict")
	}
}

func TestWebServerStaticOverLoopback(t *testing.T) {
	m := topo.AMD2x2()
	e, sys := newSys(m)
	defer e.Close()
	server := netstack.NewStack(e, sys, "web", 3, netstack.IP4(10, 0, 0, 1))
	client := netstack.NewStack(e, sys, "cli", 1, netstack.IP4(10, 0, 0, 2))
	netstack.ConnectLoopback(server, client)

	ws := &WebServer{Stack: server, Page: StaticPage()}
	e.Spawn("websrv", func(p *sim.Proc) {
		p.SetDaemon(true)
		ws.Serve(p)
	})
	var got []byte
	e.Spawn("client", func(p *sim.Proc) {
		conn := client.Dial(p, server.IP, 80)
		conn.Send(p, BuildRequest("/index.html"))
		for {
			b, ok := conn.Recv(p)
			if !ok {
				break
			}
			got = append(got, b...)
		}
	})
	e.RunUntil(100_000_000)
	status, body, ok := ParseResponse(got)
	if !ok {
		t.Fatalf("response: %q", status)
	}
	if len(body) != 4100 {
		t.Fatalf("body %d bytes, want 4100", len(body))
	}
	if ws.Requests != 1 {
		t.Fatalf("requests=%d", ws.Requests)
	}
}

func TestHTTPRequestHelpers(t *testing.T) {
	if parseRequestPath("GET /db/17 HTTP/1.0") != "/db/17" {
		t.Fatal("path parse failed")
	}
	if parseRequestPath("POST / HTTP/1.0") != "" {
		t.Fatal("non-GET accepted")
	}
	_, _, ok := ParseResponse([]byte("HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nhi"))
	if !ok {
		t.Fatal("response parse failed")
	}
	if _, _, ok := ParseResponse([]byte("garbage")); ok {
		t.Fatal("garbage accepted")
	}
}

func TestKeyCodec(t *testing.T) {
	b := EncodeKey(123456789)
	k, ok := DecodeKey(b)
	if !ok || k != 123456789 {
		t.Fatalf("roundtrip: %d %v", k, ok)
	}
	if _, ok := DecodeKey([]byte{1}); ok {
		t.Fatal("short key accepted")
	}
}

func TestWebServerErrorPaths(t *testing.T) {
	m := topo.AMD2x2()
	e, sys := newSys(m)
	defer e.Close()
	server := netstack.NewStack(e, sys, "web", 3, netstack.IP4(10, 0, 0, 1))
	client := netstack.NewStack(e, sys, "cli", 1, netstack.IP4(10, 0, 0, 2))
	netstack.ConnectLoopback(server, client)
	kv := NewKVStore(sys, 0, 100)
	svc := NewKVService(e, kv)
	ws := &WebServer{Stack: server, Page: StaticPage(), DB: svc.Connect(3)}
	e.Spawn("websrv", func(p *sim.Proc) {
		p.SetDaemon(true)
		ws.Serve(p)
	})
	fetch := func(path string) string {
		var got []byte
		done := make(chan struct{})
		e.Spawn("client", func(p *sim.Proc) {
			defer close(done)
			conn := client.Dial(p, server.IP, 80)
			conn.Send(p, BuildRequest(path))
			for {
				b, ok := conn.Recv(p)
				if !ok {
					break
				}
				got = append(got, b...)
			}
		})
		e.RunUntil(e.Now() + 80_000_000)
		status, _, _ := ParseResponse(got)
		return status
	}
	if s := fetch("/nope"); !strings.Contains(s, "404") {
		t.Errorf("missing page: %q", s)
	}
	if s := fetch("/db/99999"); !strings.Contains(s, "404") {
		t.Errorf("missing row: %q", s)
	}
	if s := fetch("/db/notanumber"); !strings.Contains(s, "400") {
		t.Errorf("bad key: %q", s)
	}
	if s := fetch("/db/5"); !strings.Contains(s, "200") {
		t.Errorf("good row: %q", s)
	}
	if ws.Errors != 3 {
		t.Errorf("errors=%d, want 3", ws.Errors)
	}
}

func TestStaticPageExactSize(t *testing.T) {
	if got := len(StaticPage()); got != 4100 {
		t.Fatalf("page is %d bytes, want 4100 (the paper's 4.1kB)", got)
	}
}
