package main

import (
	"fmt"
	"time"

	"multikernel/internal/apps"
	"multikernel/internal/cache"
	"multikernel/internal/core"
	"multikernel/internal/expt"
	"multikernel/internal/interconnect"
	"multikernel/internal/memory"
	"multikernel/internal/monitor"
	"multikernel/internal/netstack"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// workload is one benchmark scenario. Windows are in virtual cycles; their
// host cost was sized on a 2-core host so that the fixed window takes a few
// seconds.
type workload struct {
	name, why string
	warm      sim.Time // warm-up window
	slice     sim.Time // one of the nSlices measured slices
	// procs is the run's GOMAXPROCS: the worker count on the parallel
	// engine, 1 on the serial engine, which runs one proc at a time. A
	// second P there only adds cross-CPU hand-off wake-ups, whose cost on a
	// virtual machine swings with the hypervisor (run-to-run spread 0.33 at
	// 2 vs 0.09 at 1 on the 2-core runner).
	procs int
	build func(seed uint64, win window) *instance
}

// window returns the workload's measured window, scaled.
func (w *workload) window(scale float64) window {
	warm := sim.Time(float64(w.warm) * scale)
	slice := sim.Time(float64(w.slice) * scale)
	return window{lo: warm, hi: warm + nSlices*slice, slice: slice}
}

var workloads = []*workload{
	{
		name:  "unmap32",
		why:   "monitor agreement and URPC fan-out on all 32 cores; idle monitor polling sets the host cost",
		warm:  400_000,
		slice: 450_000,
		procs: 1,
		build: buildUnmap32,
	},
	{
		name:  "kv-par",
		why:   "the only parallel-engine workload: replicated kvcluster writes next to primary-only reads",
		warm:  10_000_000,
		slice: 36_000_000,
		procs: kvWorkers,
		build: buildKVPar,
	},
	{
		name:  "webdb",
		why:   "the paper's section 5.4 web+database path: TCP, NIC rings, driver and URPC bulk ranges; no monitors",
		warm:  1_000_000_000,
		slice: 1_250_000_000,
		procs: 1,
		build: buildWebDB,
	},
	{
		name:  "mesh256",
		why:   "directory coherence on a 256-core mesh; bypasses monitor, URPC, apps and boot",
		warm:  2_000_000,
		slice: 4_400_000,
		procs: 1,
		build: buildMesh256,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rowValue is the seeded contents of key k in apps.NewKVStore and
// apps.NewKVCluster.
func rowValue(k uint64) uint64 { return k*2654435761 + 1 }

// serial wraps a serial engine into an instance.
func serial(e *sim.Engine, m *topo.Machine, bootS float64) *instance {
	return &instance{engines: []*sim.Engine{e}, clockGHz: m.ClockGHz, bootS: bootS}
}

// ---------------------------------------------------------------------------
// unmap32: core 0's monitor runs machine-wide TLB shootdowns (Fig 6/7) under
// the NUMA-aware multicast protocol, closed loop with a seeded think time of
// up to unmapThink cycles, so the seed decides where each round lands in the
// monitors' polling cycle.

const unmapThink = 2_000

func buildUnmap32(seed uint64, win window) *instance {
	m := topo.AMD8x4()
	e := sim.NewEngine(seed)
	t0 := time.Now()
	sys := core.Boot(e, m)
	inst := serial(e, m, time.Since(t0).Seconds())

	targets := make([]topo.CoreID, m.NumCores())
	for c := range targets {
		targets[c] = topo.CoreID(c)
	}
	rng := sim.NewRNG(seed)
	rec := newOpRec(true, win)
	stop, exited := false, false
	mon := sys.Net.Monitor(0)
	e.Spawn("unmap-load", func(p *sim.Proc) {
		for !stop {
			p.Sleep(rng.Time(unmapThink))
			va := memory.Addr(0x4000_0000 + rng.Intn(1024)*4096)
			t := p.Now()
			ok := mon.Unmap(p, va, 4096, targets, monitor.NUMAAware)
			rec.add(t, p.Now(), ok)
		}
		exited = true
	})
	inst.recs = []*opRec{rec}
	inst.stop = func() { stop = true }
	inst.stopped = func() bool { return exited }
	inst.verify = func() []string {
		if n := e.Metrics().Snapshot().Counters["monitor.aborts"]; n != 0 {
			return []string{fmt.Sprintf("unmap32: %d monitor aborts", n)}
		}
		return nil
	}
	return inst
}

// ---------------------------------------------------------------------------
// kv-par: the replicated kvcluster (4 shards x 2 replicas on sockets 0-3) on
// the per-socket parallel engine, driven by four closed-loop clients on
// sockets 4-7 issuing 50% Put / 50% Get over kvKeys keys. Each client writes
// only its own keys (key mod 4 == client) and reads all of them, so every
// read has a known expected value.

const (
	kvKeys    = 256
	kvWorkers = 2
)

var (
	kvServers = []topo.CoreID{0, 4, 8, 12}    // sockets 0-3
	kvClients = []topo.CoreID{16, 20, 24, 28} // sockets 4-7
)

// kvClient is one load proc's state, touched only by that proc while it
// runs and by the measuring loop or the final sweep after it exited.
type kvClient struct {
	idx      uint64
	h        *apps.ClusterClient
	rng      *sim.RNG
	get, put *opRec
	seq      uint64
	last     map[uint64]uint64 // own key -> last acknowledged value
	exited   bool
}

// expect reports whether v is a value key may hold when read by client c:
// its owner's last acked write if c owns it, otherwise the seeded row or
// any value written by its owner (writes encode the key in the top bits).
func (c *kvClient) expect(key, v uint64) bool {
	if key%uint64(len(kvClients)) == c.idx {
		want, ok := c.last[key]
		if !ok {
			want = rowValue(key)
		}
		return v == want
	}
	return v == rowValue(key) || v>>40 == key
}

func (c *kvClient) loop(p *sim.Proc, stop *bool) {
	n := uint64(len(kvClients))
	for !*stop {
		t := p.Now()
		if c.rng.Intn(2) == 0 {
			key := uint64(c.rng.Intn(kvKeys/len(kvClients)))*n + c.idx
			c.seq++
			val := key<<40 | c.seq
			existed, err := c.h.Put(p, key, val)
			ok := err == nil && existed
			if ok {
				c.last[key] = val
			}
			c.put.add(t, p.Now(), ok)
		} else {
			key := uint64(c.rng.Intn(kvKeys))
			v, found, err := c.h.Get(p, key)
			c.get.add(t, p.Now(), err == nil && found && c.expect(key, v))
		}
	}
	c.exited = true
}

func buildKVPar(seed uint64, win window) *instance {
	m := topo.AMD8x4()
	pm := topo.PerSocket(m)
	pe := sim.NewParallelEngine(pm.NParts(), interconnect.Lookahead(m, pm), seed, kvWorkers)
	t0 := time.Now()
	ps := core.BootParallel(pe, m, core.Options{})
	inst := &instance{pe: pe, clockGHz: m.ClockGHz, bootS: time.Since(t0).Seconds()}
	for i := 0; i < pe.NParts(); i++ {
		inst.engines = append(inst.engines, pe.Part(i))
	}

	cfg := apps.ClusterConfig{Shards: 4, Replicas: 2, Rows: kvKeys, Servers: kvServers}
	clients := make([]*kvClient, len(kvClients))
	for i := range clients {
		clients[i] = &kvClient{
			idx:  uint64(i),
			rng:  sim.NewRNG(seed<<8 | uint64(i)),
			get:  newOpRec(false, win),
			put:  newOpRec(true, win),
			last: map[uint64]uint64{},
		}
		inst.recs = append(inst.recs, clients[i].get, clients[i].put)
	}
	stop := false
	// The cluster and its client handles exist in every replica; each
	// client's proc runs only in the replica that owns its core.
	ps.Each(func(part int, s *core.System) {
		cl := apps.NewKVCluster(s.Eng, s.Cache, s.Net, cfg)
		for i, c := range kvClients {
			h := cl.Connect(c)
			if !s.Cache.LocalCore(c) {
				continue
			}
			kc := clients[i]
			kc.h = h
			s.Eng.Spawn(fmt.Sprintf("kvload@c%d", c), func(p *sim.Proc) { kc.loop(p, &stop) })
		}
	})

	inst.stop = func() { stop = true }
	inst.stopped = func() bool {
		for _, c := range clients {
			if !c.exited {
				return false
			}
		}
		return true
	}
	// Final sweep: client 0 reads every key back; each must hold its
	// owner's last acknowledged write.
	inst.verify = func() []string {
		var errs []string
		swept := false
		sweeper := clients[0]
		ps.Local(kvClients[0]).Eng.Spawn("kvsweep", func(p *sim.Proc) {
			for key := uint64(0); key < kvKeys; key++ {
				owner := clients[key%uint64(len(kvClients))]
				want, ok := owner.last[key]
				if !ok {
					want = rowValue(key)
				}
				v, found, err := sweeper.h.Get(p, key)
				if err != nil || !found || v != want {
					errs = append(errs, fmt.Sprintf("kv-par: key %d reads %d (found %v, err %v), last acked %d", key, v, found, err, want))
				}
			}
			swept = true
		})
		if !inst.settle(win.slice/10, 1000, func() bool { return swept }) {
			errs = append(errs, "kv-par: final sweep did not finish")
		}
		return errs
	}
	return inst
}

// ---------------------------------------------------------------------------
// webdb: §5.4's web+database server on the 2x2-core AMD machine — NIC and
// driver on core 2, web server on core 3, KVService over webRows rows on
// core 1 — served to a closed-loop fleet of webConns external connections
// issuing 75% /db/<key> and 25% /range/<lo>-<hi> requests.

const (
	webRows     = 10_000
	webConns    = 24
	webRangeLen = 24
)

func buildWebDB(seed uint64, win window) *instance {
	m := topo.AMD2x2()
	t0 := time.Now()
	env := expt.NewEnv(m, seed)
	inst := serial(env.E, m, time.Since(t0).Seconds())

	w := netstack.NewWire(env.E, 1, m.ClockGHz)
	nic := netstack.NewNIC(env.E, env.Sys, "e1000", w, true)
	serverIP := netstack.IP4(10, 1, 1, 1)
	stack := netstack.NewStack(env.E, env.Sys, "web", 3, serverIP)
	netstack.NewDriver(env.E, env.Sys, nic, 2, stack)
	ws := &apps.WebServer{Stack: stack, Page: apps.StaticPage()}
	svc := apps.NewKVService(env.E, apps.NewKVStore(env.Sys, 1, webRows))
	ws.DB = svc.Connect(3)
	env.E.Spawn("websrv", func(p *sim.Proc) {
		p.SetDaemon(true)
		ws.Serve(p)
	})

	fleet := &webFleet{
		wire: w, eng: env.E, rng: sim.NewRNG(seed),
		srcIP: netstack.IP4(10, 1, 1, 99), dstIP: serverIP, dstMAC: stack.MAC,
		rec: newOpRec(false, win),
	}
	w.Attach(nic, fleet)
	fleet.start(webConns)

	inst.recs = []*opRec{fleet.rec}
	inst.extra = func() map[string]uint64 {
		s := nic.Stats()
		return map[string]uint64{"nic.rx_frames": s.RxFrames, "nic.tx_frames": s.TxFrames, "nic.rx_dropped": s.RxDropped}
	}
	inst.stop = func() { fleet.stopped = true }
	inst.stopped = func() bool { return len(fleet.conns) == 0 }
	inst.verify = func() []string { return nil } // the fleet checks every response as it arrives
	return inst
}

// ---------------------------------------------------------------------------
// mesh256: the coherence experiment's publishing pattern on the hermetic
// 256-core topo.Mesh(8) in directory mode, built straight on the hardware
// models (no SKB, monitors or URPC). Every socket's writer RMW-increments its
// own line; every socket's reader loads the lines of the next meshReadDeg
// sockets. Inter-op gaps are seeded around the experiment's means.

const (
	meshReadDeg  = 4
	meshWriteGap = 2600
	meshReadGap  = 1900
)

func buildMesh256(seed uint64, win window) *instance {
	m := topo.Mesh(8)
	e := sim.NewEngine(seed)
	t0 := time.Now()
	sys := cache.New(e, m, memory.New(m), interconnect.New(m))
	sys.SetMode(cache.Directory)
	inst := serial(e, m, time.Since(t0).Seconds())

	ns := m.NSockets
	lines := make([]memory.Addr, ns)
	for s := range lines {
		lines[s] = sys.Memory().AllocLines(1, topo.SocketID(s)).LineAt(0)
	}
	stop := false
	exited := 0
	writes := make([]uint64, ns) // completed RMWs per writer
	rng := sim.NewRNG(seed)
	for s := 0; s < ns; s++ {
		wc := topo.CoreID(s * m.CoresPerSocket)
		rc := wc + 1
		wrec, rrec := newOpRec(true, win), newOpRec(false, win)
		inst.recs = append(inst.recs, wrec, rrec)
		wgap, rgap := sim.NewRNG(rng.Uint64()), sim.NewRNG(rng.Uint64())
		e.Spawn(fmt.Sprintf("meshw%d", s), func(p *sim.Proc) {
			for !stop {
				t := p.Now()
				v := sys.RMW(p, wc, lines[s], func(v uint64) uint64 { return v + 1 })
				// The writer is the line's only writer: every RMW must see
				// its own previous count.
				ok := v == writes[s]+1
				if ok {
					writes[s] = v
				}
				wrec.add(t, p.Now(), ok)
				p.Sleep(meshWriteGap/2 + wgap.Time(meshWriteGap))
			}
			exited++
		})
		e.Spawn(fmt.Sprintf("meshr%d", s), func(p *sim.Proc) {
			var seen [meshReadDeg]uint64
			for !stop {
				for d := range seen {
					t := p.Now()
					v := sys.Load(p, rc, lines[(s+d+1)%ns])
					// Coherence keeps each line's values monotonic to a
					// reader.
					ok := v >= seen[d]
					seen[d] = v
					rrec.add(t, p.Now(), ok)
				}
				p.Sleep(meshReadGap/2 + rgap.Time(meshReadGap))
			}
			exited++
		})
	}
	inst.stop = func() { stop = true }
	inst.stopped = func() bool { return exited == 2*ns }
	inst.verify = func() []string {
		var errs []string
		checked := false
		e.Spawn("meshcheck", func(p *sim.Proc) {
			for s, a := range lines {
				if v := sys.Load(p, 0, a); v != writes[s] {
					errs = append(errs, fmt.Sprintf("mesh256: line of socket %d holds %d, writer completed %d RMWs", s, v, writes[s]))
				}
			}
			checked = true
		})
		if !inst.settle(win.slice/10, 1000, func() bool { return checked }) {
			errs = append(errs, "mesh256: final check did not finish")
		}
		return errs
	}
	return inst
}
