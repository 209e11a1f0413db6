package apps

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"multikernel/internal/cache"
	"multikernel/internal/kernel"
	"multikernel/internal/metrics"
	"multikernel/internal/monitor"
	"multikernel/internal/netstack"
	"multikernel/internal/sim"
	"multikernel/internal/skb"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
	"multikernel/internal/urpc"
)

// skipOutcome is everything one run of a TestKVSkipMatchesPolling row
// exposes: its (time, what) log, final clock and sequence number, metrics
// snapshot and exported trace, and the idle steps the engine skipped.
type skipOutcome struct {
	log     []string
	now     sim.Time
	seq     uint64
	snap    metrics.Snapshot
	trace   []byte
	skipped uint64
}

// runSkipRow builds a row on a fresh engine over m under hook, traced if
// asked, drives it, closes the engine and collects the outcome. A hook
// installed after the run reads the sequence number: it sees the one the
// next event takes.
func runSkipRow(m *topo.Machine, build func(e *sim.Engine, sys *cache.System, log func(string)), hook sim.PerturbFunc, traced bool) skipOutcome {
	e, sys := newSys(m)
	e.SetPerturb(hook)
	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder()
		e.SetTracer(rec)
	}
	var out skipOutcome
	build(e, sys, func(s string) { out.log = append(out.log, fmt.Sprintf("t=%d %s", e.Now(), s)) })
	e.Close()
	out.now, out.snap, out.skipped = e.Now(), e.Metrics().Snapshot(), e.SkippedSteps()
	e.SetPerturb(func(_, _ sim.Time, s uint64) (sim.Time, uint64) { out.seq = s - 1; return 0, 0 })
	e.After(0, func() {})
	if rec != nil {
		var b bytes.Buffer
		if err := trace.WriteJSON(&b, rec); err != nil {
			panic(err)
		}
		out.trace = b.Bytes()
	}
	return out
}

// kvFixture starts a KV service of 2,000 rows on core 1 with a client on
// core 3.
func kvFixture(e *sim.Engine, sys *cache.System) (*KVService, *KVClient) {
	svc := NewKVService(e, NewKVStore(sys, 1, 2_000))
	return svc, svc.Connect(3)
}

// snapEvery logs a registry snapshot every d cycles from d to end, as an
// obs sampler would: a read mid-stretch must find every skipped poll's
// counts.
func snapEvery(e *sim.Engine, d, end sim.Time, log func(string)) {
	for t := d; t <= end; t += d {
		e.After(t, func() {
			s := e.Metrics().Snapshot()
			log(fmt.Sprintf("snap hits=%d recv=%d retries=%d events=%d", s.Counters["cache.hits"], s.Counters["urpc.received"], s.Counters["urpc.retries"], s.Counters["sim.events_dispatched"]))
		})
	}
}

// busy spawns a proc that sleeps steps of d cycles until end: other procs'
// events inside every quiet stretch, so that a skipped stretch cannot wake
// in place.
func busy(e *sim.Engine, d, end sim.Time) {
	e.Spawn("busy", func(p *sim.Proc) {
		for p.Now() < end {
			p.Sleep(d)
		}
	})
}

// TestKVSkipMatchesPolling runs each row with no perturb hook, where the
// engine skips the quiet polls of the KV service, SelectRange's wait, the
// client's Deadline receives, the NIC driver and the accept loop, and with
// a hook that perturbs nothing, where every poll runs and wakes through
// the queue, both traced and untraced. Both runs must log the same (time,
// what) sequence and end with the same clock, sequence number, metrics and
// trace bytes.
func TestKVSkipMatchesPolling(t *testing.T) {
	rows := []struct {
		name  string
		build func(e *sim.Engine, sys *cache.System, log func(string))
	}{
		{"reads and writes with idle gaps", func(e *sim.Engine, sys *cache.System, log func(string)) {
			// The gaps let the service sleep through its 40 sweeps and park.
			_, cli := kvFixture(e, sys)
			e.Spawn("cli", func(p *sim.Proc) {
				for i := uint64(0); i < 3; i++ {
					v, ok, err := cli.Select(p, 7*i)
					log(fmt.Sprintf("select %d = %d %v %v", 7*i, v, ok, err))
					ok, err = cli.Update(p, i, 100+i)
					log(fmt.Sprintf("update %d %v %v", i, ok, err))
					vals, err := cli.SelectRange(p, 10*i, 10*i+700) // two bulk payloads
					log(fmt.Sprintf("range %d rows %v", len(vals), err))
					p.Sleep(sim.Time(20_000 * (i + 1)))
				}
			})
			e.Run()
		}},
		{"two clients", func(e *sim.Engine, sys *cache.System, log func(string)) {
			svc, a := kvFixture(e, sys)
			for k, cli := range []*KVClient{a, svc.Connect(2)} {
				name := fmt.Sprintf("cli%d", k)
				e.Spawn(name, func(p *sim.Proc) {
					for i := uint64(0); i < 3; i++ {
						p.Sleep(sim.Time(k+1) * 300_000)
						vals, err := cli.SelectRange(p, i, i+40)
						log(fmt.Sprintf("%s range %d rows %v", name, len(vals), err))
					}
				})
			}
			e.Run()
		}},
		{"deadlines expire inside stretches", func(e *sim.Engine, sys *cache.System, log func(string)) {
			svc, cli := kvFixture(e, sys)
			cli.Timeout = 300_000
			e.Spawn("cli", func(p *sim.Proc) {
				_, _, err := cli.Select(p, 1)
				log(fmt.Sprintf("select %v", err))
				e.Kill(svc.proc)
				_, _, err = cli.Select(p, 2)
				log(fmt.Sprintf("select %v", err))
			})
			e.Run()
			_, cli = kvFixture(e, sys) // a second service; its client's range read times out
			cli.Timeout = 300_000
			e.Spawn("cli2", func(p *sim.Proc) {
				e.Kill(cli.svc.proc)
				vals, err := cli.SelectRange(p, 0, 10)
				log(fmt.Sprintf("range %d rows %v", len(vals), err))
			})
			e.Run()
		}},
		{"range deadline at every offset into a sweep", func(e *sim.Engine, sys *cache.System, log func(string)) {
			// Against a dead service a range read sweeps both rings, tests
			// its deadline and sleeps rangePollGap: deadlines at consecutive
			// cycles put the test on every offset, a sweep boundary among
			// them. Each read needs a fresh connection, as a timed-out one
			// is marked dead.
			svc := NewKVService(e, NewKVStore(sys, 1, 100))
			e.Kill(svc.proc)
			e.Spawn("cli", func(p *sim.Proc) {
				sweep := 2*(10+sys.Machine().Costs.L1Hit) + rangePollGap
				for off := sim.Time(0); off <= sweep+1; off++ {
					cli := svc.Connect(3)
					cli.Timeout = 20_000 + off
					_, err := cli.SelectRange(p, 0, 10)
					log(fmt.Sprint(err))
				}
			})
			e.Run()
		}},
		{"RunUntil limits inside stretches", func(e *sim.Engine, sys *cache.System, log func(string)) {
			_, cli := kvFixture(e, sys)
			e.Spawn("cli", func(p *sim.Proc) {
				vals, err := cli.SelectRange(p, 0, 20)
				log(fmt.Sprintf("range %d rows %v", len(vals), err))
			})
			for _, t := range []sim.Time{100_000, 300_007, 600_000} {
				e.RunUntil(t)
				log("caller")
			}
			e.Run()
		}},
		{"Kill from a callback", func(e *sim.Engine, sys *cache.System, log func(string)) {
			_, cli := kvFixture(e, sys)
			victim := e.Spawn("cli", func(p *sim.Proc) {
				defer log("cli unwound")
				cli.SelectRange(p, 0, 20)
			})
			e.After(400_003, func() { e.Kill(victim) })
			e.Run()
		}},
		{"Close inside a stretch", func(e *sim.Engine, sys *cache.System, log func(string)) {
			_, cli := kvFixture(e, sys)
			e.Spawn("cli", func(p *sim.Proc) {
				defer log("cli unwound")
				cli.Select(p, 3)
			})
			e.RunUntil(500_000)
		}},
		{"a busy proc beside the idle service, and a client connecting mid-stretch", func(e *sim.Engine, sys *cache.System, log func(string)) {
			// The busy proc's 37-cycle sleeps land inside every 200-cycle
			// gap of the service's idle sweeps. The second client connects
			// 2,013 cycles after the first one's reply, while the service
			// sweeps the one ring it had, and its first request is served
			// once a sweep start takes the new ring.
			svc, cli := kvFixture(e, sys)
			busy(e, 37, 3_000_000)
			snapEvery(e, 97_001, 3_000_000, log)
			e.Spawn("cli", func(p *sim.Proc) {
				for i := uint64(0); i < 3; i++ {
					v, ok, err := cli.Select(p, 7*i)
					log(fmt.Sprintf("select %d = %d %v %v", 7*i, v, ok, err))
					if i == 0 {
						p.Sleep(2_013)
						late := svc.Connect(2)
						log("connected")
						e.Spawn("late", func(q *sim.Proc) {
							v, ok, err := late.Select(q, 11)
							log(fmt.Sprintf("late select = %d %v %v", v, ok, err))
						})
					}
					p.Sleep(3_000)
				}
			})
			e.Run()
		}},
		{"a range payload lands mid-stretch beside a busy proc", func(e *sim.Engine, sys *cache.System, log func(string)) {
			// The wait polls both rings while the service parses; the
			// payloads and the count land inside its quiet stretches.
			_, cli := kvFixture(e, sys)
			busy(e, 37, 2_000_000)
			snapEvery(e, 89_003, 2_000_000, log)
			e.Spawn("cli", func(p *sim.Proc) {
				for i := uint64(0); i < 2; i++ {
					vals, err := cli.SelectRange(p, 10*i, 10*i+700) // two bulk payloads
					log(fmt.Sprintf("range %d rows %v", len(vals), err))
				}
			})
			e.Run()
		}},
		{"a range deadline expires mid-stretch beside a busy proc", func(e *sim.Engine, sys *cache.System, log func(string)) {
			svc, cli := kvFixture(e, sys)
			e.Kill(svc.proc)
			cli.Timeout = 300_017
			busy(e, 37, 600_000)
			snapEvery(e, 71_009, 600_000, log)
			e.Spawn("cli", func(p *sim.Proc) {
				vals, err := cli.SelectRange(p, 0, 10)
				log(fmt.Sprintf("range %d rows %v", len(vals), err))
			})
			e.Run()
		}},
		{"a SYN lands mid-stretch at the accept loop", func(e *sim.Engine, sys *cache.System, log func(string)) {
			// The client's frames reach the server by Inject, not by the
			// link the server's accept loop checks, which stays empty: only
			// Inject's nudge ends the loop's stretch.
			server := netstack.NewStack(e, sys, "web", 3, netstack.IP4(10, 0, 0, 1))
			client := netstack.NewStack(e, sys, "cli", 1, netstack.IP4(10, 0, 0, 2))
			netstack.ConnectLoopback(server, client)
			client.SetOutput(func(p *sim.Proc, f netstack.Frame) {
				p.Sleep(500)
				server.Inject(bytes.Clone(f)) // the client reuses f once this returns
			})
			ws := &WebServer{Stack: server, Page: StaticPage()}
			busy(e, 37, 1_500_000)
			snapEvery(e, 99_007, 1_500_000, log)
			e.Spawn("websrv", func(p *sim.Proc) {
				p.SetDaemon(true)
				ws.Serve(p)
			})
			e.Spawn("client", func(p *sim.Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(sim.Time(200_000 + 77*i))
					conn := client.Dial(p, server.IP, 80)
					conn.Send(p, BuildRequest("/index.html"))
					n := 0
					for {
						b, ok := conn.Recv(p)
						if !ok {
							break
						}
						n += len(b)
					}
					log(fmt.Sprintf("response %d bytes", n))
				}
			})
			e.RunUntil(5_000_000)
		}},
		{"static web server over loopback", func(e *sim.Engine, sys *cache.System, log func(string)) {
			// The accept loop sleeps between empty polls of its link while
			// the client waits between requests.
			server := netstack.NewStack(e, sys, "web", 3, netstack.IP4(10, 0, 0, 1))
			client := netstack.NewStack(e, sys, "cli", 1, netstack.IP4(10, 0, 0, 2))
			netstack.ConnectLoopback(server, client)
			ws := &WebServer{Stack: server, Page: StaticPage()}
			e.Spawn("websrv", func(p *sim.Proc) {
				p.SetDaemon(true)
				ws.Serve(p)
			})
			e.Spawn("client", func(p *sim.Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(sim.Time(200_000 + 77*i))
					conn := client.Dial(p, server.IP, 80)
					conn.Send(p, BuildRequest("/index.html"))
					n := 0
					for {
						b, ok := conn.Recv(p)
						if !ok {
							break
						}
						n += len(b)
					}
					log(fmt.Sprintf("response %d bytes", n))
				}
			})
			e.RunUntil(5_000_000)
		}},
		{"web server, driver and database", func(e *sim.Engine, sys *cache.System, log func(string)) {
			// The section 5.4 pipeline: NIC, driver, stack, web server and
			// database under two closed-loop connections; the driver and the
			// service both sleep through their sweeps to park between
			// requests.
			w := netstack.NewWire(e, 1, sys.Machine().ClockGHz)
			nic := netstack.NewNIC(e, sys, "e1000", w, true)
			stack := netstack.NewStack(e, sys, "web", 3, netstack.IP4(10, 1, 1, 1))
			netstack.NewDriver(e, sys, nic, 2, stack)
			_, cli := kvFixture(e, sys)
			ws := &WebServer{Stack: stack, Page: StaticPage(), DB: cli}
			e.Spawn("websrv", func(p *sim.Proc) {
				p.SetDaemon(true)
				ws.Serve(p)
			})
			g := &HTTPLoadGen{Wire: w, SrcIP: netstack.IP4(10, 1, 1, 90), DstIP: stack.IP, DstMAC: stack.MAC, Path: "/range/5-600", Concurrency: 2}
			w.Attach(nic, g)
			g.Start(e)
			e.RunUntil(12_000_000)
			g.Stop()
			log(fmt.Sprintf("completed %d, %d bytes; server %d requests", g.Completed, g.BytesIn, ws.Requests))
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for _, traced := range []bool{true, false} {
				t.Run(map[bool]string{true: "traced", false: "untraced"}[traced], func(t *testing.T) {
					checkSkipRow(t, topo.AMD2x2(), r.build, traced)
				})
			}
		})
	}
}

// checkSkipRow runs build on m, traced if asked, with no perturb hook and
// with a hook that perturbs nothing, the reference, requires the two
// outcomes to be equal, and returns the no-hook run's.
func checkSkipRow(t *testing.T, m *topo.Machine, build func(e *sim.Engine, sys *cache.System, log func(string)), traced bool) skipOutcome {
	t.Helper()
	zero := func(sim.Time, sim.Time, uint64) (sim.Time, uint64) { return 0, 0 }
	s, ref := runSkipRow(m, build, nil, traced), runSkipRow(m, build, zero, traced)
	if len(ref.log) == 0 {
		t.Fatal("scenario logged nothing")
	}
	if !reflect.DeepEqual(s.log, ref.log) {
		t.Errorf("logs differ:\nno hook:   %s\nzero hook: %s", strings.Join(s.log, ", "), strings.Join(ref.log, ", "))
	}
	if s.now != ref.now || s.seq != ref.seq {
		t.Errorf("ends at t=%d seq=%d with no hook, t=%d seq=%d with a zero hook", s.now, s.seq, ref.now, ref.seq)
	}
	if !reflect.DeepEqual(s.snap, ref.snap) {
		t.Errorf("metrics differ:\nno hook:   %v\nzero hook: %v", s.snap, ref.snap)
	}
	if !bytes.Equal(s.trace, ref.trace) {
		t.Errorf("traces differ (%d and %d bytes)", len(s.trace), len(ref.trace))
	}
	return s
}

// kvServerRows are TestKVServerSkipMatchesStepped's scenarios: kv clusters
// on the AMD4x4 whose shard servers' idle passes the engine skips.
var kvServerRows = []struct {
	name  string
	build func(e *sim.Engine, sys *cache.System, log func(string))
}{
	{"fault-free mixed load", func(e *sim.Engine, sys *cache.System, log func(string)) {
		cl := NewKVCluster(e, sys, nil, ClusterConfig{Rows: 32, Servers: []topo.CoreID{2, 3, 6}})
		for k, core := range []topo.CoreID{1, 9} {
			c, rng := cl.Connect(core), sim.NewRNG(uint64(k)+1)
			e.Spawn(fmt.Sprintf("client%d", k), func(p *sim.Proc) {
				for i := uint64(0); i < 40; i++ {
					key := uint64(rng.Intn(32))
					if rng.Intn(2) == 0 {
						ok, err := c.Put(p, key, i<<8|uint64(k))
						log(fmt.Sprintf("client%d put %d %v %v", k, key, ok, err))
					} else {
						v, ok, err := c.Get(p, key)
						log(fmt.Sprintf("client%d get %d = %d %v %v", k, key, v, ok, err))
					}
					p.Sleep(rng.Time(3_000))
				}
			})
		}
		e.Run()
		log(fmt.Sprintf("stats %+v", cl.Stats()))
	}},
	{"primary killed mid-write", func(e *sim.Engine, sys *cache.System, log func(string)) {
		// Promotion, demotion, recruitment and anti-entropy transfers to
		// the spares, driven by the monitors' failure detection. A second
		// client keeps the server that loses its backup busy, so the
		// excision changes its shard map while its passes are skipped.
		m := sys.Machine()
		kb := skb.New(m)
		kb.Discover()
		kb.Measure()
		net := monitor.NewNetwork(e, sys, kernel.NewSystem(e, m), kb, monitor.Hooks{})
		net.EnableFaultTolerance(100_000)
		cl := NewKVCluster(e, sys, net, ClusterConfig{Rows: 16, Servers: []topo.CoreID{2, 3, 6}, Spares: []topo.CoreID{8, 12}})
		cl.StartFailureDetector(net, 0, 400_000)
		victim := cl.Primary(cl.shardOfKey(0))
		busy := uint64(0)
		for cl.shardOfKey(busy) == cl.shardOfKey(0) || !containsCore(cl.shards[cl.shardOfKey(busy)].isr, victim) {
			busy++
		}
		c, c2 := cl.Connect(1), cl.Connect(9)
		e.Spawn("client", func(p *sim.Proc) {
			for i := uint64(0); i < 24; i++ {
				ok, err := c.Put(p, i%8, 10_000+i)
				log(fmt.Sprintf("put %d %v %v", i%8, ok, err))
				p.Sleep(60_000)
			}
			for key := uint64(0); key < 8; key++ {
				v, ok, err := c.Get(p, key)
				log(fmt.Sprintf("get %d = %d %v %v", key, v, ok, err))
			}
		})
		e.Spawn("busy", func(p *sim.Proc) {
			for i := uint64(0); p.Now() < 3_000_000; i++ {
				v, ok, err := c2.Get(p, busy)
				log(fmt.Sprintf("busy get %d = %d %v %v", busy, v, ok, err))
				p.Sleep(sim.Time(1_500 + 97*(i%7)))
			}
		})
		e.After(900_001, func() {
			cl.KillCore(victim)
			net.FailStop(victim)
		})
		e.RunUntil(12_000_000)
		log(fmt.Sprintf("stats %+v", cl.Stats()))
	}},
	{"failure notice while passes are skipped", func(e *sim.Engine, sys *cache.System, log func(string)) {
		// The failure notification (coreDown, as the monitors' excision
		// hook delivers it) reaches the survivors 9,000 cycles after the
		// kill, while their idle passes are being skipped: the promoted
		// backup and the primary that lost its backup must each start an
		// anti-entropy transfer to a spare at their next service point.
		cl := NewKVCluster(e, sys, nil, ClusterConfig{Rows: 16, Servers: []topo.CoreID{2, 3, 6}, Spares: []topo.CoreID{8, 12}})
		victim := cl.Primary(cl.shardOfKey(0))
		c := cl.Connect(1)
		e.Spawn("client", func(p *sim.Proc) {
			for i := uint64(0); i < 30; i++ {
				ok, err := c.Put(p, i%8, 20_000+i)
				log(fmt.Sprintf("put %d %v %v", i%8, ok, err))
				p.Sleep(sim.Time(2_000 + 131*(i%5)))
			}
		})
		e.Spawn("detector", func(p *sim.Proc) {
			p.Sleep(150_001)
			cl.KillCore(victim)
			p.Sleep(9_000)
			cl.coreDown(p, victim)
			log("core down")
		})
		e.Run()
		log(fmt.Sprintf("stats %+v", cl.Stats()))
	}},
	{"a backup that never acks", func(e *sim.Engine, sys *cache.System, log func(string)) {
		// With no failure detector, the replication deadline (60,000
		// cycles) expires while the primary's passes are being skipped; the
		// laggard is demoted and the spare recruited and synced.
		cl := NewKVCluster(e, sys, nil, ClusterConfig{Rows: 16, Servers: []topo.CoreID{2, 3, 6}, Spares: []topo.CoreID{8}})
		s := cl.shardOfKey(0)
		backup := cl.shards[s].isr[0]
		c := cl.Connect(1)
		e.Spawn("client", func(p *sim.Proc) {
			for i := uint64(0); i < 6; i++ {
				ok, err := c.Put(p, 0, 500+i)
				log(fmt.Sprintf("put %v %v degraded %v", ok, err, cl.Degraded(s)))
				p.Sleep(sim.Time(40_000 + 777*i))
			}
			v, ok, err := c.Get(p, 0)
			log(fmt.Sprintf("get = %d %v %v", v, ok, err))
		})
		e.After(150_003, func() { cl.KillCore(backup) })
		e.RunUntil(8_000_000)
		log(fmt.Sprintf("stats %+v isr %v", cl.Stats(), cl.shards[s].isr))
	}},
	{"a client that connects after the servers started", func(e *sim.Engine, sys *cache.System, log func(string)) {
		// Connects land at offsets into the servers' passes, from a proc
		// and from the caller between runs; each adds a client ring.
		cl := NewKVCluster(e, sys, nil, ClusterConfig{Rows: 16, Servers: []topo.CoreID{2, 3, 6}})
		use := func(name string, c *ClusterClient, first uint64) {
			e.Spawn(name, func(p *sim.Proc) {
				for i := first; i < first+6; i++ {
					ok, err := c.Put(p, i%16, 900+i)
					v, found, gerr := c.Get(p, i%16)
					log(fmt.Sprintf("%s put %v %v get %d %v %v", name, ok, err, v, found, gerr))
				}
			})
		}
		use("first", cl.Connect(1), 0)
		e.Spawn("connector", func(p *sim.Proc) {
			for k, core := range []topo.CoreID{9, 12, 13} {
				p.Sleep(sim.Time(3_001 + 1_237*k))
				use(fmt.Sprintf("late%d", k), cl.Connect(core), 0)
			}
			// Connect while server 2 checks its mesh rings, where the pass
			// takes the new ring at once, and while it checks its client
			// rings, where it takes it at the next pass start. Each new
			// client's first request is to server 2.
			srv, key := cl.byCore[2], uint64(0)
			for cl.Primary(cl.shardOfKey(key)) != 2 {
				key++
			}
			for k, core := range []topo.CoreID{10, 11} {
				for {
					p.Sleep(1)
					e.Settle()
					if s := srv.pass; s.At == urpc.PassRing && (s.Ring < len(srv.srcs)) == (k == 0) {
						break
					}
				}
				log(fmt.Sprintf("connect at ring %d", srv.pass.Ring))
				use(fmt.Sprintf("midpass%d", k), cl.Connect(core), key)
			}
		})
		e.RunUntil(200_000)
		use("driver", cl.Connect(14), 0)
		e.RunUntil(250_017)
		use("driver2", cl.Connect(15), 0)
		e.Run()
	}},
	{"servers park and are woken", func(e *sim.Engine, sys *cache.System, log func(string)) {
		// Gaps on both sides of the park point (40 idle passes of 591
		// cycles) and well past it.
		cl := NewKVCluster(e, sys, nil, ClusterConfig{Rows: 16, Servers: []topo.CoreID{2, 3, 6}})
		c := cl.Connect(1)
		e.Spawn("client", func(p *sim.Proc) {
			for i := uint64(0); i < 12; i++ {
				if i%3 == 0 {
					ok, err := c.Put(p, i, 70+i)
					log(fmt.Sprintf("put %v %v", ok, err))
				} else {
					v, ok, err := c.Get(p, i)
					log(fmt.Sprintf("get %d %v %v", v, ok, err))
				}
				p.Sleep(sim.Time(21_000 + 1_500*i + 300_000*(i%4/3)))
			}
		})
		e.Run()
	}},
}

// TestKVServerSkipMatchesStepped runs each kvServerRows row with no
// perturb hook, where the engine skips the shard servers' quiet idle
// passes, and with a hook that perturbs nothing, where every poll is an
// event. Both runs must log the same (time, what) sequence and end with
// the same clock, sequence number, metrics and trace bytes, and the first
// must have skipped steps.
func TestKVServerSkipMatchesStepped(t *testing.T) {
	for _, r := range kvServerRows {
		t.Run(r.name, func(t *testing.T) {
			if s := checkSkipRow(t, topo.AMD4x4(), r.build, true); s.skipped == 0 {
				t.Error("no idle step was skipped")
			}
		})
	}
}
