package apps

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"multikernel/internal/cache"
	"multikernel/internal/metrics"
	"multikernel/internal/netstack"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// skipOutcome is everything one run of a TestKVSkipMatchesPolling row
// exposes: its (time, what) log, final clock and sequence number, metrics
// snapshot and exported trace.
type skipOutcome struct {
	log   []string
	now   sim.Time
	seq   uint64
	snap  metrics.Snapshot
	trace []byte
}

// runSkipRow builds a row on a fresh traced AMD2x2 engine under hook,
// drives it, closes the engine and collects the outcome. A hook installed
// after the run reads the sequence number: it sees the one the next event
// takes.
func runSkipRow(build func(e *sim.Engine, sys *cache.System, log func(string)), hook sim.PerturbFunc) skipOutcome {
	e, sys := newSys(topo.AMD2x2())
	e.SetPerturb(hook)
	rec := trace.NewRecorder()
	e.SetTracer(rec)
	var out skipOutcome
	build(e, sys, func(s string) { out.log = append(out.log, fmt.Sprintf("t=%d %s", e.Now(), s)) })
	e.Close()
	out.now, out.snap = e.Now(), e.Metrics().Snapshot()
	e.SetPerturb(func(_, _ sim.Time, s uint64) (sim.Time, uint64) { out.seq = s - 1; return 0, 0 })
	e.After(0, func() {})
	var b bytes.Buffer
	if err := trace.WriteJSON(&b, rec); err != nil {
		panic(err)
	}
	out.trace = b.Bytes()
	return out
}

// kvFixture starts a KV service of 2,000 rows on core 1 with a client on
// core 3.
func kvFixture(e *sim.Engine, sys *cache.System) (*KVService, *KVClient) {
	svc := NewKVService(e, NewKVStore(sys, 1, 2_000))
	return svc, svc.Connect(3)
}

// TestKVSkipMatchesPolling runs each row with no perturb hook, where the
// KV service, SelectRange, the client's Deadline receives and the NIC
// driver skip their quiet sweeps, and with a hook that perturbs nothing,
// where every poll runs and wakes through the queue. Both runs must log the
// same (time, what) sequence and end with the same clock, sequence number,
// metrics and trace bytes.
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
	zero := func(sim.Time, sim.Time, uint64) (sim.Time, uint64) { return 0, 0 }
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s, ref := runSkipRow(r.build, nil), runSkipRow(r.build, zero)
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
		})
	}
}
