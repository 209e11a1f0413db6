// Command mkstat exercises the distributed observability plane end to end
// and renders what it collected. It boots the kvcluster fail-over scenario
// on the 4×4-core AMD machine (the same workload as mkbench obs), runs the
// per-core stat samplers at -interval cycles through the SKB-derived
// aggregation tree, kills one server mid-run, and then prints the committed
// cluster-wide time-series store.
//
// Output modes:
//
//	(default)        aligned table of every committed series (-prefix filters)
//	-json file       the store's deterministic JSON export (byte-identical
//	                 across runs: the artifact CI hashes)
//	-perfetto file   Chrome trace-event JSON of the series as Perfetto
//	                 counter tracks, plus the health monitor's
//	                 degraded/recovered instants on the engine timeline
//
// The health monitor runs throughout; its shard degraded/recovered events
// are printed to stderr with their virtual-time stamps and checked against
// the documented detection bound.
package main

import (
	"flag"
	"fmt"
	"os"

	"multikernel/internal/apps"
	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/kernel"
	"multikernel/internal/memory"
	"multikernel/internal/monitor"
	"multikernel/internal/obs"
	"multikernel/internal/sim"
	"multikernel/internal/skb"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

func main() {
	interval := flag.Uint64("interval", 200_000, "sampling interval in cycles")
	horizon := flag.Uint64("horizon", 12_000_000, "virtual run length in cycles")
	killAt := flag.Uint64("kill", 2_000_000, "fail-stop one kv server at this cycle (0 = no kill)")
	seed := flag.Uint64("seed", 42, "engine and client seed")
	prefix := flag.String("prefix", "", "only series with this name prefix")
	jsonOut := flag.String("json", "", "write the store's JSON export to this file")
	perfettoOut := flag.String("perfetto", "", "write Perfetto counter tracks to this file")
	flag.Parse()

	if *interval == 0 {
		fmt.Fprintln(os.Stderr, "mkstat: -interval must be > 0")
		os.Exit(2)
	}

	m := topo.AMD4x4()
	e := sim.NewEngine(*seed)
	defer e.Close()
	sys := cache.New(e, m, memory.New(m), interconnect.New(m))
	kern := kernel.NewSystem(e, m)
	kb := skb.New(m)
	kb.Discover()
	kb.Measure()
	e.SetTracer(trace.NewRing(1 << 16))

	net := monitor.NewNetwork(e, sys, kern, kb, monitor.Hooks{})
	net.EnableFaultTolerance(100_000)
	cluster := apps.NewKVCluster(e, sys, net, apps.ClusterConfig{
		Rows:    16,
		Servers: []topo.CoreID{2, 3, 6},
		Spares:  []topo.CoreID{8, 12},
	})
	cluster.StartFailureDetector(net, 0, 400_000)

	pl := obs.NewPlane(e, sys, kb, obs.Config{
		Interval: sim.Time(*interval), Seed: *seed, Publish: true,
	})
	health := pl.EnableHealth()
	pl.Start()

	for ci, core := range []topo.CoreID{1, 5, 10} {
		cl := cluster.Connect(core)
		rng := sim.NewRNG(*seed ^ uint64(ci)*0x9e37_79b9_7f4a_7c15)
		e.Spawn(fmt.Sprintf("drv%d", ci), func(p *sim.Proc) {
			p.SetDaemon(true)
			for i := 0; ; i++ {
				key := uint64(rng.Intn(16))
				if rng.Uint64()%2 == 0 {
					cl.Put(p, key, uint64(i))
				} else {
					cl.Get(p, key)
				}
				p.Sleep(30_000)
			}
		})
	}
	if *killAt > 0 {
		e.After(sim.Time(*killAt), func() {
			victim := cluster.Primary(0)
			fmt.Fprintf(os.Stderr, "killing core %d (primary of shard 0) at cycle %d\n", victim, e.Now())
			cluster.KillCore(victim)
			net.FailStop(victim)
			pl.FailStop(victim)
		})
	}
	e.RunUntil(sim.Time(*horizon))

	for _, ev := range health.Events() {
		fmt.Fprintf(os.Stderr, "health: shard %d %s at cycle %d (replicas %d)\n",
			ev.Shard, ev.Kind, ev.At, ev.Replicas)
	}

	st := pl.Store()
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err == nil {
			err = st.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mkstat: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "store JSON written to %s\n", *jsonOut)
	}
	if *perfettoOut != "" {
		f, err := os.Create(*perfettoOut)
		if err == nil {
			err = trace.WriteJSONCounters(f, st.CounterTracks(*prefix)...)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mkstat: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "Perfetto counter tracks written to %s\n", *perfettoOut)
	}
	if *jsonOut == "" && *perfettoOut == "" {
		fmt.Printf("committed windows: %d   obs msgs: %d   pairs: %d   late: %d\n\n",
			e.Metrics().Counter("obs.windows").Value(),
			e.Metrics().Counter("obs.msgs").Value(),
			e.Metrics().Counter("obs.pairs").Value(),
			e.Metrics().Counter("obs.late").Value())
		fmt.Print(st.Render(*prefix))
	}
}
