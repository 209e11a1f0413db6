package expt

import (
	"fmt"

	"multikernel/internal/apps"
	"multikernel/internal/fault"
	"multikernel/internal/harness"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// This file holds the kvstore fail-over experiment (mkbench kvfault): the
// sharded, replicated kvstore from internal/apps is driven by closed-loop
// clients on the 4×4-core AMD system while a seeded schedule fail-stops
// server cores mid-stream. Reported per kill count are the recovery latency —
// from each kill to the first successful client operation on a shard the dead
// core was leading — and the cluster's throughput while degraded versus
// steady state, plus the admission-control shed counts. Every point is a
// hermetic engine run derived from (seed, kills), so the sweep is
// byte-identical at any harness parallelism.

const (
	kvfHorizon     = sim.Time(22_000_000)
	kvfFirstKill   = sim.Time(2_000_000)
	kvfKillSpacing = sim.Time(8_000_000)
	// kvfDegradedWin is the post-kill window counted as degraded operation
	// when splitting throughput; generously beyond detection + promotion +
	// re-replication on this machine.
	kvfDegradedWin = sim.Time(3_000_000)
)

type kvfaultResult struct {
	meanRecovery float64 // mean cycles from kill to first op on an affected shard
	maxRecovery  float64
	steadyThr    float64 // successful ops per Mcycle outside degraded windows
	degradedThr  float64 // successful ops per Mcycle inside degraded windows
	shed         uint64  // writes refused by admission control
	promotions   uint64
	syncs        uint64
}

func kvfaultPoint(seed uint64, kills int) kvfaultResult {
	m := topo.AMD4x4()
	env := NewEnv(m, seed)
	defer env.Close()
	e := env.E
	net := monitor.NewNetwork(e, env.Sys, env.Kern, env.KB, monitor.Hooks{})
	net.EnableFaultTolerance(100_000)

	servers := []topo.CoreID{2, 3, 6}
	spares := []topo.CoreID{8, 12}
	cluster := apps.NewKVCluster(e, env.Sys, net, apps.ClusterConfig{
		Rows:    16,
		Servers: servers,
		Spares:  spares,
	})
	cluster.StartFailureDetector(net, 0, 400_000)

	// Kills land on distinct servers, spaced so one fail-over completes
	// before the next begins; at each kill the set of keys the victim was
	// serving is snapshotted for recovery attribution.
	type killRec struct {
		at       sim.Time
		affected map[uint64]bool
	}
	var killRecs []killRec
	inj := fault.NewInjector(e, env.Sys)
	inj.OnKill(func(c topo.CoreID) {
		aff := make(map[uint64]bool)
		for k := uint64(0); k < 16; k++ {
			if cluster.Primary(cluster.ShardOfKey(k)) == c {
				aff[k] = true
			}
		}
		killRecs = append(killRecs, killRec{at: e.Now(), affected: aff})
		cluster.KillCore(c)
		net.FailStop(c)
	})
	sched := &fault.Schedule{}
	for i := 0; i < kills && i < len(servers); i++ {
		sched.KillAt(kvfFirstKill+sim.Time(i)*kvfKillSpacing, servers[i])
	}
	inj.Arm(sched)

	type completion struct {
		at  sim.Time
		key uint64
	}
	var completions []completion
	clientCores := []topo.CoreID{1, 5, 10}
	for ci, core := range clientCores {
		cl := cluster.Connect(core)
		rng := sim.NewRNG(seed ^ uint64(ci)*0x9e37_79b9_7f4a_7c15)
		ci := ci
		e.Spawn(fmt.Sprintf("kvfdrv%d", ci), func(p *sim.Proc) {
			i := 0
			for p.Now() < kvfHorizon {
				key := uint64(rng.Intn(8))
				var err error
				if rng.Uint64()%2 == 0 {
					_, err = cl.Put(p, key, uint64(ci+1)*1_000_000+uint64(i))
				} else {
					_, _, err = cl.Get(p, key)
				}
				if err == nil {
					completions = append(completions, completion{at: p.Now(), key: key})
				}
				i++
				p.Sleep(30_000)
			}
		})
	}
	e.RunUntil(kvfHorizon + 1)

	var res kvfaultResult
	st := cluster.Stats()
	res.shed = st.Shed
	res.promotions = st.Promotions
	res.syncs = st.Syncs

	var recN int
	for _, kr := range killRecs {
		for _, c := range completions {
			if c.at >= kr.at && kr.affected[c.key] {
				rec := float64(c.at - kr.at)
				res.meanRecovery += rec
				if rec > res.maxRecovery {
					res.maxRecovery = rec
				}
				recN++
				break
			}
		}
	}
	if recN > 0 {
		res.meanRecovery /= float64(recN)
	}

	degraded := func(at sim.Time) bool {
		for _, kr := range killRecs {
			if at >= kr.at && at < kr.at+kvfDegradedWin {
				return true
			}
		}
		return false
	}
	var degT sim.Time
	for _, kr := range killRecs {
		w := kvfDegradedWin
		if kr.at+w > kvfHorizon {
			w = kvfHorizon - kr.at
		}
		degT += w
	}
	steadyT := kvfHorizon - degT
	var degOps, steadyOps int
	for _, c := range completions {
		if degraded(c.at) {
			degOps++
		} else {
			steadyOps++
		}
	}
	if degT > 0 {
		res.degradedThr = float64(degOps) / (float64(degT) / 1e6)
	}
	if steadyT > 0 {
		res.steadyThr = float64(steadyOps) / (float64(steadyT) / 1e6)
	}
	return res
}

// KVFault sweeps the number of fail-stopped kvstore server cores and returns
// the recovery-latency and throughput figures plus a summary table. seed
// selects the schedule family (mkbench -fault-seed); points mix it with the
// kill count so no two points share an engine seed.
func KVFault(seed uint64) (*figure, *figure, *table) {
	lat := newFigure("Extension: kvstore fail-over recovery latency (4x4-core AMD)",
		"server cores killed", "cycles")
	mean := lat.AddSeries("mean kill-to-first-affected-op")
	worst := lat.AddSeries("max kill-to-first-affected-op")
	thr := newFigure("Extension: kvstore throughput under fail-over (4x4-core AMD)",
		"server cores killed", "successful client ops per Mcycle")
	steady := thr.AddSeries("steady-state")
	deg := thr.AddSeries("degraded windows (kill+3Mcy)")

	kills := []int{0, 1, 2}
	pts := harness.Map(len(kills), func(i int) kvfaultResult {
		return kvfaultPoint(seed+uint64(i)*0x9e37_79b9_7f4a_7c15, kills[i])
	})

	tab := &table{
		Title:   "Extension: kvstore fail-over summary (4x4-core AMD)",
		Columns: []string{"kills", "mean recovery (cyc)", "shed writes", "promotions", "re-syncs"},
	}
	for i, k := range kills {
		x := float64(k)
		mean.Add(x, pts[i].meanRecovery)
		worst.Add(x, pts[i].maxRecovery)
		steady.Add(x, pts[i].steadyThr)
		deg.Add(x, pts[i].degradedThr)
		tab.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%.0f", pts[i].meanRecovery),
			fmt.Sprintf("%d", pts[i].shed), fmt.Sprintf("%d", pts[i].promotions),
			fmt.Sprintf("%d", pts[i].syncs))
	}
	return lat, thr, tab
}
