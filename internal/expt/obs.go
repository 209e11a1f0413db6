package expt

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"multikernel/internal/apps"
	"multikernel/internal/harness"
	"multikernel/internal/monitor"
	"multikernel/internal/obs"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// This file holds the observability-plane experiment (mkbench obs): the
// kvcluster fail-over scenario re-run with the distributed stat plane at a
// sweep of sampling intervals, measuring what observation costs and what it
// buys. Costs: the client drivers' completion cycle with no plane, with a
// disabled plane (must be the same cycle — the zero-overhead contract the
// pinned BenchmarkObsPinned also gates in CI) and with live sampling, plus
// the plane's own message volume per committed window. Buys: exact fidelity
// (summing a committed counter series reproduces the engine-side registry
// value), and the health monitor's kill-to-degraded-event latency against
// its documented bound of detector period + monitor op deadline + two
// sampling intervals. Every point is a hermetic seeded run and each point's
// result embeds a hash of the committed store's JSON export, so the sweep —
// including the store bytes — is checked byte-identical at any -parallel.

const (
	obsHorizon   = sim.Time(12_000_000)
	obsKillAt    = sim.Time(2_000_000)
	obsFDPeriod  = sim.Time(400_000)
	obsOpTimeout = sim.Time(100_000)
	// obsClientOps per driver, at one op per 30k cycles: drivers quiesce by
	// ~6 Mcycles, leaving windows of silence before the horizon so committed
	// totals must equal the registry exactly.
	obsClientOps = 120
)

type obsPoint struct {
	label    string
	interval sim.Time // 0 with plane=true: constructed but disabled
	plane    bool
}

type obsPointResult struct {
	doneAt              sim.Time // last client driver completion
	ops                 uint64   // successful client ops
	windows, msgs, late uint64
	fidelityOK          bool
	detectLat           uint64 // kill→degraded-event cycles (0: no plane)
	storeHash           [32]byte
}

func obsRun(seed uint64, pt obsPoint) obsPointResult {
	m := topo.AMD4x4()
	env := NewEnv(m, seed)
	defer env.Close()
	e := env.E

	net := monitor.NewNetwork(e, env.Sys, env.Kern, env.KB, monitor.Hooks{})
	net.EnableFaultTolerance(obsOpTimeout)
	cluster := apps.NewKVCluster(e, env.Sys, net, apps.ClusterConfig{
		Rows:    16,
		Servers: []topo.CoreID{2, 3, 6},
		Spares:  []topo.CoreID{8, 12},
	})
	cluster.StartFailureDetector(net, 0, obsFDPeriod)

	var pl *obs.Plane
	var health *obs.Health
	if pt.plane {
		pl = obs.NewPlane(e, env.Sys, env.KB, obs.Config{
			Interval: pt.interval, Seed: seed, Publish: true,
		})
		health = pl.EnableHealth()
		pl.Start()
	}

	var res obsPointResult
	for ci, core := range []topo.CoreID{1, 5, 10} {
		cl := cluster.Connect(core)
		rng := sim.NewRNG(seed ^ uint64(ci)*0x9e37_79b9_7f4a_7c15)
		e.Spawn(fmt.Sprintf("obsdrv%d", ci), func(p *sim.Proc) {
			for i := 0; i < obsClientOps; i++ {
				key := uint64(rng.Intn(16))
				var err error
				if rng.Uint64()%2 == 0 {
					_, err = cl.Put(p, key, uint64(i))
				} else {
					_, _, err = cl.Get(p, key)
				}
				if err == nil {
					res.ops++
				}
				p.Sleep(30_000)
			}
			if p.Now() > res.doneAt {
				res.doneAt = p.Now()
			}
		})
	}

	victim := cluster.Primary(0)
	e.After(obsKillAt, func() {
		cluster.KillCore(victim)
		net.FailStop(victim)
		if pl != nil {
			pl.FailStop(victim)
		}
	})
	e.RunUntil(obsHorizon)

	if pl != nil && pl.Enabled() {
		reg := e.Metrics()
		res.windows = reg.Counter("obs.windows").Value()
		res.msgs = reg.Counter("obs.msgs").Value()
		res.late = reg.Counter("obs.late").Value()
		// Fidelity: the committed op-count series must sum to the exact
		// engine-side histogram population.
		_, n, _, _ := reg.Histogram("kv.op_cycles").Raw()
		s := pl.Store().Get("kv.op_cycles.n")
		res.fidelityOK = s != nil && s.Total() == int64(n)
		for _, ev := range health.Events() {
			if ev.Kind == obs.ShardDegraded && res.detectLat == 0 {
				res.detectLat = ev.At - uint64(obsKillAt)
			}
		}
		h := sha256.New()
		if err := pl.Store().WriteJSON(h); err != nil {
			panic(err)
		}
		copy(res.storeHash[:], h.Sum(nil))
	}
	return res
}

// obsBound is the documented detection bound for a sampling interval.
func obsBound(interval sim.Time) uint64 {
	return uint64(obsFDPeriod + obsOpTimeout + 2*interval)
}

// Obs sweeps the observability plane's sampling interval over the kvcluster
// fail-over scenario. seed selects the run family (mkbench -fault-seed). The
// headline reports the finest interval against the no-plane base run.
func Obs(seed uint64) Result {
	points := []obsPoint{
		{"no plane", 0, false},
		{"disabled", 0, true},
		{"400k", 400_000, true},
		{"200k", 200_000, true},
		{"100k", 100_000, true},
	}
	rs := harness.Map(len(points), func(i int) obsPointResult {
		return obsRun(seed, points[i])
	})

	tab := &table{
		Title: "Observability plane: cost and detection latency (4x4-core AMD, 1 server kill)",
		Columns: []string{"plane", "client done Mcy", "ops", "windows", "msgs/win",
			"late", "fidelity", "detect cycles", "bound", "store sha256"},
	}
	base := rs[0]
	fidelity := true
	for i, pt := range points {
		r := rs[i]
		mw, fid, det, bnd, hash := "-", "-", "-", "-", "-"
		if pt.plane && pt.interval > 0 {
			if r.windows > 0 {
				mw = fmt.Sprintf("%.1f", float64(r.msgs)/float64(r.windows))
			}
			fid = fmt.Sprintf("%v", r.fidelityOK)
			// A replica dip shorter than the sampling window is invisible to
			// the plane — the coarse-interval rows report it as missed.
			det = "missed"
			if r.detectLat > 0 {
				det = fmt.Sprintf("%d", r.detectLat)
			}
			bnd = fmt.Sprintf("%d", obsBound(pt.interval))
			hash = fmt.Sprintf("%x", r.storeHash[:6])
			fidelity = fidelity && r.fidelityOK
		}
		tab.AddRow(pt.label,
			fmt.Sprintf("%.3f", float64(r.doneAt)/1e6),
			fmt.Sprintf("%d", r.ops),
			fmt.Sprintf("%d", r.windows), mw,
			fmt.Sprintf("%d", r.late), fid, det, bnd, hash)
	}
	fine := rs[len(rs)-1]
	bound := obsBound(points[len(points)-1].interval)
	var msgsPerWindow float64
	if fine.windows > 0 {
		msgsPerWindow = float64(fine.msgs) / float64(fine.windows)
	}
	return Result{Tables: []*table{tab}, Headline: map[string]float64{
		// The disabled plane must finish on the base run's exact cycle.
		"obs.zero_overhead_disabled":       b2f(rs[1].doneAt == base.doneAt && rs[1].ops == base.ops),
		"obs.sampling_client_delta_cycles": float64(fine.doneAt) - float64(base.doneAt),
		"obs.fidelity_exact":               b2f(fidelity),
		"obs.detect_cycles":                float64(fine.detectLat),
		"obs.detect_bound_cycles":          float64(bound),
		"obs.detect_within_bound":          b2f(fine.detectLat > 0 && fine.detectLat <= bound),
		"obs.windows":                      float64(fine.windows),
		"obs.msgs_per_window":              msgsPerWindow,
		// Leading bytes of the finest point's store JSON sha256.
		"obs.store_hash32": float64(binary.BigEndian.Uint32(fine.storeHash[:4])),
	}}
}
