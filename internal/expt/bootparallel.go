package expt

// The parallel-boot benchmark (ROADMAP item 4): the full multikernel booted
// with core.BootParallel on the 8-socket machine, driven through the three
// app workloads of the evaluation — TLB-shootdown agreement storms, the
// web+database request path, and the replicated kvcluster — at several worker
// counts. Each workload's parallel runs must be byte-identical to its
// workers=1 run in every observable: the final engine checkpoint image
// (memory pages, MOESI directory, monitor cursors, clocks, RNG streams), the
// merged metrics snapshot rendered as JSON, and the per-partition event
// traces. Wall-clock speedup is hardware-dependent (it needs idle host
// cores); byte identity is not, and BENCH_boot.json records both along with
// the runner's core count.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"multikernel/internal/apps"
	"multikernel/internal/core"
	"multikernel/internal/interconnect"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// bootSeed seeds every parallel-boot run; results are a function of
// (seed, nparts) alone, which is exactly what the worker sweep verifies.
const bootSeed = 7

// bootWorkload is one benchmark scenario on a parallel-booted system.
type bootWorkload struct {
	name string
	// setup builds the scenario. Replica-shared structures (stores, services,
	// channels) must be constructed identically in every replica — setup runs
	// ps.Each for those — while procs are spawned only in the replica owning
	// their core.
	setup func(ps *core.ParallelSystem, scale int)
	// staged, when true, drives the run through a RunUntil/Stop schedule
	// instead of one uninterrupted Run (the schedule is virtual-time-fixed,
	// so it cannot perturb results — which is what the identity gate checks).
	staged bool
}

// bootShootdown: core 0's monitor drives machine-wide unmap agreement rounds
// under the NUMA-aware multicast protocol. Every round fans out over the
// monitor mesh to all 32 cores — the aggregation tree spans every partition
// boundary — and completes only when the ack tree has folded back.
func bootShootdown(ps *core.ParallelSystem, scale int) {
	m := ps.Mach
	targets := make([]topo.CoreID, m.NumCores())
	for c := range targets {
		targets[c] = topo.CoreID(c)
	}
	s0 := ps.Local(0)
	s0.Eng.Spawn("shootdown-driver", func(p *sim.Proc) {
		mon := s0.Net.Monitor(0)
		for i := 0; i < scale; i++ {
			if !mon.Unmap(p, 0x4000_0000, 4096, targets, monitor.NUMAAware) {
				panic("expt: boot shootdown round failed")
			}
		}
	})
}

// bootWebserver: four web+database pairs (§5.4's shape), each pair straddling
// a partition boundary — the database core on an even socket, its web
// front-end on the following odd socket. Requests and replies cross
// partitions through the URPC mirror path; range results ride bulk pools.
func bootWebserver(ps *core.ParallelSystem, scale int) {
	ps.Each(func(part int, s *core.System) {
		for j := 0; j < 4; j++ {
			db := topo.CoreID(8 * j)    // socket 2j
			web := topo.CoreID(8*j + 4) // socket 2j+1
			kv := apps.NewKVStore(s.Cache, db, 128)
			svc := apps.NewKVService(s.Eng, kv)
			cl := svc.Connect(web)
			if !s.Cache.LocalCore(web) {
				continue
			}
			j := j
			s.Eng.Spawn(fmt.Sprintf("web%d", j), func(p *sim.Proc) {
				for i := 0; i < scale; i++ {
					key := uint64((i*7 + j) % 128)
					switch i % 4 {
					case 0:
						if _, err := cl.Update(p, key, uint64(i)<<8|uint64(j)); err != nil {
							panic(err)
						}
					case 2:
						if _, err := cl.SelectRange(p, key, key+24); err != nil {
							panic(err)
						}
					default:
						if _, _, err := cl.Select(p, key); err != nil {
							panic(err)
						}
					}
				}
			})
		}
	})
}

// bootKVCluster: the replicated kvstore spanning four partitions (primaries
// and backups on sockets 0–3), fault-free, with client cores on sockets 4 and
// 5 driving a mixed GET/PUT load. Every PUT's primary→backup replication and
// backup→primary ack crosses a partition boundary.
func bootKVCluster(ps *core.ParallelSystem, scale int) {
	cfg := apps.ClusterConfig{
		Shards:   4,
		Replicas: 2,
		Rows:     64,
		Servers:  []topo.CoreID{0, 4, 8, 12}, // sockets 0..3
	}
	clients := []topo.CoreID{16, 20} // sockets 4, 5
	ps.Each(func(part int, s *core.System) {
		cl := apps.NewKVCluster(s.Eng, s.Cache, s.Net, cfg)
		for ci, c := range clients {
			h := cl.Connect(c)
			if !s.Cache.LocalCore(c) {
				continue
			}
			ci, c := ci, c
			s.Eng.Spawn(fmt.Sprintf("kvclient@c%d", c), func(p *sim.Proc) {
				for i := 0; i < scale; i++ {
					key := uint64((i*13 + ci*29) % 64)
					if i%3 == 0 {
						if _, err := h.Put(p, key, uint64(i+1)<<16|uint64(ci)); err != nil {
							panic(err)
						}
					} else {
						if _, _, err := h.Get(p, key); err != nil {
							panic(err)
						}
					}
				}
			})
		}
	})
}

func bootWorkloads() []bootWorkload {
	return []bootWorkload{
		{name: "shootdown", setup: bootShootdown, staged: true},
		{name: "webserver", setup: bootWebserver},
		{name: "kvcluster", setup: bootKVCluster},
	}
}

// bootArtifacts are one run's identity-checked observables.
type bootArtifacts struct {
	img     []byte        // ParallelEngine checkpoint image
	metrics []byte        // merged metrics snapshot as JSON
	events  []trace.Event // per-partition traces, partition order
	nevents uint64        // sim.events_dispatched, the pinned count
	wall    float64
}

// bootRunOnce boots the multikernel on a per-socket ParallelEngine, runs one
// workload, and collects the identity artifacts.
func bootRunOnce(wl bootWorkload, scale, workers int) bootArtifacts {
	m := topo.AMD8x4()
	pm := topo.PerSocket(m)
	pe := sim.NewParallelEngine(pm.NParts(), interconnect.Lookahead(m, pm), bootSeed, workers)
	recs := make([]*trace.Recorder, pm.NParts())
	for i := range recs {
		recs[i] = trace.NewRecorder()
		pe.Part(i).SetTracer(recs[i])
	}
	ps := core.BootParallel(pe, m, core.Options{})
	wl.setup(ps, scale)

	t0 := time.Now()
	if wl.staged {
		// A virtual-time-fixed staging schedule: two RunUntil cuts (the
		// second lands mid-epoch, keeping the window open across calls), a
		// Stop from a virtual timer at t=2M (it takes effect at the next
		// epoch barrier, which sits on the worker-independent grid), then run
		// to completion. The identity gate proves staging is invisible in
		// every observable.
		pe.Part(0).After(2_000_000, func() { pe.Stop() })
		pe.RunUntil(500_000)
		pe.RunUntil(1_234_567)
		pe.Run() // returns at the first barrier past the Stop timer
		pe.Run() // drains to completion
	} else {
		pe.Run()
	}
	wall := time.Since(t0).Seconds()

	if dead := pe.Deadlocked(); len(dead) != 0 {
		panic(fmt.Sprintf("expt: boot %s deadlocked: %v", wl.name, dead))
	}
	snap := pe.MetricsSnapshot()
	mjson, err := json.Marshal(snap)
	if err != nil {
		panic("expt: boot metrics: " + err.Error())
	}
	var img bytes.Buffer
	if err := ps.Checkpoint(&img); err != nil {
		panic("expt: boot checkpoint: " + err.Error())
	}
	var evs []trace.Event
	for _, r := range recs {
		evs = append(evs, r.Events()...)
	}
	art := bootArtifacts{
		img:     img.Bytes(),
		metrics: mjson,
		events:  evs,
		nevents: snap.Counters["sim.events_dispatched"],
		wall:    wall,
	}
	pe.Close()
	return art
}

// BootParallelBench runs every workload at one worker and at each of
// workerCounts (all above one). The workers=1 run is the reference
// (identical by definition); every later run's artifacts are compared
// byte-for-byte against it. scale sets rounds per driver (shootdown rounds,
// requests per client).
func BootParallelBench(scale int, workerCounts []int) Result {
	t := &table{
		Title:   "Full multikernel boot on the parallel engine (8x4-core AMD, per-socket partitions)",
		Columns: []string{"workload", "workers", "sim events", "wall s", "speedup", "identical"},
	}
	h := map[string]float64{
		// The honest caveat the speedup claim depends on: wall-clock gains
		// need as many idle host cores as workers; byte identity does not.
		"boot.runner_cores": float64(runtime.NumCPU()),
	}
	identical := true
	for _, wl := range bootWorkloads() {
		ref := bootRunOnce(wl, scale, 1)
		for _, w := range append([]int{1}, workerCounts...) {
			r := ref
			if w > 1 {
				r = bootRunOnce(wl, scale, w)
			}
			same := bytes.Equal(r.img, ref.img) && bytes.Equal(r.metrics, ref.metrics) &&
				slices.Equal(r.events, ref.events)
			var speedup float64
			if r.wall > 0 {
				speedup = ref.wall / r.wall
			}
			identical = identical && same
			t.AddRow(wl.name, fmt.Sprintf("%d", w), fmt.Sprintf("%d", r.nevents),
				fmt.Sprintf("%.3f", r.wall), fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%v", same))
			key := fmt.Sprintf("boot.%s.w%d", wl.name, w)
			h[key+".seconds"] = round3(r.wall)
			h[key+".speedup"] = round3(speedup)
			h[key+".sim_events"] = float64(r.nevents)
		}
	}
	h["boot.identical"] = b2f(identical)
	return Result{Tables: []*table{t}, Headline: h}
}
