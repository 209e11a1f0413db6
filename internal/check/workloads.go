package check

import (
	"fmt"

	"multikernel/internal/apps"
	"multikernel/internal/cache"
	"multikernel/internal/caps"
	"multikernel/internal/fault"
	"multikernel/internal/kernel"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/skb"
	"multikernel/internal/topo"
	"multikernel/internal/urpc"
)

// A workload builds a system on a fresh engine, drives it to completion under
// whatever perturbations and faults the runner installed, and reports
// liveness violations (work that failed to complete by the horizon). The
// trace- and audit-based safety checkers run afterwards in RunOne; kvInit is
// the initial store contents for the linearizability checker (nil when the
// workload has no kvstore).
type workload struct {
	name string
	run  func(e *sim.Engine, sys *cache.System, cfg RunConfig) (viol []Violation, kvInit map[uint64]uint64)
}

var workloads = []workload{
	{"kv", runKVWorkload},
	{"kvfailover", runKVFailoverWorkload},
	{"urpc", runURPCWorkload},
	{"monitor", runMonitorWorkload},
}

// WorkloadNames lists the registered workloads in run order.
func WorkloadNames() []string {
	out := make([]string, len(workloads))
	for i, wl := range workloads {
		out[i] = wl.name
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// runKVWorkload drives three clients on three sockets through a mixed
// select/update script against a kvstore service on core 0, then hands the
// trace-reconstructed history to the linearizability checker. Every written
// value is unique ((client+1)*1e6 + op index), so the checker can tell every
// write's effect apart. Fault mode adds stalls and link degradations but no
// kills: the service core's death would void the completion guarantee this
// workload asserts.
func runKVWorkload(e *sim.Engine, sys *cache.System, cfg RunConfig) ([]Violation, map[uint64]uint64) {
	const (
		rows    = 32
		hotKeys = 4
		opsPer  = 8
		horizon = 120_000_000
	)
	kv := apps.NewKVStore(sys, 0, rows)
	init := make(map[uint64]uint64, rows)
	for k := uint64(0); k < rows; k++ {
		init[k] = k*2654435761 + 1 // NewKVStore's seeding formula
	}
	svc := apps.NewKVService(e, kv)

	type kvOp struct {
		write bool
		key   uint64
		val   uint64
	}
	rng := sim.NewRNG(cfg.Seed ^ 0x6b76776f726b21)
	clientCores := []topo.CoreID{1, 5, 10}
	scripts := make([][]kvOp, len(clientCores))
	for ci := range clientCores {
		for i := 0; i < opsPer; i++ {
			op := kvOp{key: uint64(rng.Intn(hotKeys))}
			if rng.Uint64()%2 == 0 {
				op.write = true
				op.val = uint64(ci+1)*1_000_000 + uint64(i)
			}
			scripts[ci] = append(scripts[ci], op)
		}
	}
	done := make([]bool, len(clientCores))
	for ci, core := range clientCores {
		cl := svc.Connect(core)
		script := scripts[ci]
		ci := ci
		e.Spawn(fmt.Sprintf("kvclient%d", ci), func(p *sim.Proc) {
			for _, op := range script {
				if op.write {
					if _, err := cl.Update(p, op.key, op.val); err != nil {
						return // service core is protected from kills; a verdict here fails liveness below
					}
				} else {
					if _, _, err := cl.Select(p, op.key); err != nil {
						return
					}
				}
			}
			done[ci] = true
		})
	}
	if cfg.Faults {
		spec := fault.Spec{
			Stalls: 2, LinkFaults: 2,
			Window:  [2]sim.Time{500_000, 40_000_000},
			Protect: []topo.CoreID{0, 1, 5, 10},
		}
		inj := fault.NewInjector(e, sys)
		inj.Arm(fault.Random(cfg.Seed^0x6b766661756c74, sys.Machine(), spec))
	}
	e.RunUntil(horizon)

	var viol []Violation
	for ci := range done {
		if !done[ci] {
			viol = append(viol, Violation{Checker: "liveness", Msg: fmt.Sprintf(
				"kv client %d (core %d) did not finish its script by the horizon", ci, clientCores[ci])})
		}
	}
	return viol, init
}

// runKVFailoverWorkload is the robustness counterpart of runKVWorkload: the
// kvstore is sharded over three server cores with two spares and one replica
// per shard beyond the primary, a seeded fault schedule ALWAYS kills one
// server mid-write-window (the kill is the workload, not an option), and the
// monitors' deadline detection drives promotion plus anti-entropy
// re-replication onto a spare. Three fault-aware clients write unique values
// through the kill and finish with a read pass over every hot key; the
// linearizability checker then proves no acknowledged write was lost across
// the fail-over. cfg.Faults layers stall and link noise on top; cfg.KVMut
// plants a replication defect (used by the self-tests to show the oracle
// catches a dropped replication ack).
func runKVFailoverWorkload(e *sim.Engine, sys *cache.System, cfg RunConfig) ([]Violation, map[uint64]uint64) {
	const (
		rows    = 16
		hotKeys = 8
		opsPer  = 10
		horizon = 150_000_000
	)
	m := sys.Machine()
	kern := kernel.NewSystem(e, m)
	kb := skb.New(m)
	kb.Discover()
	kb.Measure()
	net := monitor.NewNetwork(e, sys, kern, kb, monitor.Hooks{})
	net.EnableFaultTolerance(100_000)

	servers := []topo.CoreID{2, 3, 6}
	spares := []topo.CoreID{8, 12}
	cluster := apps.NewKVCluster(e, sys, net, apps.ClusterConfig{
		Rows:    rows,
		Servers: servers,
		Spares:  spares,
		Mut:     cfg.KVMut,
	})
	cluster.StartFailureDetector(net, 0, 400_000)
	init := make(map[uint64]uint64, rows)
	for k := uint64(0); k < rows; k++ {
		init[k] = k*2654435761 + 1
	}

	// The kill lands inside the write window, so replication is in flight.
	// Clients, the heartbeat core and the spares are never the victim.
	rng := sim.NewRNG(cfg.Seed ^ 0x6b766661696c6f)
	inj := fault.NewInjector(e, sys)
	inj.OnKill(func(c topo.CoreID) {
		cluster.KillCore(c)
		net.FailStop(c)
	})
	sched := &fault.Schedule{}
	victim := servers[rng.Intn(len(servers))]
	sched.KillAt(600_000+rng.Time(2_500_000), victim)
	if cfg.Faults {
		if len(m.Links) > 0 {
			l := m.Links[rng.Intn(len(m.Links))]
			sched.DegradeLinkAt(500_000+rng.Time(4_000_000), l.A, l.B, 200_000, 4, 0.2)
		}
		// A stalled spare delays its anti-entropy sync but must not break
		// safety: writes stay shed until the transfer really completes.
		sched.StallAt(700_000+rng.Time(2_000_000), spares[rng.Intn(len(spares))], 120_000)
	}
	inj.Arm(sched)

	type kvOp struct {
		write bool
		key   uint64
		val   uint64
	}
	clientCores := []topo.CoreID{1, 5, 10}
	scripts := make([][]kvOp, len(clientCores))
	for ci := range clientCores {
		for i := 0; i < opsPer; i++ {
			op := kvOp{key: uint64(rng.Intn(hotKeys))}
			if rng.Uint64()%2 == 0 {
				op.write = true
				op.val = uint64(ci+1)*1_000_000 + uint64(i)
			}
			scripts[ci] = append(scripts[ci], op)
		}
	}
	done := make([]bool, len(clientCores))
	unavailable := make([]int, len(clientCores))
	for ci, core := range clientCores {
		cl := cluster.Connect(core)
		script := scripts[ci]
		ci := ci
		e.Spawn(fmt.Sprintf("kvfclient%d", ci), func(p *sim.Proc) {
			for _, op := range script {
				// Errors are expected while the cluster is degraded
				// (ErrDegraded sheds, dead-primary attempts burn retries);
				// the script presses on — safety is the checker's job.
				if op.write {
					cl.Put(p, op.key, op.val)
				} else {
					cl.Get(p, op.key)
				}
				p.Sleep(sim.Time(120_000 + 7_000*ci))
			}
			// Final read pass: by now fail-over must have restored
			// availability on every shard, and each read feeds the
			// linearizability checker one more completed observation.
			for k := uint64(0); k < hotKeys; k++ {
				if _, _, err := cl.Get(p, k); err != nil {
					unavailable[ci]++
				}
			}
			done[ci] = true
		})
	}
	e.RunUntil(horizon)

	var viol []Violation
	for ci := range done {
		if !done[ci] {
			viol = append(viol, Violation{Checker: "liveness", Msg: fmt.Sprintf(
				"kvfailover client %d (core %d) did not finish by the horizon", ci, clientCores[ci])})
		} else if unavailable[ci] > 0 {
			viol = append(viol, Violation{Checker: "liveness", Msg: fmt.Sprintf(
				"kvfailover client %d: %d final reads failed after fail-over should have completed",
				ci, unavailable[ci])})
		}
	}
	st := cluster.Stats()
	if st.Promotions == 0 {
		viol = append(viol, Violation{Checker: "liveness", Msg: fmt.Sprintf(
			"server core %d was killed but no shard was ever promoted", victim)})
	}
	return viol, init
}

// runURPCWorkload stresses the raw transport: four point-to-point channels
// with randomized ring sizes carry fixed message counts while the receivers
// mix burst Poll, one-slot Poll and parking Window receives, plus one bulk channel
// streaming tagged payloads. Fault mode may kill sender cores (receivers are
// protected); a receiver whose sender died is excused from the completion
// check — everything already transmitted must still satisfy the transport
// invariants.
func runURPCWorkload(e *sim.Engine, sys *cache.System, cfg RunConfig) ([]Violation, map[uint64]uint64) {
	const (
		msgs    = 48
		bulks   = 12
		horizon = 40_000_000
	)
	type pair struct{ s, r topo.CoreID }
	pairs := []pair{{1, 2}, {4, 6}, {8, 9}, {12, 3}} // same-socket and cross-socket mixes
	rng := sim.NewRNG(cfg.Seed ^ 0x75727063737472)

	var viol []Violation
	got := make([]int, len(pairs))
	senderCores := make([]topo.CoreID, len(pairs))
	for i, pr := range pairs {
		slots := 2 + rng.Intn(15)
		ch := urpc.New(sys, pr.s, pr.r, urpc.Options{Slots: slots, Home: -1})
		if i == 0 && cfg.Mutate != urpc.MutNone {
			ch.Mutate(cfg.Mutate)
		}
		senderCores[i] = pr.s
		burst := 1 + rng.Intn(7)
		// Pre-generated inter-burst gaps (drawn before the run so the
		// workload's inputs don't depend on the schedule): long enough that
		// the receiver sometimes drains the ring and parks in a Window receive,
		// which is the only way to exercise the notify path.
		gaps := make([]sim.Time, msgs/burst+1)
		for g := range gaps {
			gaps[g] = sim.Time(rng.Intn(6000))
		}
		i := i
		e.Spawn(fmt.Sprintf("send%d", i), func(p *sim.Proc) {
			batch := make([]urpc.Message, 0, burst)
			nburst := 0
			for v := uint64(0); v < msgs; v++ {
				batch = append(batch, urpc.Message{v, uint64(i), 0})
				if len(batch) == burst || v == msgs-1 {
					ch.Send(p, batch, urpc.Spin)
					batch = batch[:0]
					p.Sleep(gaps[nburst])
					nburst++
				}
			}
		})
		e.Spawn(fmt.Sprintf("recv%d", i), func(p *sim.Proc) {
			buf := make([]urpc.Message, 8)
			next := uint64(0)
			polls := 0
			for next < msgs {
				var take int
				switch polls % 3 {
				case 0:
					take = ch.Recv(p, buf, urpc.Poll)
					if take == 0 {
						p.Sleep(400)
					}
				case 1:
					take = ch.Recv(p, buf[:1], urpc.Poll)
					if take == 0 {
						p.Sleep(200)
					}
				default:
					take = ch.Recv(p, buf[:1], urpc.Window(2_000))
				}
				polls++
				for k := 0; k < take; k++ {
					if buf[k][0] != next || buf[k][1] != uint64(i) {
						viol = append(viol, Violation{Checker: "payload", Msg: fmt.Sprintf(
							"channel %d: message %d carried %v", i, next, buf[k])})
					}
					next++
				}
				got[i] = int(next)
			}
		})
	}

	// One bulk channel streaming distinguishable payloads.
	bs, br := topo.CoreID(13), topo.CoreID(7)
	bch := urpc.NewBulk(sys, bs, br, urpc.BulkOptions{Slots: 4, SlotLines: 2, Home: -1})
	bulkGot := 0
	e.Spawn("bulksend", func(p *sim.Proc) {
		payload := make([]byte, bch.SlotBytes())
		for v := 0; v < bulks; v++ {
			for j := range payload {
				payload[j] = byte(v + j)
			}
			bch.Send(p, payload)
		}
	})
	e.Spawn("bulkrecv", func(p *sim.Proc) {
		buf := make([]byte, bch.SlotBytes()) // every receive overwrites it
		for bulkGot < bulks {
			data, ok := bch.Recv(p, urpc.Poll, buf)
			if !ok {
				p.Sleep(300)
				continue
			}
			for j, b := range data {
				if b != byte(bulkGot+j) {
					viol = append(viol, Violation{Checker: "payload", Msg: fmt.Sprintf(
						"bulk payload %d corrupt at byte %d: %d", bulkGot, j, b)})
					break
				}
			}
			bulkGot++
		}
	})

	killed := make(map[topo.CoreID]bool)
	if cfg.Faults {
		spec := fault.Spec{
			Kills: 1, Stalls: 2, LinkFaults: 1,
			Window:  [2]sim.Time{100_000, 10_000_000},
			Protect: []topo.CoreID{2, 6, 9, 3, 7, 0}, // receivers (and core 0) survive
		}
		sch := fault.Random(cfg.Seed^0x757270636b696c6c, sys.Machine(), spec)
		for _, c := range sch.Kills() {
			killed[c] = true
		}
		inj := fault.NewInjector(e, sys)
		inj.Arm(sch)
	}
	e.RunUntil(horizon)

	for i := range pairs {
		if got[i] < msgs && !killed[senderCores[i]] {
			viol = append(viol, Violation{Checker: "liveness", Msg: fmt.Sprintf(
				"channel %d: receiver drained %d of %d messages with its sender alive", i, got[i], msgs)})
		}
	}
	if bulkGot < bulks && !killed[bs] {
		viol = append(viol, Violation{Checker: "liveness", Msg: fmt.Sprintf(
			"bulk channel: receiver drained %d of %d payloads with its sender alive", bulkGot, bulks)})
	}
	return viol, nil
}

// runMonitorWorkload exercises the agreement layer: a driver on core 0 issues
// unmap/retype/revoke rounds across the monitor network under each protocol
// while perturbations reorder the message flights. Fault mode arms fault
// tolerance and may fail-stop up to two non-root monitors mid-operation; the
// recovery protocol must still complete every op on the survivors.
func runMonitorWorkload(e *sim.Engine, sys *cache.System, cfg RunConfig) ([]Violation, map[uint64]uint64) {
	const horizon = 30_000_000
	m := sys.Machine()
	kern := kernel.NewSystem(e, m)
	kb := skb.New(m)
	kb.Discover()
	kb.Measure()
	net := monitor.NewNetwork(e, sys, kern, kb, monitor.Hooks{})

	if cfg.Faults {
		net.EnableFaultTolerance(100_000)
		spec := fault.Spec{
			Kills: 2, Stalls: 1, LinkFaults: 1,
			Window:  [2]sim.Time{50_000, 5_000_000},
			Protect: []topo.CoreID{0},
		}
		inj := fault.NewInjector(e, sys)
		inj.OnKill(func(c topo.CoreID) { net.FailStop(c) })
		inj.Arm(fault.Random(cfg.Seed^0x6d6f6e6661756c74, m, spec))
	}

	const rounds = 2
	completed := 0
	want := 0
	e.Spawn("driver", func(p *sim.Proc) {
		mon := net.Monitor(0)
		for r := 0; r < rounds; r++ {
			for _, proto := range []monitor.Protocol{monitor.Unicast, monitor.Multicast, monitor.NUMAAware} {
				mon.Unmap(p, 0x10000, 4096, nil, proto)
				completed++
			}
			mon.Retype(p, 0x40000, 8192, caps.Frame, 0, nil)
			completed++
			mon.Revoke(p, 0x80000, 4096, nil)
			completed++
		}
	})
	want = rounds * 5
	e.RunUntil(horizon)

	var viol []Violation
	if completed < want {
		viol = append(viol, Violation{Checker: "liveness", Msg: fmt.Sprintf(
			"monitor driver completed %d of %d agreement ops by the horizon", completed, want)})
	}
	return viol, nil
}
