package expt

import (
	"fmt"

	"multikernel/internal/kernel"
	"multikernel/internal/sim"
	"multikernel/internal/stats"
	"multikernel/internal/topo"
	"multikernel/internal/urpc"
)

// Table1 regenerates Table 1: one-way LRPC latency on each test platform.
// Each platform is sampled with the CPU driver's jittered fast path.
func Table1(samples int) *table {
	t := &table{
		Title:   "Table 1: LRPC latency",
		Columns: []string{"System", "cycles", "(σ)", "ns"},
	}
	for _, m := range topo.AllMachines() {
		env := NewEnv(m, 7)
		var s stats.Sample
		env.E.Spawn("bench", func(p *sim.Proc) {
			for i := 0; i < samples; i++ {
				start := p.Now()
				env.Kern.Core(0).LRPC(p)
				// Per-run microarchitectural variance.
				p.Sleep(env.E.RNG().Time(kernel.LRPCCost(m) / 16))
				s.Add(float64(p.Now() - start))
			}
		})
		env.run()
		env.Close()
		t.AddRow(m.Name,
			fmt.Sprintf("%.0f", s.Mean()),
			fmt.Sprintf("(%.0f)", s.Stddev()),
			fmt.Sprintf("%.0f", m.Nanoseconds(sim.Time(s.Mean()))))
	}
	return t
}

// pairSpec names one cache relationship measured in Table 2.
type pairSpec struct {
	label    string
	from, to topo.CoreID
}

func table2Pairs(m *topo.Machine) []pairSpec {
	switch m.Name {
	case "2x4-core Intel":
		return []pairSpec{{"shared", 0, 1}, {"non-shared", 0, 4}}
	case "2x2-core AMD":
		return []pairSpec{{"same die", 0, 1}, {"one-hop", 0, 2}}
	case "4x4-core AMD":
		return []pairSpec{{"shared", 0, 1}, {"one-hop", 0, 4}, {"two-hop", 0, 12}}
	case "8x4-core AMD":
		return []pairSpec{{"shared", 0, 1}, {"one-hop", 0, 4}, {"two-hop", 0, 8}}
	}
	return []pairSpec{{"pair", 0, topo.CoreID(m.CoresPerSocket)}}
}

// URPCResult is one measured channel configuration.
type URPCResult struct {
	Latency    stats.Sample // one-way latency in cycles
	Throughput float64      // pipelined messages per kilocycle
	DcacheUsed int          // distinct cache lines touched per round trip
}

// MeasureURPC measures one-way latency (paced single messages) and pipelined
// throughput (queue of 16) between two cores.
func MeasureURPC(m *topo.Machine, from, to topo.CoreID, samples int, prefetch bool) *URPCResult {
	res := &URPCResult{}

	// Latency: paced messages carrying their send timestamp.
	env := NewEnv(m, 3)
	ch := urpc.New(env.Sys, from, to, urpc.Options{Home: -1, Prefetch: prefetch})
	env.E.Spawn("recv", func(p *sim.Proc) {
		var msg [1]urpc.Message
		for i := 0; i < samples+3; i++ {
			ch.Recv(p, msg[:], urpc.Spin)
			if i >= 3 { // discard warm-up
				res.Latency.Add(float64(p.Now() - sim.Time(msg[0][0])))
			}
		}
	})
	env.E.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < samples+3; i++ {
			p.Sleep(3000) // pace far apart
			ch.Send(p, []urpc.Message{{uint64(p.Now())}}, urpc.Spin)
		}
	})
	env.run()
	env.Close()

	// Throughput: pipelined stream of messages, queue length 16.
	env = NewEnv(m, 3)
	ch = urpc.New(env.Sys, from, to, urpc.Options{Home: -1, Slots: 16, Prefetch: prefetch})
	const burst = 600
	var start, end sim.Time
	env.E.Spawn("recv", func(p *sim.Proc) {
		var msg [1]urpc.Message
		for i := 0; i < burst; i++ {
			ch.Recv(p, msg[:], urpc.Spin)
		}
		end = p.Now()
	})
	env.E.Spawn("send", func(p *sim.Proc) {
		start = p.Now()
		for i := 0; i < burst; i++ {
			ch.Send(p, []urpc.Message{{uint64(i)}}, urpc.Spin)
		}
	})
	env.run()
	res.Throughput = float64(burst) * 1000 / float64(end-start)
	env.Close()

	// Cache footprint: distinct lines touched by one request/response
	// exchange on a small (Table 3 style) ring.
	env = NewEnv(m, 3)
	req := urpc.New(env.Sys, from, to, urpc.Options{Home: -1, Slots: 4})
	rsp := urpc.New(env.Sys, to, from, urpc.Options{Home: -1, Slots: 4})
	env.E.Spawn("echo", func(p *sim.Proc) {
		var msg [1]urpc.Message
		for i := 0; i < 6; i++ {
			req.Recv(p, msg[:], urpc.Spin)
			rsp.Send(p, msg[:], urpc.Spin)
		}
	})
	env.E.Spawn("caller", func(p *sim.Proc) {
		var msg [1]urpc.Message
		for i := 0; i < 6; i++ {
			if i == 5 {
				env.Sys.StartTouchTracking()
			}
			msg[0] = urpc.Message{uint64(i)}
			req.Send(p, msg[:], urpc.Spin)
			rsp.Recv(p, msg[:], urpc.Spin)
		}
		res.DcacheUsed = env.Sys.StopTouchTracking()
	})
	env.run()
	env.Close()
	return res
}

// Table2 regenerates Table 2: URPC one-way latency and pipelined throughput
// for each cache relationship on each machine.
func Table2(samples int) *table {
	t := &table{
		Title:   "Table 2: URPC performance",
		Columns: []string{"System", "Cache", "Latency cycles", "(σ)", "ns", "Throughput msgs/kcycle"},
	}
	for _, m := range topo.AllMachines() {
		for _, pr := range table2Pairs(m) {
			r := MeasureURPC(m, pr.from, pr.to, samples, false)
			t.AddRow(m.Name, pr.label,
				fmt.Sprintf("%.0f", r.Latency.Mean()),
				fmt.Sprintf("(%.0f)", r.Latency.Stddev()),
				fmt.Sprintf("%.0f", m.Nanoseconds(sim.Time(r.Latency.Mean()))),
				fmt.Sprintf("%.2f", r.Throughput))
		}
	}
	return t
}

// L4 comparator constants: the paper measured L4Ka::Pistachio's same-core
// IPC at 424 cycles on the 2×2 AMD system, using 25 icache and 13 dcache
// lines. We model the latency as the kernel IPC fast path (syscall + one
// context switch + minimal dispatch) and carry the paper's cache footprints
// for the comparator row.
const (
	l4DispatchCost = 50
	l4Icache       = 25
	l4Dcache       = 13
	urpcIcache     = 9 // URPC's polling loop and demux code footprint
)

// L4IPCCost returns the modelled one-way L4 IPC cost on machine m.
func L4IPCCost(m *topo.Machine) sim.Time {
	return m.Costs.Syscall + m.Costs.CSwitch + l4DispatchCost
}

// Table3 regenerates Table 3: URPC versus L4 IPC on the 2×2-core AMD system.
func Table3(samples int) *table {
	m := topo.AMD2x2()
	r := MeasureURPC(m, 0, 2, samples, false)
	l4lat := float64(L4IPCCost(m))
	// L4's synchronous IPC throughput: one switch each way per message.
	l4thr := 1000 / float64(2*L4IPCCost(m)) * 2

	t := &table{
		Title:   "Table 3: messaging costs on 2x2-core AMD",
		Columns: []string{"", "Latency cycles", "Throughput msgs/kcycle", "Icache lines", "Dcache lines"},
	}
	t.AddRow("URPC",
		fmt.Sprintf("%.0f", r.Latency.Mean()),
		fmt.Sprintf("%.2f", r.Throughput),
		fmt.Sprintf("%d", urpcIcache),
		fmt.Sprintf("%d", r.DcacheUsed))
	t.AddRow("L4 IPC",
		fmt.Sprintf("%.0f", l4lat),
		fmt.Sprintf("%.2f", l4thr),
		fmt.Sprintf("%d", l4Icache),
		fmt.Sprintf("%d", l4Dcache))
	return t
}
