package expt

import (
	"bytes"
	"fmt"

	"multikernel/internal/baseline"
	"multikernel/internal/netstack"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// htLinkGBps is the HyperTransport link bandwidth used for utilization
// percentages (8 GB/s per direction, as on the 2×2 AMD system's HT links).
const htLinkGBps = 8.0

// LoopbackResult is one measured configuration of Table 4.
type LoopbackResult struct {
	ThroughputMbit float64
	DcachePerPkt   float64
	FwdDwords      float64 // source -> sink HT dwords per packet
	RevDwords      float64 // sink -> source
	FwdUtil        float64
	RevUtil        float64
}

// table4Packets is the measurement length.
const table4Packets = 400

// LoopbackBF measures the multikernel's URPC loopback path: two user-space
// stacks on different sockets joined by URPC frame links.
func LoopbackBF() *LoopbackResult {
	m := topo.AMD2x2()
	env := NewEnv(m, 1)
	defer env.Close()
	const srcCore, sinkCore = 0, 2 // different sockets
	src := netstack.NewStack(env.E, env.Sys, "src", srcCore, netstack.IP4(127, 0, 0, 1))
	sink := netstack.NewStack(env.E, env.Sys, "sink", sinkCore, netstack.IP4(127, 0, 0, 2))
	netstack.ConnectLoopback(src, sink)
	sSock := src.BindUDP(1000)
	dSock := sink.BindUDP(2000)
	payload := bytes.Repeat([]byte{0x5a}, 1000)

	var start, end sim.Time
	const warm = 32
	resume := sim.NewFuture[bool](env.E)
	env.E.Spawn("sink", func(p *sim.Proc) {
		for i := 0; i < warm; i++ {
			dSock.Recv(p)
		}
		// Ring drained and the source is paused: clean measurement window.
		env.Sys.ResetStats()
		env.Sys.Fabric().Reset()
		start = p.Now()
		resume.Complete(true)
		for i := 0; i < table4Packets; i++ {
			d := dSock.Recv(p)
			if len(d.Payload) != 1000 {
				panic("short packet")
			}
		}
		end = p.Now()
	})
	env.E.Spawn("src", func(p *sim.Proc) {
		for i := 0; i < warm; i++ {
			sSock.SendTo(p, sink.IP, 2000, payload)
		}
		resume.Await(p)
		for i := 0; i < table4Packets; i++ {
			sSock.SendTo(p, sink.IP, 2000, payload)
		}
	})
	env.run()
	return summarizeLoopback(env, srcCore, sinkCore, start, end)
}

// LoopbackLinux measures the comparator's in-kernel loopback: shared packet
// queues, spinlocks and kernel crossings.
func LoopbackLinux() *LoopbackResult {
	m := topo.AMD2x2()
	env := NewEnv(m, 1)
	defer env.Close()
	const srcCore, sinkCore = 0, 2
	k := baseline.New(env.E, env.Sys, env.Kern, baseline.Linux)
	lb := k.NewLoopback(1100, m.Socket(srcCore))
	payload := bytes.Repeat([]byte{0x5a}, 1000)

	var start, end sim.Time
	const warm = 32
	resume := sim.NewFuture[bool](env.E)
	env.E.Spawn("sink", func(p *sim.Proc) {
		for i := 0; i < warm; i++ {
			lb.Recv(p, sinkCore)
		}
		env.Sys.ResetStats()
		env.Sys.Fabric().Reset()
		start = p.Now()
		resume.Complete(true)
		for i := 0; i < table4Packets; i++ {
			lb.Recv(p, sinkCore)
		}
		end = p.Now()
	})
	env.E.Spawn("src", func(p *sim.Proc) {
		for i := 0; i < warm; i++ {
			lb.Send(p, srcCore, payload)
		}
		resume.Await(p)
		for i := 0; i < table4Packets; i++ {
			lb.Send(p, srcCore, payload)
		}
	})
	env.run()
	return summarizeLoopback(env, srcCore, sinkCore, start, end)
}

func summarizeLoopback(env *Env, srcCore, sinkCore topo.CoreID, start, end sim.Time) *LoopbackResult {
	elapsed := end - start
	pkts := float64(table4Packets)
	seconds := env.M.Nanoseconds(elapsed) * 1e-9
	misses := env.Sys.Stats(srcCore).Misses + env.Sys.Stats(sinkCore).Misses
	srcSock := env.M.Socket(srcCore)
	sinkSock := env.M.Socket(sinkCore)
	fab := env.Sys.Fabric()
	return &LoopbackResult{
		ThroughputMbit: pkts * 1000 * 8 / seconds / 1e6,
		DcachePerPkt:   float64(misses) / pkts,
		FwdDwords:      float64(fab.PathDwords(srcSock, sinkSock)) / pkts,
		RevDwords:      float64(fab.PathDwords(sinkSock, srcSock)) / pkts,
		FwdUtil:        fab.Utilization(srcSock, sinkSock, uint64(elapsed), htLinkGBps),
		RevUtil:        fab.Utilization(sinkSock, srcSock, uint64(elapsed), htLinkGBps),
	}
}

// Table4 regenerates Table 4: IP loopback on the 2×2-core AMD system,
// Barrelfish (URPC between user-space stacks) versus Linux (in-kernel stack
// with shared queues).
func Table4() *table {
	bf, lx := LoopbackBF(), LoopbackLinux()
	t := &table{
		Title:   "Table 4: IP loopback performance on 2x2-core AMD",
		Columns: []string{"", "Barrelfish", "Linux"},
	}
	row := func(name, a, b string) { t.AddRow(name, a, b) }
	row("Throughput (Mbit/s)", fmt.Sprintf("%.0f", bf.ThroughputMbit), fmt.Sprintf("%.0f", lx.ThroughputMbit))
	row("Dcache misses per packet", fmt.Sprintf("%.0f", bf.DcachePerPkt), fmt.Sprintf("%.0f", lx.DcachePerPkt))
	row("source->sink HT traffic per packet (dwords)", fmt.Sprintf("%.0f", bf.FwdDwords), fmt.Sprintf("%.0f", lx.FwdDwords))
	row("sink->source HT traffic per packet (dwords)", fmt.Sprintf("%.0f", bf.RevDwords), fmt.Sprintf("%.0f", lx.RevDwords))
	row("source->sink HT link utilization", fmt.Sprintf("%.1f%%", bf.FwdUtil*100), fmt.Sprintf("%.1f%%", lx.FwdUtil*100))
	row("sink->source HT link utilization", fmt.Sprintf("%.1f%%", bf.RevUtil*100), fmt.Sprintf("%.1f%%", lx.RevUtil*100))
	return t
}
