package monitor

import (
	"fmt"

	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/kernel"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/skb"
	"multikernel/internal/stats"
	"multikernel/internal/topo"
	"multikernel/internal/urpc"
)

// Broadcast is the additional raw protocol of Figure 6: every slave polls a
// single shared cache line written by the master. It performs badly by
// design (the line crosses the interconnect once per slave) and is only
// meaningful for the raw harness, not monitor-mediated operations.
const Broadcast Protocol = 99

// rawPollGap is the slave polling interval in the raw harness.
const rawPollGap = 25

// RawShootdown measures the raw messaging cost of one TLB-shootdown round
// (no TLB invalidation, no monitors — just the messaging mechanism, as in
// the paper's Figure 6) over the first nCores cores of the machine, repeated
// iters times. It returns the per-round latency sample observed at the
// master.
func RawShootdown(e *sim.Engine, sys *cache.System, kb *skb.KB, proto Protocol, nCores, iters int) *stats.Sample {
	sample := &stats.Sample{}
	if nCores < 2 {
		sample.Add(0)
		return sample
	}
	switch proto {
	case Broadcast:
		rawBroadcast(e, sys, nCores, iters, sample)
	case Unicast:
		rawUnicast(e, sys, nCores, iters, sample)
	case Multicast, NUMAAware:
		rawMulticast(e, sys, kb, proto, nCores, iters, sample)
	default:
		panic(fmt.Sprintf("monitor: no raw harness for protocol %v", proto))
	}
	e.Run()
	e.CheckQuiesced()
	return sample
}

// ackProcessCost is the per-acknowledgement handling cost in the master's
// receive loop (bookkeeping beyond the raw channel receive).
const ackProcessCost = 60

// ackSweep receives one ack from each channel, polling them round-robin the
// way a real receive loop does. The channel endpoints live in an array, so
// the hardware stride prefetcher streams their lines in ahead of the polls
// (§4.6, §5.1) — modelled as a software prefetch per pending channel.
func ackSweep(p *sim.Proc, chans []*urpc.Channel) {
	remaining := len(chans)
	done := make([]bool, len(chans))
	var ack [1]urpc.Message
	next := func(i int) *urpc.Channel {
		for j := i + 1; j < len(chans); j++ {
			if !done[j] {
				return chans[j]
			}
		}
		return nil
	}
	for remaining > 0 {
		if n := next(-1); n != nil {
			n.PrefetchSlot(p)
		}
		progress := false
		for i, ch := range chans {
			if done[i] {
				continue
			}
			// Stride-prefetch the following endpoint while handling this one.
			if n := next(i); n != nil {
				n.PrefetchSlot(p)
			}
			if ch.Recv(p, ack[:], urpc.Poll) > 0 {
				p.Sleep(ackProcessCost)
				done[i] = true
				remaining--
				progress = true
			}
		}
		if !progress {
			p.Sleep(rawPollGap)
		}
	}
}

func rawBroadcast(e *sim.Engine, sys *cache.System, nCores, iters int, sample *stats.Sample) {
	mem := sys.Memory()
	bcast := mem.AllocLines(1, 0).Base
	acks := make([]*urpc.Channel, nCores-1)
	for i := 1; i < nCores; i++ {
		acks[i-1] = urpc.New(sys, topo.CoreID(i), 0, urpc.Options{Slots: 4, Home: 0})
	}
	for i := 1; i < nCores; i++ {
		core := topo.CoreID(i)
		ch := acks[i-1]
		e.Spawn(fmt.Sprintf("slave%d", i), func(p *sim.Proc) {
			for it := 1; it <= iters; it++ {
				for sys.Load(p, core, bcast) < uint64(it) {
					p.Sleep(rawPollGap)
				}
				ch.Send(p, []urpc.Message{{uint64(it)}}, urpc.Spin)
			}
		})
	}
	e.Spawn("master", func(p *sim.Proc) {
		for it := 1; it <= iters; it++ {
			start := p.Now()
			sys.Store(p, 0, bcast, uint64(it))
			ackSweep(p, acks)
			sample.Add(float64(p.Now() - start))
		}
	})
}

func rawUnicast(e *sim.Engine, sys *cache.System, nCores, iters int, sample *stats.Sample) {
	reqs := make([]*urpc.Channel, nCores-1)
	acks := make([]*urpc.Channel, nCores-1)
	for i := 1; i < nCores; i++ {
		reqs[i-1] = urpc.New(sys, 0, topo.CoreID(i), urpc.Options{Slots: 4, Home: 0})
		acks[i-1] = urpc.New(sys, topo.CoreID(i), 0, urpc.Options{Slots: 4, Home: 0})
	}
	for i := 1; i < nCores; i++ {
		req, ack := reqs[i-1], acks[i-1]
		e.Spawn(fmt.Sprintf("slave%d", i), func(p *sim.Proc) {
			var m [1]urpc.Message
			for it := 1; it <= iters; it++ {
				req.Recv(p, m[:], urpc.Spin)
				ack.Send(p, m[:], urpc.Spin)
			}
		})
	}
	e.Spawn("master", func(p *sim.Proc) {
		for it := 1; it <= iters; it++ {
			start := p.Now()
			for _, ch := range reqs {
				ch.Send(p, []urpc.Message{{uint64(it)}}, urpc.Spin)
			}
			ackSweep(p, acks)
			sample.Add(float64(p.Now() - start))
		}
	})
}

// rawMulticast builds the two-level tree: the master sends to one
// aggregation core per socket, which forwards to its socket-local children
// through the shared cache; children ack their aggregator, aggregators send
// a combined ack to the master. NUMAAware homes each channel at its receiver
// and sends to the furthest socket first; plain Multicast homes everything
// at the master's socket and sends in socket order.
func rawMulticast(e *sim.Engine, sys *cache.System, kb *skb.KB, proto Protocol, nCores, iters int, sample *stats.Sample) {
	var cores []topo.CoreID
	for i := 0; i < nCores; i++ {
		cores = append(cores, topo.CoreID(i))
	}
	tree := kb.MulticastTree(0, cores)
	groups := append([]skb.Group(nil), tree.Groups...)
	if proto == Multicast {
		sortGroupsByAgg(groups)
	}
	home := func(c topo.CoreID) int {
		if proto == NUMAAware {
			return int(sys.Machine().Socket(c))
		}
		return 0
	}
	mkChan := func(from, to topo.CoreID) *urpc.Channel {
		return urpc.New(sys, from, to, urpc.Options{Slots: 4, Home: home(to)})
	}

	var masterDown []*urpc.Channel // to aggs and local children
	var masterUp []*urpc.Channel

	for _, g := range groups {
		down := mkChan(0, g.Agg)
		up := mkChan(g.Agg, 0)
		masterDown = append(masterDown, down)
		masterUp = append(masterUp, up)
		var kidDown, kidUp []*urpc.Channel
		for _, c := range g.Children {
			kd := mkChan(g.Agg, c)
			ku := mkChan(c, g.Agg)
			kidDown = append(kidDown, kd)
			kidUp = append(kidUp, ku)
			e.Spawn(fmt.Sprintf("leaf%d", c), func(p *sim.Proc) {
				var m [1]urpc.Message
				for it := 1; it <= iters; it++ {
					kd.Recv(p, m[:], urpc.Spin)
					ku.Send(p, m[:], urpc.Spin)
				}
			})
		}
		agg := g.Agg
		e.Spawn(fmt.Sprintf("agg%d", agg), func(p *sim.Proc) {
			var m [1]urpc.Message
			for it := 1; it <= iters; it++ {
				down.Recv(p, m[:], urpc.Spin)
				for _, kd := range kidDown {
					kd.Send(p, m[:], urpc.Spin)
				}
				ackSweep(p, kidUp)
				up.Send(p, m[:], urpc.Spin)
			}
		})
	}
	for _, c := range tree.Local {
		down := mkChan(0, c)
		up := mkChan(c, 0)
		masterDown = append(masterDown, down)
		masterUp = append(masterUp, up)
		e.Spawn(fmt.Sprintf("local%d", c), func(p *sim.Proc) {
			var m [1]urpc.Message
			for it := 1; it <= iters; it++ {
				down.Recv(p, m[:], urpc.Spin)
				up.Send(p, m[:], urpc.Spin)
			}
		})
	}
	e.Spawn("master", func(p *sim.Proc) {
		for it := 1; it <= iters; it++ {
			start := p.Now()
			for _, ch := range masterDown {
				ch.Send(p, []urpc.Message{{uint64(it)}}, urpc.Spin)
			}
			ackSweep(p, masterUp)
			sample.Add(float64(p.Now() - start))
		}
	})
}

// RawShootdownLatency is a convenience wrapper returning the mean per-round
// latency in cycles, discarding the first (cold) round.
func RawShootdownLatency(m *topo.Machine, proto Protocol, nCores, iters int) float64 {
	e := sim.NewEngine(1)
	defer e.Close()
	sys := newBenchCache(e, m)
	kb := skb.New(m)
	kb.Discover()
	kb.Measure(func(a, b topo.CoreID) sim.Time { return 2 * m.TransferLat(b, a) })
	s := RawShootdown(e, sys, kb, proto, nCores, iters+1)
	var warm stats.Sample
	warm.AddN(s.Values()[1:]...) // discard the cold first round
	return warm.Mean()
}

func newBenchCache(e *sim.Engine, m *topo.Machine) *cache.System {
	return cache.New(e, m, memoryNew(m), interconnectNew(m))
}

// Indirections to avoid a wide import list at call sites.
func memoryNew(m *topo.Machine) *memory.Memory             { return memory.New(m) }
func interconnectNew(m *topo.Machine) *interconnect.Fabric { return interconnect.New(m) }
func kernelNew(e *sim.Engine, m *topo.Machine) *kernel.System {
	return kernel.NewSystem(e, m)
}
func skbNew(m *topo.Machine) *skb.KB {
	kb := skb.New(m)
	kb.Discover()
	kb.Measure(func(a, b topo.CoreID) sim.Time { return 2 * m.TransferLat(b, a) })
	return kb
}
