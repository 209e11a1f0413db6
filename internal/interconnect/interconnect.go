// Package interconnect models the socket-to-socket message fabric
// (HyperTransport-style point-to-point links) of a simulated machine. It does
// not add latency — transaction latencies are part of the cache model's cost
// parameters — but it accounts traffic per directed link in 32-bit dwords,
// the unit the paper's Table 4 reports, and derives link utilization.
//
// For fault injection the fabric additionally carries per-directed-link
// degradation state (a latency multiplier and a loss probability); the cache
// model consults TransferPenalty on cross-socket transactions so that a
// degraded or partitioned link slows every coherence transfer routed across
// it. The fault-free fast path is a single boolean test.
package interconnect

import (
	"fmt"

	"multikernel/internal/metrics"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// Standard transaction sizes in dwords, approximating HyperTransport packet
// framing: commands and responses are 2-dword packets; a cache-line data
// transfer carries 16 dwords of payload plus a header.
const (
	DwordsProbe = 2  // coherence probe / read command
	DwordsAck   = 2  // probe response / completion without data
	DwordsData  = 18 // 64-byte line + header
)

// Fabric accounts interconnect traffic for one machine.
type Fabric struct {
	m       *topo.Machine
	traffic []uint64 // dwords per directed socket pair a->b, at a*NSockets+b

	// ChargeBroadcast marks each link it charges with the call's generation
	// number, so no link is charged twice in one broadcast.
	bcastGen  uint64
	bcastMark []uint64

	// Fault-injection state: per-directed-link degradation. Empty in the
	// fault-free case; the cache model's hot path only pays for it after
	// testing Degraded().
	degrade     map[[2]topo.SocketID]Degrade
	retransmits uint64
}

// New returns an empty fabric for machine m.
func New(m *topo.Machine) *Fabric {
	return &Fabric{m: m, traffic: make([]uint64, m.NSockets*m.NSockets)}
}

// link is the traffic index of directed link a->b.
func (f *Fabric) link(a, b topo.SocketID) int { return int(a)*f.m.NSockets + int(b) }

// Degrade describes a fault-injected impairment of one directed link.
// DelayFactor >= 1 multiplies the latency contribution of transfers crossing
// the link; LossProb in [0,1] is the per-crossing probability that a transfer
// is corrupted and must be retried end-to-end. A partitioned link is modeled
// as LossProb = 1: every crossing pays the maximum retry budget, so traffic
// still (eventually) gets through at severe cost — HyperTransport has no
// out-of-band routing table update in this model, and coherence transactions
// cannot simply be dropped.
type Degrade struct {
	DelayFactor float64
	LossProb    float64
}

// maxRetransmits bounds the retry budget of a lossy link crossing, keeping
// even a fully partitioned link's latency finite and deterministic.
const maxRetransmits = 8

// SetDegrade impairs the physical link between sockets a and b (both
// directions). It overwrites any previous degradation of the link.
func (f *Fabric) SetDegrade(a, b topo.SocketID, d Degrade) {
	if f.degrade == nil {
		f.degrade = make(map[[2]topo.SocketID]Degrade)
	}
	f.degrade[[2]topo.SocketID{a, b}] = d
	f.degrade[[2]topo.SocketID{b, a}] = d
}

// ClearDegrade restores the link between a and b (both directions).
func (f *Fabric) ClearDegrade(a, b topo.SocketID) {
	delete(f.degrade, [2]topo.SocketID{a, b})
	delete(f.degrade, [2]topo.SocketID{b, a})
}

// Degraded reports whether any link is currently impaired — the fault-free
// fast-path test.
func (f *Fabric) Degraded() bool { return len(f.degrade) > 0 }

// LinkDegrade returns the impairment of directed link a->b, if any.
func (f *Fabric) LinkDegrade(a, b topo.SocketID) (Degrade, bool) {
	d, ok := f.degrade[[2]topo.SocketID{a, b}]
	return d, ok
}

// Retransmits returns the number of fault-induced end-to-end retries charged
// so far.
func (f *Fabric) Retransmits() uint64 { return f.retransmits }

// TransferPenalty returns the extra latency a transaction of base latency
// pays for crossing degraded links on the shortest path from socket a to b.
// Loss draws come from the engine RNG, so the penalty is deterministic for a
// given seed and event order. A fault-free fabric returns 0 without touching
// the RNG.
func (f *Fabric) TransferPenalty(a, b topo.SocketID, base sim.Time, rng *sim.RNG) sim.Time {
	if len(f.degrade) == 0 || a == b {
		return 0
	}
	var extra sim.Time
	cur := a
	for _, next := range f.m.Route(a, b) {
		if d, ok := f.degrade[[2]topo.SocketID{cur, next}]; ok {
			if d.DelayFactor > 1 {
				extra += sim.Time(float64(base) * (d.DelayFactor - 1))
			}
			for try := 0; d.LossProb > 0 && try < maxRetransmits; try++ {
				if rng.Float64() >= d.LossProb {
					break
				}
				extra += base // end-to-end retry of the whole transaction
				f.retransmits++
			}
		}
		cur = next
	}
	return extra
}

// Lookahead returns the conservative lookahead of partition map pm on
// machine m: the minimum latency of any coherence transaction crossing a
// partition boundary. A parallel sub-engine may safely run that many cycles
// ahead of its peers, because no message sent "now" by another partition can
// arrive sooner — the cross-partition epoch width of sim.ParallelEngine.
// With fewer than two partitions there is no cross traffic and the lookahead
// is unbounded (sim.Forever).
func Lookahead(m *topo.Machine, pm *topo.PartitionMap) sim.Time {
	min := sim.Forever
	for a := 0; a < m.NSockets; a++ {
		for b := a + 1; b < m.NSockets; b++ {
			sa, sb := topo.SocketID(a), topo.SocketID(b)
			if pm.Part(sa) == pm.Part(sb) {
				continue
			}
			// The cheapest coherence transaction between the two sockets.
			if lat := m.Costs.RemoteBase + sim.Time(m.Hops(sa, sb))*m.Costs.RemoteHop; lat < min {
				min = lat
			}
		}
	}
	return min
}

// SetMetrics registers the fabric's accumulated state with a registry as lazy
// counters: totals, retransmits, and the dword count of each physical link in
// both directions. Sampling happens only at snapshot time, so the charge path
// stays untouched.
func (f *Fabric) SetMetrics(reg *metrics.Registry) {
	reg.CounterFunc("interconnect.dwords_total", f.TotalDwords)
	reg.CounterFunc("interconnect.retransmits", f.Retransmits)
	for _, l := range f.m.Links {
		a, b := l.A, l.B
		reg.CounterFunc(fmt.Sprintf("interconnect.link.%d-%d.dwords", a, b),
			func() uint64 { return f.LinkDwords(a, b) })
		reg.CounterFunc(fmt.Sprintf("interconnect.link.%d-%d.dwords", b, a),
			func() uint64 { return f.LinkDwords(b, a) })
	}
}

// Reset zeroes all traffic counters.
func (f *Fabric) Reset() { clear(f.traffic) }

// Charge records dwords of traffic along the shortest path from socket a to
// socket b. Charging a == b is a no-op (intra-socket traffic never reaches
// the fabric).
func (f *Fabric) Charge(a, b topo.SocketID, dwords int) {
	for a != b {
		next := f.m.NextHop(a, b)
		f.traffic[f.link(a, next)] += uint64(dwords)
		a = next
	}
}

// ChargeBroadcast records dwords of traffic from socket a to every other
// socket along a shortest-path tree (each link charged once per broadcast),
// modelling probe broadcast on an unfiltered coherence fabric.
func (f *Fabric) ChargeBroadcast(a topo.SocketID, dwords int) {
	if f.bcastMark == nil {
		f.bcastMark = make([]uint64, len(f.traffic))
	}
	f.bcastGen++
	for s := 0; s < f.m.NSockets; s++ {
		for cur, dst := a, topo.SocketID(s); cur != dst; {
			next := f.m.NextHop(cur, dst)
			if k := f.link(cur, next); f.bcastMark[k] != f.bcastGen {
				f.bcastMark[k] = f.bcastGen
				f.traffic[k] += uint64(dwords)
			}
			cur = next
		}
	}
}

// LinkDwords returns the dwords recorded on the directed link a->b. The link
// need not exist; missing links carry zero.
func (f *Fabric) LinkDwords(a, b topo.SocketID) uint64 {
	return f.traffic[f.link(a, b)]
}

// PathDwords returns the traffic recorded on the first link of the shortest
// path from a to b — the "a to b direction" figure reported in the paper's
// loopback table.
func (f *Fabric) PathDwords(a, b topo.SocketID) uint64 {
	r := f.m.Route(a, b)
	if len(r) == 0 {
		return 0
	}
	return f.LinkDwords(a, r[0])
}

// TotalDwords returns the sum over all directed links.
func (f *Fabric) TotalDwords() uint64 {
	var sum uint64
	for _, v := range f.traffic {
		sum += v
	}
	return sum
}

// Utilization returns the fraction of link a->b's bandwidth consumed over an
// interval of elapsed cycles, given the link's bandwidth in GB/s.
func (f *Fabric) Utilization(a, b topo.SocketID, elapsed uint64, linkGBps float64) float64 {
	if elapsed == 0 || linkGBps <= 0 {
		return 0
	}
	bytes := float64(f.LinkDwords(a, b)) * 4
	seconds := float64(elapsed) / (f.m.ClockGHz * 1e9)
	return bytes / (linkGBps * 1e9 * seconds)
}
