package monitor

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"multikernel/internal/caps"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// agreementRun is what TestAgreementPinned pins of one scenario run.
type agreementRun struct {
	results string // one letter per operation: T committed/succeeded, F not
	clock   sim.Time
	events  uint64
	stats   Stats
	trace   uint64 // FNV-1a over every trace event's fields
}

// agreementKill fail-stops core at virtual time at.
type agreementKill struct {
	core topo.CoreID
	at   sim.Time
}

// runAgreement drives every agreement protocol from one app proc on core 0:
// unmaps under each dissemination protocol, a committed and a vetoed retype,
// a revoke, a ping and a capability transfer, plus (on hierarchical machines)
// an unmap to a per-socket leader set, which relays with auxRelayLeaf set.
// With kills, fault tolerance is armed and each victim is fail-stopped at its
// virtual time.
func runAgreement(t *testing.T, m *topo.Machine, kills []agreementKill) agreementRun {
	var f *fixture
	if kills == nil {
		f = newFixture(t, m)
	} else {
		f = newFaultFixture(t, m)
		for _, k := range kills {
			f.e.After(k.at, func() { f.net.FailStop(k.core) })
		}
	}
	rec := trace.NewRecorder()
	f.e.SetTracer(rec)
	last := topo.CoreID(m.NumCores() - 1)
	var res []bool
	f.e.Spawn("app", func(p *sim.Proc) {
		mon := f.net.Monitor(0)
		for i, proto := range []Protocol{Unicast, Multicast, NUMAAware} {
			res = append(res, mon.Unmap(p, 0x10000+memory.Addr(i)*0x1000, 4096, nil, proto))
		}
		res = append(res, mon.Retype(p, 0x40000, 8192, caps.Frame, 0, nil))
		f.vetoCores[last-2] = true
		res = append(res, mon.Retype(p, 0x50000, 8192, caps.Frame, 0, nil))
		f.vetoCores[last-2] = false
		res = append(res, mon.Revoke(p, 0x40000, 8192, nil))
		res = append(res, mon.Ping(p, last) > 0)
		c := caps.Capability{Type: caps.Frame, Base: 0x60000, Bytes: 4096, Rights: caps.AllRights}
		res = append(res, mon.SendCap(p, last, c))
		if mon.useHier() {
			var leaders []topo.CoreID
			for s := 0; s < m.NSockets; s++ {
				for _, c := range m.CoresOf(topo.SocketID(s)) {
					if mon.Online(c) {
						leaders = append(leaders, c)
						break
					}
				}
			}
			res = append(res, mon.Unmap(p, 0x70000, 4096, leaders, NUMAAware))
		}
	})
	f.e.Run()
	var out agreementRun
	for _, ok := range res {
		if ok {
			out.results += "T"
		} else {
			out.results += "F"
		}
	}
	out.clock = f.e.Now()
	out.events = f.e.Metrics().Snapshot().Counters["sim.events_dispatched"]
	for c := 0; c < m.NumCores(); c++ {
		s := f.net.Monitor(topo.CoreID(c)).Stats()
		out.stats.Handled += s.Handled
		out.stats.Initiated += s.Initiated
		out.stats.Commits += s.Commits
		out.stats.Aborts += s.Aborts
		out.stats.Wakeups += s.Wakeups
		out.stats.Excised += s.Excised
		out.stats.Recoveries += s.Recoveries
		out.stats.Strays += s.Strays
		out.stats.Dropped += s.Dropped
	}
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, ev := range rec.Events() {
		word(ev.At)
		word(ev.ID)
		word(ev.Arg)
		h.Write([]byte(ev.Name))
		word(uint64(ev.Kind)<<40 | uint64(ev.Sub)<<32 | uint64(uint32(ev.Core)))
	}
	out.trace = h.Sum64()
	return out
}

// TestAgreementPinned pins the exact virtual behaviour of the agreement
// protocols — final clock, dispatched events, summed monitor counters and a
// hash of every trace event — on a flat tree (8x4) and a relaying one (the
// 12-socket mesh), fault-free and with one leaf and one aggregation node
// fail-stopped mid-run under deadline recovery. A refactor of dissemination,
// aggregation or recovery that moves any cycle fails here.
func TestAgreementPinned(t *testing.T) {
	rows := []struct {
		name  string
		m     *topo.Machine
		kills []agreementKill
		want  agreementRun
	}{
		{name: "8x4", m: topo.AMD8x4(), want: agreementRun{
			results: "TTTTFTTT", clock: 232456, events: 579977, trace: 0x19fb860f63eab00b,
			stats: Stats{Handled: 562, Initiated: 8, Commits: 5, Aborts: 1, Wakeups: 31},
		}},
		// Leaf 9 dies during the multicast unmap: its aggregator (8)
		// answers up from recoverFwd. Aggregator 20 dies in the committed
		// retype's decision phase: the initiator re-sends the decision
		// from recoverOp.
		{name: "8x4/faults", m: topo.AMD8x4(), kills: []agreementKill{{9, 60_000}, {20, 205_000}}, want: agreementRun{
			results: "TTTTFTTT", clock: 533258, events: 711817, trace: 0x3675c60de42d60ce,
			stats: Stats{Handled: 710, Initiated: 10, Commits: 7, Aborts: 1, Wakeups: 110, Excised: 2, Recoveries: 2},
		}},
		{name: "mesh", m: hierMachine(), want: agreementRun{
			results: "TTTTFTTTT", clock: 225488, events: 387961, trace: 0x5a65c60c5e13ca89,
			stats: Stats{Handled: 440, Initiated: 9, Commits: 6, Aborts: 1, Wakeups: 35},
		}},
		// Leaf 23 dies during the multicast unmap and socket 7's aggregator
		// 14 in the committed retype's decision phase; region head 22
		// recovers both aggregations, the second one a relayed socket's.
		// The ping and the capability transfer then target the dead core
		// 23 and fail from recoverOp.
		{name: "mesh/faults", m: hierMachine(), kills: []agreementKill{{23, 50_000}, {14, 195_000}}, want: agreementRun{
			results: "TTTTFTTFT", clock: 802839, events: 467469, trace: 0xa9c6a2f8f448d0cc,
			stats: Stats{Handled: 496, Initiated: 11, Commits: 8, Aborts: 1, Wakeups: 76, Excised: 2, Recoveries: 4},
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got := runAgreement(t, r.m, r.kills)
			if got != r.want {
				t.Errorf("got  %+v\nwant %+v", got, r.want)
			}
		})
	}
}
