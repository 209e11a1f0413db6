package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"multikernel/internal/interconnect"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// rig bundles a fresh simulated machine for cache tests.
type rig struct {
	e   *sim.Engine
	m   *topo.Machine
	mem *memory.Memory
	fab *interconnect.Fabric
	sys *System
}

func newRig(m *topo.Machine) *rig {
	e := sim.NewEngine(1)
	mem := memory.New(m)
	fab := interconnect.New(m)
	return &rig{e: e, m: m, mem: mem, fab: fab, sys: New(e, m, mem, fab)}
}

// runOn executes fn as a proc and returns the virtual cycles it consumed.
func (r *rig) runOn(fn func(p *sim.Proc)) sim.Time {
	var took sim.Time
	r.e.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		fn(p)
		took = p.Now() - start
	})
	r.e.Run()
	return took
}

func TestColdLoadFromMemoryThenHit(t *testing.T) {
	r := newRig(topo.AMD2x2())
	a := r.mem.AllocLines(1, 0).Base
	r.mem.StoreWord(a, 99)
	var v1, v2 uint64
	miss := r.runOn(func(p *sim.Proc) { v1 = r.sys.Load(p, 0, a) })
	hit := r.runOn(func(p *sim.Proc) { v2 = r.sys.Load(p, 0, a) })
	if v1 != 99 || v2 != 99 {
		t.Fatalf("values %d %d, want 99", v1, v2)
	}
	if miss != r.m.Costs.DRAMLocal {
		t.Fatalf("cold load took %d, want DRAM %d", miss, r.m.Costs.DRAMLocal)
	}
	if hit != r.m.Costs.L1Hit {
		t.Fatalf("hit took %d, want %d", hit, r.m.Costs.L1Hit)
	}
	st := r.sys.Stats(0)
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestRemoteFetchFromOwningCache(t *testing.T) {
	r := newRig(topo.AMD2x2())
	a := r.mem.AllocLines(1, 0).Base
	writer := topo.CoreID(0)
	reader := topo.CoreID(2) // other socket
	r.runOn(func(p *sim.Proc) { r.sys.Store(p, writer, a, 7) })
	var got uint64
	lat := r.runOn(func(p *sim.Proc) { got = r.sys.Load(p, reader, a) })
	if got != 7 {
		t.Fatalf("got %d", got)
	}
	// Reader is one hop from the line's home (socket 0), so it pays the
	// cache-to-cache transfer plus one hop of home routing.
	want := r.m.TransferLat(reader, writer) + r.m.Costs.HomeRoute
	if lat != want {
		t.Fatalf("remote fetch took %d, want %d", lat, want)
	}
	if r.sys.Stats(reader).RemoteMisses != 1 {
		t.Fatal("remote miss not counted")
	}
	// Writer retains an owned copy; reader shares.
	if s := r.sys.StateOf(writer, a); s != Owned {
		t.Fatalf("writer state %v, want O", s)
	}
	if s := r.sys.StateOf(reader, a); s != Shared {
		t.Fatalf("reader state %v, want S", s)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	r := newRig(topo.AMD4x4())
	a := r.mem.AllocLines(1, 0).Base
	// Cores 0, 4, 8 all read the line.
	r.runOn(func(p *sim.Proc) {
		r.sys.Load(p, 0, a)
		r.sys.Load(p, 4, a)
		r.sys.Load(p, 8, a)
	})
	// Core 4 writes: 0 and 8 must be invalidated.
	r.runOn(func(p *sim.Proc) { r.sys.Store(p, 4, a, 1) })
	if s := r.sys.StateOf(0, a); s != Invalid {
		t.Fatalf("core 0 state %v, want I", s)
	}
	if s := r.sys.StateOf(8, a); s != Invalid {
		t.Fatalf("core 8 state %v, want I", s)
	}
	if s := r.sys.StateOf(4, a); s != Modified {
		t.Fatalf("core 4 state %v, want M", s)
	}
	if r.sys.Stats(0).Invalidated != 1 || r.sys.Stats(8).Invalidated != 1 {
		t.Fatal("invalidation counters wrong")
	}
	r.sys.CheckInvariants()
}

func TestSilentUpgradeFromExclusive(t *testing.T) {
	r := newRig(topo.AMD2x2())
	a := r.mem.AllocLines(1, 0).Base
	r.runOn(func(p *sim.Proc) { r.sys.Load(p, 0, a) }) // E
	lat := r.runOn(func(p *sim.Proc) { r.sys.Store(p, 0, a, 5) })
	if lat != r.m.Costs.Store {
		t.Fatalf("E->M store took %d, want %d (silent upgrade)", lat, r.m.Costs.Store)
	}
}

func TestPingPongIsSymmetricallyExpensive(t *testing.T) {
	r := newRig(topo.AMD2x2())
	a := r.mem.AllocLines(1, 0).Base
	r.runOn(func(p *sim.Proc) { r.sys.Store(p, 0, a, 1) })
	// Uncontended cross-socket stores issue asynchronously: each writer is
	// charged only the store-buffer issue cost, while the line transfer
	// proceeds in the background.
	lat1 := r.runOn(func(p *sim.Proc) { r.sys.Store(p, 2, a, 2) })
	lat2 := r.runOn(func(p *sim.Proc) { r.sys.Store(p, 0, a, 3) })
	want := r.m.Costs.StoreIssue
	if lat1 != want || lat2 != want {
		t.Fatalf("ping-pong costs %d,%d, want %d (async issue)", lat1, lat2, want)
	}
	// A load from a third party still observes the full transfer cost.
	lat3 := r.runOn(func(p *sim.Proc) { r.sys.Load(p, 3, a) })
	if lat3 < r.m.TransferLat(3, 0) {
		t.Fatalf("observer load %d cheaper than transfer %d", lat3, r.m.TransferLat(3, 0))
	}
}

func TestContendedLineQueuesFIFO(t *testing.T) {
	r := newRig(topo.AMD4x4())
	a := r.mem.AllocLines(1, 0).Base
	// Warm the line in core 0's cache so every contender must transfer.
	r.runOn(func(p *sim.Proc) { r.sys.Store(p, 0, a, 1) })
	// 8 cross-socket cores write simultaneously; the first pays a full
	// transfer, the rest receive pipelined handoffs plus home-directory
	// NACK/retry service, so the last finisher is well behind a lone write.
	var last sim.Time
	for i := 0; i < 8; i++ {
		core := topo.CoreID(4 + i)
		r.e.Spawn("w", func(p *sim.Proc) {
			r.sys.Store(p, core, a, uint64(core))
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	r.e.Run()
	single := r.m.TransferLat(4, 0)
	if last < single+6*100 { // handoffLat per queued rival
		t.Fatalf("contended writes finished in %d, want >= %d (serialization)", last, single+600)
	}
	r.sys.CheckInvariants()
}

func TestStoreLineCheaperThanWordStores(t *testing.T) {
	r := newRig(topo.AMD2x2())
	a1 := r.mem.AllocLines(1, 0).Base
	a2 := r.mem.AllocLines(1, 0).Base
	// Remote-own both lines first.
	r.runOn(func(p *sim.Proc) { r.sys.Store(p, 2, a1, 1); r.sys.Store(p, 2, a2, 1) })
	var vals [memory.WordsPerLine]uint64
	for i := range vals {
		vals[i] = uint64(i)
	}
	burst := r.runOn(func(p *sim.Proc) { r.sys.StoreLine(p, 0, a1, vals) })
	var wordwise sim.Time
	r.e = sim.NewEngine(1) // fresh engine not needed; reuse rig proc
	wordwise = r.runOn(func(p *sim.Proc) {
		for i := 0; i < memory.WordsPerLine; i++ {
			r.sys.Store(p, 0, a2+memory.Addr(i*8), uint64(i))
		}
	})
	// With no intervening reader, the burst costs the same as word stores to
	// an owned line (one ownership acquisition + 7 hits); its real benefit is
	// that the line can never be observed half-written.
	if burst > wordwise {
		t.Fatalf("burst %d more expensive than wordwise %d", burst, wordwise)
	}
	if got := r.mem.LoadLine(a1); got != vals {
		t.Fatal("StoreLine data wrong")
	}
}

func TestLoadLineReturnsData(t *testing.T) {
	r := newRig(topo.AMD2x2())
	a := r.mem.AllocLines(1, 0).Base
	var vals [memory.WordsPerLine]uint64
	for i := range vals {
		vals[i] = uint64(100 + i)
	}
	r.runOn(func(p *sim.Proc) { r.sys.StoreLine(p, 1, a, vals) })
	var got [memory.WordsPerLine]uint64
	r.runOn(func(p *sim.Proc) { got = r.sys.LoadLine(p, 3, a) })
	if got != vals {
		t.Fatalf("got %v, want %v", got, vals)
	}
}

func TestPrefetchMakesNextLoadAHit(t *testing.T) {
	r := newRig(topo.AMD2x2())
	a := r.mem.AllocLines(1, 0).Base
	r.runOn(func(p *sim.Proc) { r.sys.Store(p, 2, a, 9) })
	r.runOn(func(p *sim.Proc) {
		r.sys.Prefetch(p, 0, a)
	})
	lat := r.runOn(func(p *sim.Proc) { r.sys.Load(p, 0, a) })
	if lat != r.m.Costs.L1Hit {
		t.Fatalf("load after prefetch took %d, want hit %d", lat, r.m.Costs.L1Hit)
	}
}

func TestInterconnectTrafficCharged(t *testing.T) {
	r := newRig(topo.AMD2x2())
	a := r.mem.AllocLines(1, 0).Base
	r.runOn(func(p *sim.Proc) { r.sys.Store(p, 0, a, 1) })
	r.fab.Reset()
	r.runOn(func(p *sim.Proc) { r.sys.Load(p, 2, a) })
	// Probe goes 1->0, data comes back 0->1.
	if got := r.fab.LinkDwords(1, 0); got != interconnect.DwordsProbe {
		t.Fatalf("probe dwords=%d", got)
	}
	if got := r.fab.LinkDwords(0, 1); got != interconnect.DwordsData {
		t.Fatalf("data dwords=%d", got)
	}
}

func TestSameSocketTrafficStaysOffFabric(t *testing.T) {
	r := newRig(topo.AMD4x4())
	a := r.mem.AllocLines(1, 0).Base
	r.runOn(func(p *sim.Proc) { r.sys.Store(p, 0, a, 1) })
	r.fab.Reset()
	r.runOn(func(p *sim.Proc) { r.sys.Load(p, 1, a) }) // same socket
	if got := r.fab.TotalDwords(); got != 0 {
		t.Fatalf("intra-socket transfer put %d dwords on fabric", got)
	}
}

func TestFlushWritesBackDirtyLine(t *testing.T) {
	r := newRig(topo.AMD2x2())
	a := r.mem.AllocLines(1, 1).Base
	r.runOn(func(p *sim.Proc) { r.sys.Store(p, 0, a, 42) })
	r.runOn(func(p *sim.Proc) { r.sys.Flush(p, 0, a) })
	if s := r.sys.StateOf(0, a); s != Invalid {
		t.Fatalf("state after flush %v", s)
	}
	if r.mem.LoadWord(a) != 42 {
		t.Fatal("data lost on flush")
	}
	r.sys.CheckInvariants()
}

func TestDMAWriteInvalidatesAndStores(t *testing.T) {
	r := newRig(topo.AMD2x2())
	reg := r.mem.AllocLines(2, 0)
	r.runOn(func(p *sim.Proc) { r.sys.Load(p, 0, reg.Base) })
	payload := []byte{1, 2, 3, 4, 5}
	r.sys.DMAWrite(reg.Base, payload, 1)
	if s := r.sys.StateOf(0, reg.Base); s != Invalid {
		t.Fatalf("cached copy survived DMA: %v", s)
	}
	got := make([]byte, len(payload))
	r.mem.LoadInto(reg.Base, got)
	for i, b := range payload {
		if got[i] != b {
			t.Fatalf("byte %d = %d, want %d", i, got[i], b)
		}
	}
}

func TestTouchTracking(t *testing.T) {
	r := newRig(topo.AMD2x2())
	reg := r.mem.AllocLines(4, 0)
	// Line 3 is in the lookaside before tracking starts; touching it again
	// is a lookaside hit and must still count.
	r.runOn(func(p *sim.Proc) { r.sys.Load(p, 0, reg.LineAt(3)) })
	r.sys.StartTouchTracking()
	r.runOn(func(p *sim.Proc) {
		r.sys.Load(p, 0, reg.LineAt(0))
		r.sys.Load(p, 0, reg.LineAt(2))
		r.sys.Load(p, 0, reg.LineAt(2)) // same line twice
		r.sys.Load(p, 0, reg.LineAt(3))
	})
	if n := r.sys.StopTouchTracking(); n != 3 {
		t.Fatalf("touched %d lines, want 3", n)
	}
}

func TestTooManyCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := topo.MeshXY(33, 33, 1)
	New(sim.NewEngine(1), m, memory.New(m), interconnect.New(m))
}

// Property: after any sequence of loads and stores by random cores, MOESI
// invariants hold and the last written value is returned by a subsequent
// load from any core.
func TestCoherenceProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		r := newRig(topo.AMD4x4())
		reg := r.mem.AllocLines(4, 0)
		type wr struct{ line, val uint64 }
		lastWrite := map[uint64]uint64{}
		ok := true
		r.e.Spawn("driver", func(p *sim.Proc) {
			for _, op := range ops {
				core := topo.CoreID(op % 16)
				lineIdx := uint64(op>>4) % 4
				a := reg.LineAt(int(lineIdx))
				if op&0x8000 != 0 {
					val := uint64(op)
					r.sys.Store(p, core, a, val)
					lastWrite[lineIdx] = val
				} else {
					got := r.sys.Load(p, core, a)
					if got != lastWrite[lineIdx] {
						ok = false
					}
				}
			}
		})
		r.e.Run()
		r.sys.CheckInvariants()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerStallDelaysRemoteFetch injects an owner-stall fault: a fill served
// by the stalled owner's cache waits out the remainder of the stall window.
func TestOwnerStallDelaysRemoteFetch(t *testing.T) {
	r := newRig(topo.AMD2x2())
	a := r.mem.AllocLines(1, 0).Base
	writer, reader := topo.CoreID(0), topo.CoreID(2)
	r.runOn(func(p *sim.Proc) { r.sys.Store(p, writer, a, 7) })
	base := r.runOn(func(p *sim.Proc) { r.sys.Load(p, reader, a) })
	// Re-own the line on the writer, stall it, and fetch again.
	r.runOn(func(p *sim.Proc) { r.sys.Store(p, writer, a, 8) })
	const stall = 5_000
	r.sys.SetCoreStall(writer, r.e.Now()+stall)
	stalled := r.runOn(func(p *sim.Proc) { r.sys.Load(p, reader, a) })
	if stalled != base+stall {
		t.Fatalf("stalled fetch took %d, want %d (base %d + stall %d)", stalled, base+stall, base, stall)
	}
	// After the window expires, latency returns to the baseline.
	r.runOn(func(p *sim.Proc) { r.sys.Store(p, writer, a, 9) })
	after := r.runOn(func(p *sim.Proc) { r.sys.Load(p, reader, a) })
	if after != base {
		t.Fatalf("post-stall fetch took %d, want %d", after, base)
	}
	r.sys.CheckInvariants()
}

// TestStalledHolderDelaysInvalidation: an upgrade must wait for the stalled
// holder's probe response.
func TestStalledHolderDelaysInvalidation(t *testing.T) {
	// RMW holds the line synchronously, so the probe to the stalled sharer is
	// on the caller's critical path (a plain store miss issues asynchronously
	// and would hide the stall).
	run := func(stall sim.Time) sim.Time {
		r := newRig(topo.AMD2x2())
		a := r.mem.AllocLines(1, 0).Base
		r.runOn(func(p *sim.Proc) { r.sys.Load(p, 2, a) }) // core 2 holds a copy
		if stall > 0 {
			r.sys.SetCoreStall(2, r.e.Now()+stall)
		}
		d := r.runOn(func(p *sim.Proc) { r.sys.RMW(p, 0, a, func(v uint64) uint64 { return v + 1 }) })
		r.sys.CheckInvariants()
		return d
	}
	base := run(0)
	const stall = 3_000
	got := run(stall)
	if got <= base {
		t.Fatalf("RMW with stalled holder took %d, want > fault-free %d", got, base)
	}
}

// TestDegradedLinkSlowsCrossSocketFill: a latency multiplier on the crossed
// link raises remote-fetch latency; same-socket traffic is unaffected.
func TestDegradedLinkSlowsCrossSocketFill(t *testing.T) {
	r := newRig(topo.AMD2x2())
	a := r.mem.AllocLines(1, 0).Base
	r.runOn(func(p *sim.Proc) { r.sys.Store(p, 0, a, 7) })
	base := r.runOn(func(p *sim.Proc) { r.sys.Load(p, 2, a) })

	r2 := newRig(topo.AMD2x2())
	a2 := r2.mem.AllocLines(1, 0).Base
	r2.runOn(func(p *sim.Proc) { r2.sys.Store(p, 0, a2, 7) })
	r2.fab.SetDegrade(0, 1, interconnect.Degrade{DelayFactor: 2})
	slow := r2.runOn(func(p *sim.Proc) { r2.sys.Load(p, 2, a2) })
	if slow != 2*base {
		t.Fatalf("degraded cross-socket fill took %d, want %d (2x base %d)", slow, 2*base, base)
	}
	// Same-socket fetch pays nothing for the degraded link.
	b := r2.mem.AllocLines(1, 0).Base
	r2.runOn(func(p *sim.Proc) { r2.sys.Store(p, 0, b, 7) })
	r3 := newRig(topo.AMD2x2())
	b3 := r3.mem.AllocLines(1, 0).Base
	r3.runOn(func(p *sim.Proc) { r3.sys.Store(p, 0, b3, 7) })
	want := r3.runOn(func(p *sim.Proc) { r3.sys.Load(p, 1, b3) })
	got := r2.runOn(func(p *sim.Proc) { r2.sys.Load(p, 1, b) })
	if got != want {
		t.Fatalf("same-socket fill on degraded fabric took %d, want %d", got, want)
	}
	r2.sys.CheckInvariants()
}

// TestLineEntrySize pins a directory entry at 160 bytes with the 1,024-core
// holder set: line.fwd fills padding and line.host keeps rare state apart so
// that an entry keeps this size, and a larger entry costs every resident
// line of a run.
func TestLineEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 160 {
		t.Fatalf("line entry is %d bytes, want 160", got)
	}
}

// A line touched before Alloc hands its address out is homed on socket 0, as
// Memory.Home says then. Once an Alloc homes it on another socket, its entry
// must take that home, or its fills and directory service stay on socket 0.
// The audit must accept every transition of it, and must name an entry
// whose home went stale.
func TestLineTakesItsHomeWhenAllocated(t *testing.T) {
	m := topo.AMD4x4()
	r := newRig(m)
	rec := &probeRecorder{}
	r.sys.SetAudit(rec)
	a := r.mem.AllocLines(1, 0).Base + memory.LineSize // the line Alloc hands out next
	if r.mem.Allocated(a) {
		t.Fatal("precondition: the next line is already allocated")
	}
	const far, near = 12, 4 // cores on sockets 3 and 1
	if lat := r.runOn(func(p *sim.Proc) { r.sys.Load(p, far, a) }); lat != m.MemLat(far, 0) {
		t.Fatalf("fill before Alloc took %d, want %d from socket 0", lat, m.MemLat(far, 0))
	}
	r.runOn(func(p *sim.Proc) { r.sys.Flush(p, far, a) })
	if got := r.mem.AllocLines(1, 3).Base; got != a {
		t.Fatalf("Alloc handed out %#x, want %#x", got, a)
	}
	if lat := r.runOn(func(p *sim.Proc) { r.sys.Load(p, far, a) }); lat != m.MemLat(far, 3) {
		t.Fatalf("fill after Alloc took %d, want %d from socket 3", lat, m.MemLat(far, 3))
	}
	if len(rec.stale) > 0 {
		t.Fatalf("audit reported stale homes: %v", rec.stale)
	}
	r.sys.lines[a.Line()].home = 1
	r.runOn(func(p *sim.Proc) { r.sys.Load(p, near, a) })
	if want := "line 0x2 fill_owner: held 1, want 3"; len(rec.stale) != 1 || rec.stale[0] != want {
		t.Fatalf("audit reported %v, want [%s]", rec.stale, want)
	}
}
