package cache

import (
	"bytes"
	"fmt"
	"testing"

	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// Directory-mode mirror of the exhaustive MOESI transition table: the same
// 25 (state × probe) pairs, with the protocol running over home-node sharer
// bitmaps and targeted probes instead of broadcast snooping. The protocol
// state machine must be identical — only latencies and traffic differ — and
// it must stay identical when the three actors are spread across a mesh's
// sockets rather than packed into the paper machine.

// dirRig runs the transition table with arbitrary local/remote/helper cores
// under a chosen coherence mode.
type dirRig struct {
	*rig
	local, remote, helper topo.CoreID
}

func newDirRig(m *topo.Machine, mode CoherenceMode, local, remote, helper topo.CoreID) *dirRig {
	r := newRig(m)
	r.sys.SetMode(mode)
	return &dirRig{rig: r, local: local, remote: remote, helper: helper}
}

func (r *dirRig) on(fn func(p *sim.Proc)) {
	r.e.Spawn("op", func(p *sim.Proc) { fn(p) })
	r.e.Run()
}

func (r *dirRig) load(c topo.CoreID)  { r.on(func(p *sim.Proc) { r.sys.Load(p, c, moesiAddr) }) }
func (r *dirRig) store(c topo.CoreID) { r.on(func(p *sim.Proc) { r.sys.Store(p, c, moesiAddr, 1) }) }
func (r *dirRig) flush(c topo.CoreID) { r.on(func(p *sim.Proc) { r.sys.Flush(p, c, moesiAddr) }) }

func (r *dirRig) enter(s State) {
	switch s {
	case Invalid:
	case Shared:
		r.load(r.local)
		r.load(r.helper)
	case Exclusive:
		r.load(r.local)
	case Modified:
		r.store(r.local)
	case Owned:
		r.store(r.local)
		r.load(r.helper)
	}
}

func TestDirectoryTransitionTable(t *testing.T) {
	type probe struct {
		name string
		do   func(r *dirRig)
	}
	probes := []probe{
		{"local-load", func(r *dirRig) { r.load(r.local) }},
		{"local-store", func(r *dirRig) { r.store(r.local) }},
		{"remote-load", func(r *dirRig) { r.load(r.remote) }},
		{"remote-store", func(r *dirRig) { r.store(r.remote) }},
		{"local-flush", func(r *dirRig) { r.flush(r.local) }},
	}
	// want[state][probe] = {state of local, remote, helper} afterwards —
	// byte-for-byte the broadcast table of TestMOESITransitionTable.
	want := map[State]map[string][3]State{
		Invalid: {
			"local-load":   {Exclusive, Invalid, Invalid},
			"local-store":  {Modified, Invalid, Invalid},
			"remote-load":  {Invalid, Exclusive, Invalid},
			"remote-store": {Invalid, Modified, Invalid},
			"local-flush":  {Invalid, Invalid, Invalid},
		},
		Shared: {
			"local-load":   {Shared, Invalid, Shared},
			"local-store":  {Modified, Invalid, Invalid},
			"remote-load":  {Shared, Shared, Shared},
			"remote-store": {Invalid, Modified, Invalid},
			"local-flush":  {Invalid, Invalid, Shared},
		},
		Exclusive: {
			"local-load":   {Exclusive, Invalid, Invalid},
			"local-store":  {Modified, Invalid, Invalid},
			"remote-load":  {Shared, Shared, Invalid},
			"remote-store": {Invalid, Modified, Invalid},
			"local-flush":  {Invalid, Invalid, Invalid},
		},
		Modified: {
			"local-load":   {Modified, Invalid, Invalid},
			"local-store":  {Modified, Invalid, Invalid},
			"remote-load":  {Owned, Shared, Invalid},
			"remote-store": {Invalid, Modified, Invalid},
			"local-flush":  {Invalid, Invalid, Invalid},
		},
		Owned: {
			"local-load":   {Owned, Invalid, Shared},
			"local-store":  {Modified, Invalid, Invalid},
			"remote-load":  {Owned, Shared, Shared},
			"remote-store": {Invalid, Modified, Invalid},
			"local-flush":  {Invalid, Invalid, Shared},
		},
	}

	// Two placements: the paper machine's layout (local and remote share a
	// socket), and three distinct sockets of a scaled mesh, where every probe
	// is a true cross-fabric directory transaction.
	rigs := []struct {
		name                  string
		mk                    func() *topo.Machine
		local, remote, helper topo.CoreID
	}{
		{"amd2x2", topo.AMD2x2, 0, 1, 2},
		{"mesh-2", func() *topo.Machine { return topo.Mesh(2) }, 0, 5, 10},
	}
	for _, rc := range rigs {
		for _, start := range []State{Invalid, Shared, Exclusive, Modified, Owned} {
			for _, pr := range probes {
				t.Run(rc.name+"/"+start.String()+"/"+pr.name, func(t *testing.T) {
					r := newDirRig(rc.mk(), Directory, rc.local, rc.remote, rc.helper)
					defer r.e.Close()
					r.enter(start)
					if got := r.sys.StateOf(r.local, moesiAddr); got != start {
						t.Fatalf("setup: local core in %v, want %v", got, start)
					}
					pr.do(r)
					w := want[start][pr.name]
					for i, exp := range w {
						c := []topo.CoreID{r.local, r.remote, r.helper}[i]
						if got := r.sys.StateOf(c, moesiAddr); got != exp {
							t.Errorf("core %d: got %v, want %v", c, got, exp)
						}
					}
					r.sys.CheckInvariants()
				})
			}
		}
	}
}

// probeRecorder captures the probe counts the audit hook reports on upgrades,
// and the stale homes it reports.
type probeRecorder struct {
	upgrades []int
	stale    []string
}

func (pr *probeRecorder) Transition(_ memory.LineID, r Reason, _ topo.CoreID, _, _ LineView, probes int) {
	if r == AuditUpgrade {
		pr.upgrades = append(pr.upgrades, probes)
	}
}

func (pr *probeRecorder) StaleHome(id memory.LineID, r Reason, held, want topo.SocketID) {
	pr.stale = append(pr.stale, fmt.Sprintf("line %#x %s: held %d, want %d", uint64(id), r, held, want))
}

// Directory mode probes exactly the actual sharers; broadcast on a
// snoop-costed machine probes every remote socket no matter how few copies
// exist. This is the `cache.probe_fanout` split the experiment reports.
func TestProbeFanoutByMode(t *testing.T) {
	m := topo.Mesh(4) // 16 sockets, 64 cores
	// sharers: cores 0, 4, 8 (sockets 0, 1, 2); writer: core 12 (socket 3).
	run := func(mode CoherenceMode) []int {
		r := newRig(m)
		defer r.e.Close()
		r.sys.SetMode(mode)
		rec := &probeRecorder{}
		r.sys.SetAudit(rec)
		a := r.mem.AllocLines(1, 0).Base
		r.runOn(func(p *sim.Proc) {
			for _, c := range []topo.CoreID{0, 4, 8} {
				r.sys.Load(p, c, a)
			}
			r.sys.Store(p, 12, a, 1)
		})
		return rec.upgrades
	}
	if got := run(Directory); len(got) != 1 || got[0] != 3 {
		t.Fatalf("directory upgrade probes = %v, want [3]", got)
	}
	if got := run(Broadcast); len(got) != 1 || got[0] != m.NSockets-1 {
		t.Fatalf("broadcast upgrade probes = %v, want [%d]", got, m.NSockets-1)
	}
}

// The crossover itself, in miniature: with few sockets the broadcast snoop
// is cheaper than the directory indirection; with many it is dearer. Same
// workload, same machine size axis the mkbench coherence experiment sweeps.
func TestCoherenceModeCrossover(t *testing.T) {
	upgradeLat := func(m *topo.Machine, mode CoherenceMode) sim.Time {
		r := newRig(m)
		defer r.e.Close()
		r.sys.SetMode(mode)
		a := r.mem.AllocLines(1, 0).Base
		// One remote sharer, then a cross-socket writer upgrade.
		r.runOn(func(p *sim.Proc) { r.sys.Load(p, 0, a) })
		writer := topo.CoreID(m.CoresPerSocket) // socket 1
		return r.runOn(func(p *sim.Proc) { r.sys.RMW(p, writer, a, func(v uint64) uint64 { return v + 1 }) })
	}
	small := topo.Mesh(2) // 4 sockets: snoop extra 3*4=12 < dir 52
	if b, d := upgradeLat(small, Broadcast), upgradeLat(small, Directory); b >= d {
		t.Fatalf("mesh-2: broadcast %d not < directory %d", b, d)
	}
	large := topo.Mesh(6) // 36 sockets: snoop extra 35*4=140 > dir 52
	if b, d := upgradeLat(large, Broadcast), upgradeLat(large, Directory); d >= b {
		t.Fatalf("mesh-6: directory %d not < broadcast %d", d, b)
	}
}

// Directory state (wide sharer bitmaps past core 64, plus the mode itself)
// must survive a checkpoint/restore round trip.
func TestDirectoryCheckpointRoundTrip(t *testing.T) {
	m := topo.Mesh(6) // 144 cores: sharer bitmaps need more than one word
	r := newRig(m)
	defer r.e.Close()
	r.sys.SetMode(Directory)
	a := r.mem.AllocLines(1, 0).Base
	sharers := []topo.CoreID{0, 63, 64, 100, 143}
	r.runOn(func(p *sim.Proc) {
		r.sys.Store(p, 143, a, 7)
		for _, c := range sharers {
			r.sys.Load(p, c, a)
		}
	})
	var img bytes.Buffer
	if err := r.sys.CheckpointState(&img); err != nil {
		t.Fatal(err)
	}

	r2 := newRig(m)
	defer r2.e.Close()
	if err := r2.sys.RestoreState(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	if r2.sys.Mode() != Directory {
		t.Fatalf("restored mode %v, want directory", r2.sys.Mode())
	}
	hs := r2.sys.HomeSharers(a.Line())
	for _, c := range sharers {
		if !hs.Has(c) {
			t.Fatalf("restored sharer bitmap %v missing core %d", hs, c)
		}
	}
	if got := hs.Count(); got != len(sharers) {
		t.Fatalf("restored sharer count %d, want %d", got, len(sharers))
	}
	if got := r2.sys.StateOf(143, a); got != Owned {
		t.Fatalf("restored owner state %v, want Owned", got)
	}
}
