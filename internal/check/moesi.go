package check

import (
	"fmt"

	"multikernel/internal/cache"
	"multikernel/internal/memory"
	"multikernel/internal/topo"
)

// MOESIChecker is a cache.Audit hook that shadows the directory and validates
// every transition against the MOESI invariants the simulator is supposed to
// preserve:
//
//   - single owner: at most one core owns a line, and the owner holds it;
//   - no stale read: a fill is never served from memory while some cache
//     holds the line dirty (the dirty copy is the only current one);
//   - probe conservation: a write upgrade probes exactly the other sharers
//     it invalidates (under a broadcast-snoop cost model, every remote
//     socket), and leaves the writer as the sole holder/owner;
//   - store isolation: a line is dirtied only by its owner, only after every
//     other copy has been invalidated;
//   - continuity: every directory mutation arrives through the audit hook
//     (the before-image of each transition must equal the shadow copy);
//   - home: at every transition the entry's home socket is the one memory
//     gives the line (StaleHome).
//
// Violations are collected, not fatal, so a perturbed run reports every
// failure it encounters.
type MOESIChecker struct {
	shadow map[memory.LineID]cache.LineView
	viol   []Violation

	// bcastProbes, when ≥ 0, is the fixed probe fan-out of every upgrade on
	// a broadcast-snoop machine (NSockets-1); -1 means probes must equal the
	// actual sharer count (directory mode and the paper machines).
	bcastProbes int
	// dirCheck, when set, cross-checks the home-node sharer bitmaps against
	// the shadow directory in Finish — the directory-protocol half of the
	// oracle.
	dirCheck bool
}

// NewMOESIChecker returns an empty checker; install with sys.SetAudit.
func NewMOESIChecker() *MOESIChecker {
	return &MOESIChecker{shadow: make(map[memory.LineID]cache.LineView), bcastProbes: -1}
}

// Bind adapts the checker to the system's coherence mode: broadcast on a
// machine with a per-socket snoop cost probes every remote socket regardless
// of sharer count, while directory mode must probe exactly the home node's
// sharer bitmap — which Finish then cross-checks against the shadow. Call
// after sys.SetMode, before the workload runs.
func (mc *MOESIChecker) Bind(sys *cache.System) {
	m := sys.Machine()
	switch sys.Mode() {
	case cache.Broadcast:
		if m.Costs.SnoopPerSocket > 0 {
			mc.bcastProbes = m.NSockets - 1
		}
	case cache.Directory:
		mc.dirCheck = true
	}
}

func (mc *MOESIChecker) fail(id memory.LineID, r cache.Reason, format string, args ...any) {
	msg := fmt.Sprintf("line %d %s: ", id, r) + fmt.Sprintf(format, args...)
	mc.viol = append(mc.viol, Violation{Checker: "moesi", Msg: msg})
}

// Transition implements cache.Audit.
func (mc *MOESIChecker) Transition(id memory.LineID, r cache.Reason, core topo.CoreID, before, after cache.LineView, probes int) {
	if sv, ok := mc.shadow[id]; ok && sv != before {
		mc.fail(id, r, "shadow divergence: directory mutated outside audit (shadow %+v, before %+v)", sv, before)
	}
	mc.shadow[id] = after

	if after.Owner >= 0 && !after.Holders.Has(after.Owner) {
		mc.fail(id, r, "owner %d is not a holder (holders %v)", after.Owner, after.Holders)
	}
	if after.Dirty && after.Owner < 0 {
		mc.fail(id, r, "dirty line with no owner")
	}

	switch r {
	case cache.AuditFillMem, cache.AuditFillShared:
		if before.Dirty {
			mc.fail(id, r, "stale read: core %d filled from memory while owner %d holds the line dirty", core, before.Owner)
		}
	case cache.AuditFillOwner:
		if before.Owner < 0 {
			mc.fail(id, r, "owner-forwarded fill with no owner")
		} else if before.Owner == core {
			mc.fail(id, r, "core %d forwarded the line to itself", core)
		}
	case cache.AuditUpgrade:
		want := mc.bcastProbes
		if want < 0 {
			sharers := before.Holders
			sharers.Del(core)
			want = sharers.Count()
		}
		if probes != want {
			mc.fail(id, r, "probe conservation: invalidated %d sharers, sent %d probes", want, probes)
		}
		if !after.Holders.Only(core) || after.Owner != core {
			mc.fail(id, r, "core %d upgraded but is not sole holder/owner (holders %v, owner %d)", core, after.Holders, after.Owner)
		}
	case cache.AuditDirty:
		if before.Owner != core {
			mc.fail(id, r, "core %d dirtied a line owned by %d", core, before.Owner)
		}
		if before.Holders.HasOther(core) {
			mc.fail(id, r, "core %d dirtied the line with live sharers %v", core, before.Holders)
		}
	}
}

// StaleHome implements cache.Audit: a directory entry whose home is not the
// line's home in memory charges its fills, home routing and directory
// service to the wrong socket.
func (mc *MOESIChecker) StaleHome(id memory.LineID, r cache.Reason, held, want topo.SocketID) {
	mc.fail(id, r, "stale home: entry holds socket %d, memory homes the line on %d", held, want)
}

// Finish runs the end-of-run sweep: the real directory must match the shadow
// (nothing mutated a line without reporting it) and obey the steady-state
// invariants; in directory mode every home node's sharer bitmap must equal
// the shadow's holder set (the targeted-probe protocol consulted exactly the
// state the audited transitions built). It returns every violation collected
// during the run plus any found by the sweep. Call only after the engine has
// quiesced.
func (mc *MOESIChecker) Finish(sys *cache.System) []Violation {
	sys.ForEachLine(func(id memory.LineID, v cache.LineView) {
		if sv, ok := mc.shadow[id]; ok && sv != v {
			mc.viol = append(mc.viol, Violation{Checker: "moesi", Msg: fmt.Sprintf(
				"line %d final sweep: shadow %+v != directory %+v", id, sv, v)})
		}
		if v.Owner >= 0 && !v.Holders.Has(v.Owner) {
			mc.viol = append(mc.viol, Violation{Checker: "moesi", Msg: fmt.Sprintf(
				"line %d final sweep: owner %d not a holder (holders %v)", id, v.Owner, v.Holders)})
		}
		if v.Dirty && v.Owner < 0 {
			mc.viol = append(mc.viol, Violation{Checker: "moesi", Msg: fmt.Sprintf(
				"line %d final sweep: dirty with no owner", id)})
		}
	})
	if mc.dirCheck {
		for id, sv := range mc.shadow {
			if hs := sys.HomeSharers(id); hs != sv.Holders {
				mc.viol = append(mc.viol, Violation{Checker: "moesi", Msg: fmt.Sprintf(
					"line %d directory sweep: home sharer bitmap %v != shadow holders %v", id, hs, sv.Holders)})
			}
		}
	}
	return mc.viol
}
