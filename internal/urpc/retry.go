package urpc

import "multikernel/internal/sim"

// RetryPolicy is the one deadline/backoff policy shared by every layer that
// suspects a peer and retries: the transport's Deadline waits, the monitors'
// recovery deadlines (each round doubles the phase deadline), and
// fault-aware clients re-resolving a service after a
// ChannelDead verdict. It replaces the ad-hoc gap-doubling and deadline
// shifting that used to be duplicated across internal/urpc and
// internal/monitor/recovery.go.
//
// The policy is exponential with a cap: attempt n (0-based) backs off
// Base<<n cycles, clipped to Cap. With a seeded RNG attached, each gap is
// additionally jittered by ±Jitter fraction — drawn from that RNG only, so
// two runs with equal seeds retry at identical virtual times and composed
// fault schedules stay bit-for-bit reproducible.
type RetryPolicy struct {
	Base   sim.Time // first gap, and the deadline unit for Deadline
	Cap    sim.Time // largest gap; 0 = uncapped
	Tries  int      // attempts before Exhausted; 0 = unbounded
	Jitter float64  // ± fraction of each gap drawn from rng; 0 = none
	rng    *sim.RNG
}

// NewRetryPolicy builds a seeded-jitter policy. rng may be nil when
// Jitter == 0 (a purely deterministic exponential policy).
func NewRetryPolicy(base, cap sim.Time, tries int, jitter float64, rng *sim.RNG) RetryPolicy {
	return RetryPolicy{Base: base, Cap: cap, Tries: tries, Jitter: jitter, rng: rng}
}

// Gap returns the backoff before retry attempt n (0-based): Base<<n clipped
// to Cap, jittered when the policy carries an RNG. The unjittered sequence
// with Base=pollGap, Cap=maxBackoffGap is exactly the transport's historic
// 25, 50, 100, ... 1600 ladder.
func (rp RetryPolicy) Gap(attempt int) sim.Time {
	g := rp.Base
	// Shift with an overflow guard: past ~60 doublings the gap is pinned to
	// the cap (or an arbitrarily large value when uncapped).
	if attempt > 0 {
		if attempt > 60 {
			attempt = 60
		}
		g = rp.Base << uint(attempt)
	}
	if rp.Cap > 0 && g > rp.Cap {
		g = rp.Cap
	}
	if rp.Jitter > 0 && rp.rng != nil {
		g = rp.rng.Jitter(g, rp.Jitter)
	}
	return g
}

// Next advances a running gap one step: doubled, clipped to Cap. This is the
// incremental form the transport's poll loops use (they carry the gap across
// iterations instead of an attempt counter).
func (rp RetryPolicy) Next(gap sim.Time) sim.Time {
	if rp.Cap > 0 && gap >= rp.Cap {
		return rp.Cap
	}
	gap *= 2
	if rp.Cap > 0 && gap > rp.Cap {
		gap = rp.Cap
	}
	return gap
}

// Deadline returns now + Base<<round — the monitors' recovery-deadline
// schedule, where every recovery round doubles the phase deadline so a
// congested but live system eventually outruns its failure detector.
func (rp RetryPolicy) Deadline(now sim.Time, round int) sim.Time {
	if round > 60 {
		round = 60
	}
	return now + rp.Base<<uint(round)
}

// Exhausted reports whether attempt (0-based) is past the policy's budget.
func (rp RetryPolicy) Exhausted(attempt int) bool {
	return rp.Tries > 0 && attempt >= rp.Tries
}

// transportBackoff is the policy of the transport's own Deadline waits:
// pollGap doubling to maxBackoffGap, no jitter (the poll cadence is part of
// the pinned cycle model).
var transportBackoff = RetryPolicy{Base: pollGap, Cap: maxBackoffGap}
