package cache

// Checkpoint serialization for the MOESI directory, implementing
// sim.Checkpointer. The image covers everything the next transaction's
// latency depends on: per-line directory entries, home-directory service
// frontiers, per-core store-buffer occupancy, access counters and fault
// state. The fill/fan-out histograms live in the engine's metrics registry
// and travel with its image; per-line transfer queues are sim.Resources and
// are rebuilt empty — a line mid-transfer means a pending engine callback,
// which the engine-level checkpoint already rejects as non-quiescent.

import (
	"fmt"
	"io"
	"math/bits"
	"sort"

	"multikernel/internal/ckpt"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// Per-line flag bits in the serialized image.
const (
	clDirty = 1 << iota
	clXferStore
)

// CheckpointState serializes the directory and per-core state.
func (s *System) CheckpointState(w io.Writer) error {
	if s.tracking {
		return fmt.Errorf("cache: checkpoint during touch tracking")
	}
	ids := make([]memory.LineID, 0, len(s.lines))
	for id := range s.lines {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if err := ckpt.WriteU64(w, uint64(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		l := s.lines[id]
		if l.res.InUse()+l.res.QueueLen() > 0 {
			return fmt.Errorf("cache: line %#x mid-transfer (not quiescent)", uint64(id))
		}
		var flags uint64
		if l.dirty {
			flags |= clDirty
		}
		if l.xferStore {
			flags |= clXferStore
		}
		if err := ckpt.WriteU64(w, uint64(id)); err != nil {
			return err
		}
		if err := ckpt.WriteU64(w, l.holders[:]...); err != nil {
			return err
		}
		if err := ckpt.WriteU64(w, uint64(int64(l.owner)), flags); err != nil {
			return err
		}
	}
	dirFree := make([]uint64, len(s.dirFree))
	for i, t := range s.dirFree {
		dirFree[i] = uint64(t)
	}
	if err := ckpt.WriteU64Slice(w, dirFree); err != nil {
		return err
	}
	inflight := make([]uint64, len(s.inflight))
	for i, n := range s.inflight {
		inflight[i] = uint64(n)
	}
	if err := ckpt.WriteU64Slice(w, inflight); err != nil {
		return err
	}
	if err := ckpt.WriteU64(w, uint64(len(s.stats))); err != nil {
		return err
	}
	for i := range s.stats {
		st := &s.stats[i]
		if err := ckpt.WriteU64(w, st.Hits, st.Misses, st.RemoteMisses, st.Upgrades, st.Invalidated); err != nil {
			return err
		}
	}
	stall := make([]uint64, len(s.stallUntil))
	for i, t := range s.stallUntil {
		stall[i] = uint64(t)
	}
	if err := ckpt.WriteU64Slice(w, stall); err != nil {
		return err
	}
	return ckpt.WriteU64(w, uint64(s.mode))
}

// RestoreState replaces the directory and per-core state with an image. The
// line map grows as records arrive rather than being sized from the image's
// count, so a corrupt count fails at the end of the image instead of
// allocating whatever the count says. Line ids must strictly ascend, as
// CheckpointState writes them, every core index the image names must be a
// core of this machine, and a line may carry only the known flag bits. A
// restore leaves no Watcher clean.
func (s *System) RestoreState(r io.Reader) error {
	var nlines uint64
	if err := ckpt.ReadU64(r, &nlines); err != nil {
		return err
	}
	ncores := s.mach.NumCores()
	lines := make(map[memory.LineID]*line)
	var prev memory.LineID
	for i := range nlines {
		var id uint64
		if err := ckpt.ReadU64(r, &id); err != nil {
			return err
		}
		if i > 0 && memory.LineID(id) <= prev {
			return fmt.Errorf("cache: image lines out of order at line %#x", id)
		}
		prev = memory.LineID(id)
		var holders CoreSet
		for j := range holders {
			if err := ckpt.ReadU64(r, &holders[j]); err != nil {
				return err
			}
		}
		for j, w := range holders {
			if w != 0 && j*64+bits.Len64(w) > ncores {
				return fmt.Errorf("cache: image line %#x has a holder beyond the machine's %d cores", id, ncores)
			}
		}
		var owner, flags uint64
		if err := ckpt.ReadU64(r, &owner, &flags); err != nil {
			return err
		}
		if o := int64(owner); o < -1 || o >= int64(ncores) {
			return fmt.Errorf("cache: image line %#x owned by core %d; machine has %d", id, o, ncores)
		}
		if flags&^(clDirty|clXferStore) != 0 {
			return fmt.Errorf("cache: image line %#x has unknown flag bits %#x", id, flags)
		}
		l := &line{
			holders:   holders,
			owner:     topo.CoreID(int64(owner)),
			dirty:     flags&clDirty != 0,
			xferStore: flags&clXferStore != 0,
			res:       sim.NewResource(s.eng, 1),
		}
		s.markForward(memory.LineID(id), l)
		lines[memory.LineID(id)] = l
	}
	dirFree, err := ckpt.ReadU64Slice(r)
	if err != nil {
		return err
	}
	if len(dirFree) != len(s.dirFree) {
		return fmt.Errorf("cache: image has %d home directories; machine has %d", len(dirFree), len(s.dirFree))
	}
	inflight, err := ckpt.ReadU64Slice(r)
	if err != nil {
		return err
	}
	if len(inflight) != len(s.inflight) {
		return fmt.Errorf("cache: image has %d cores; machine has %d", len(inflight), len(s.inflight))
	}
	var nstats uint64
	if err := ckpt.ReadU64(r, &nstats); err != nil {
		return err
	}
	if nstats != uint64(len(s.stats)) {
		return fmt.Errorf("cache: image has stats for %d cores; machine has %d", nstats, len(s.stats))
	}
	stats := make([]Stats, nstats)
	for i := range stats {
		st := &stats[i]
		if err := ckpt.ReadU64(r, &st.Hits, &st.Misses, &st.RemoteMisses, &st.Upgrades, &st.Invalidated); err != nil {
			return err
		}
	}
	stall, err := ckpt.ReadU64Slice(r)
	if err != nil {
		return err
	}
	if len(stall) != 0 && len(stall) != ncores {
		return fmt.Errorf("cache: image has stall times for %d cores; machine has %d", len(stall), ncores)
	}
	var mode uint64
	if err := ckpt.ReadU64(r, &mode); err != nil {
		return err
	}
	if mode > uint64(Directory) {
		return fmt.Errorf("cache: image has unknown coherence mode %d", mode)
	}

	// Every clean record is the watch of some line of the table replaced
	// here, and no write to the new lines can reach it.
	for _, l := range s.lines {
		if l.host != nil && l.host.watch != nil {
			l.host.watch.Clean = false
		}
	}
	s.lines = lines
	s.clearLookaside()
	s.mode = CoherenceMode(mode)
	for i, v := range dirFree {
		s.dirFree[i] = sim.Time(v)
	}
	for i, v := range inflight {
		s.inflight[i] = int(v)
	}
	copy(s.stats, stats)
	if len(stall) > 0 {
		s.stallUntil = make([]sim.Time, len(stall))
		for i, v := range stall {
			s.stallUntil[i] = sim.Time(v)
		}
		s.anyStall = true
	} else {
		s.stallUntil = nil
		s.anyStall = false
	}
	return nil
}
