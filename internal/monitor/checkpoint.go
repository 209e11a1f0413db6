package monitor

// Checkpoint serialization for the monitor network, implementing
// sim.Checkpointer. The image carries each monitor's Go-side replica state —
// blocked flag, membership view, liveness flags, counters — and every URPC
// mesh channel's cursors. In-flight agreement operations (ops/fwd/locks) and
// queued local requests are rejected: a checkpoint is taken when the
// monitors are idle, which is exactly the state a boot image is saved in.

import (
	"fmt"
	"io"

	"multikernel/internal/ckpt"
	"multikernel/internal/topo"
)

// Per-monitor flag bits in the serialized image.
const (
	mfParked = 1 << iota
	mfDown
)

// packBools packs a bool slice into u64 words, LSB first.
func packBools(bs []bool) []uint64 {
	out := make([]uint64, (len(bs)+63)/64)
	for i, b := range bs {
		if b {
			out[i/64] |= 1 << uint(i%64)
		}
	}
	return out
}

// unpackBools unpacks n bools from u64 words. packBools never sets a bit at
// or past n, and dropping one would make the image re-checkpoint to other
// bytes, so such a bit is an error.
func unpackBools(words []uint64, n int) ([]bool, error) {
	if len(words) != (n+63)/64 {
		return nil, fmt.Errorf("monitor: bool set has %d words; want %d", len(words), (n+63)/64)
	}
	if n%64 != 0 && words[len(words)-1]>>(n%64) != 0 {
		return nil, fmt.Errorf("monitor: bool set of %d has bits set past its end", n)
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = words[i/64]&(1<<uint(i%64)) != 0
	}
	return out, nil
}

// CheckpointState serializes every monitor and mesh channel.
func (n *Network) CheckpointState(w io.Writer) error {
	if err := ckpt.WriteU64(w, uint64(len(n.monitors))); err != nil {
		return err
	}
	if err := ckpt.WriteU64Slice(w, packBools(n.failed)); err != nil {
		return err
	}
	for _, mon := range n.monitors {
		if len(mon.ops) > 0 || len(mon.fwd) > 0 || len(mon.locks) > 0 || mon.local.Len() > 0 {
			return fmt.Errorf("monitor: core %d has in-flight operations (not quiescent)", mon.Core)
		}
		var flags uint64
		if mon.parked {
			flags |= mfParked
		}
		if mon.down {
			flags |= mfDown
		}
		st := &mon.stats
		if err := ckpt.WriteU64(w, flags, mon.seq,
			st.Handled, st.Initiated, st.Commits, st.Aborts, st.Wakeups,
			st.Excised, st.Recoveries, st.Strays, st.Dropped); err != nil {
			return err
		}
		if err := ckpt.WriteU64Slice(w, packBools(mon.view)); err != nil {
			return err
		}
	}
	// Mesh channels in (sender, receiver) order — the construction order.
	for a := range n.monitors {
		for b := range n.monitors {
			if a == b {
				continue
			}
			if err := n.monitors[a].out[topo.CoreID(b)].CheckpointState(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// RestoreState reads back what CheckpointState wrote.
func (n *Network) RestoreState(r io.Reader) error {
	var ncores uint64
	if err := ckpt.ReadU64(r, &ncores); err != nil {
		return err
	}
	if int(ncores) != len(n.monitors) {
		return fmt.Errorf("monitor: image has %d cores; network has %d", ncores, len(n.monitors))
	}
	fwords, err := ckpt.ReadU64Slice(r)
	if err != nil {
		return err
	}
	failed, err := unpackBools(fwords, len(n.failed))
	if err != nil {
		return err
	}
	n.failed = failed
	for _, mon := range n.monitors {
		var flags uint64
		st := &mon.stats
		if err := ckpt.ReadU64(r, &flags, &mon.seq,
			&st.Handled, &st.Initiated, &st.Commits, &st.Aborts, &st.Wakeups,
			&st.Excised, &st.Recoveries, &st.Strays, &st.Dropped); err != nil {
			return err
		}
		if flags&^(mfParked|mfDown) != 0 {
			return fmt.Errorf("monitor: core %d image has unknown flag bits %#x", mon.Core, flags)
		}
		mon.parked = flags&mfParked != 0
		mon.down = flags&mfDown != 0
		vwords, err := ckpt.ReadU64Slice(r)
		if err != nil {
			return err
		}
		if mon.view, err = unpackBools(vwords, int(ncores)); err != nil {
			return err
		}
	}
	for a := range n.monitors {
		for b := range n.monitors {
			if a == b {
				continue
			}
			if err := n.monitors[a].out[topo.CoreID(b)].RestoreState(r); err != nil {
				return err
			}
		}
	}
	return nil
}
