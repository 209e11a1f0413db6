package urpc

import "multikernel/internal/topo"

// Inspectors that only the tests use.

// Sender returns the sending core.
func (b *BulkChannel) Sender() topo.CoreID { return b.desc.Sender }

// Receiver returns the receiving core.
func (b *BulkChannel) Receiver() topo.CoreID { return b.desc.Receiver }

// Stats returns the descriptor ring's counters.
func (b *BulkChannel) Stats() Stats { return b.desc.Stats() }

// Pending reports whether a payload is ready (engine-side inspection).
func (b *BulkChannel) Pending() bool { return b.desc.Pending() }

// Stats counts one channel's activity.
type Stats struct {
	Sent      uint64
	Received  uint64
	FullStall uint64 // sends that had to wait for ring space
	Notifies  uint64 // blocked-receiver wakeups
}

// Stats returns the channel's message counts, which are its cursors, and
// the engine's "urpc.full_stalls" and "urpc.notifies" counters, which are
// the channel's own only while it is the engine's one channel.
func (c *Channel) Stats() Stats {
	return Stats{c.sendSeq, c.recvSeq, c.mFullStall.Value(), c.mNotifies.Value()}
}

// Slots returns the ring size.
func (c *Channel) Slots() int { return c.slots }
