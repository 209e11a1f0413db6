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

// Stats returns a copy of the channel's counters.
func (c *Channel) Stats() Stats { return c.stats }

// Slots returns the ring size.
func (c *Channel) Slots() int { return c.slots }
