package urpc

// Checkpoint serialization for one channel's Go-side protocol state. The
// ring and ack lines themselves live in simulated memory and travel with the
// memory image; this blob carries the sender/receiver cursors that shadow
// them. A channel with a parked receiver (blocked != nil) is not
// quiescent — the wait is a goroutine state the image cannot carry — so it
// is an error, matching the engine-level quiescence rule.

import (
	"fmt"
	"io"

	"multikernel/internal/ckpt"
)

// chDead is the channel flag bit in the serialized image.
const chDead = 1 << iota

// CheckpointState serializes the channel's cursors and flags.
func (c *Channel) CheckpointState(w io.Writer) error {
	if c.blocked != nil {
		return fmt.Errorf("urpc: channel %d->%d has a blocked receiver (not quiescent)", c.Sender, c.Receiver)
	}
	var flags uint64
	if c.dead {
		flags |= chDead
	}
	return ckpt.WriteU64(w, c.sendSeq, c.recvSeq, c.sendAcked, c.published, flags)
}

// RestoreState reads back what CheckpointState wrote. It rejects cursors no
// run can reach: the sender's view of the ack line never passes what the
// receiver published, the receiver publishes only what it received and
// receives only what was sent, and at most one ring of messages is in flight.
func (c *Channel) RestoreState(r io.Reader) error {
	var sendSeq, recvSeq, sendAcked, published, flags uint64
	if err := ckpt.ReadU64(r, &sendSeq, &recvSeq, &sendAcked, &published, &flags); err != nil {
		return err
	}
	if sendAcked > published || published > recvSeq || recvSeq > sendSeq ||
		sendSeq-sendAcked > uint64(c.slots) {
		return fmt.Errorf("urpc: channel %d->%d image has impossible cursors (sent %d, received %d, published %d, acked %d, %d slots)",
			c.Sender, c.Receiver, sendSeq, recvSeq, published, sendAcked, c.slots)
	}
	if flags&^chDead != 0 {
		return fmt.Errorf("urpc: channel %d->%d image has unknown flag bits %#x", c.Sender, c.Receiver, flags)
	}
	c.sendSeq, c.recvSeq, c.sendAcked, c.published = sendSeq, recvSeq, sendAcked, published
	c.dead = flags&chDead != 0
	c.blocked = nil
	return nil
}
