package urpc

import (
	"bytes"
	"testing"

	"multikernel/internal/ckpt"
	"multikernel/internal/topo"
)

// chanImage encodes a channel image with the given cursors and flags and
// zero counters, in CheckpointState's order.
func chanImage(sendSeq, recvSeq, sendAcked, published, flags uint64) []byte {
	var b bytes.Buffer
	ckpt.WriteU64(&b, sendSeq, recvSeq, sendAcked, published, flags, 0, 0, 0, 0)
	return b.Bytes()
}

// TestRestoreStateChecksCursors restores channel images onto a 4-slot
// channel. Reachable cursors satisfy sendAcked <= published <= recvSeq <=
// sendSeq <= sendAcked+slots; any other image, or one with a flag bit other
// than the dead verdict, must be an error. The first case once restored
// cleanly, and a message then sent under a Deadline was never received.
func TestRestoreStateChecksCursors(t *testing.T) {
	cases := []struct {
		name string
		img  []byte
		ok   bool
	}{
		{"received more than was sent", chanImage(0, 10, 0, 10, 0), false},
		{"ack view beyond what was published", chanImage(6, 5, 5, 4, 0), false},
		{"published beyond what was received", chanImage(6, 4, 4, 5, 0), false},
		{"more than a ring in flight", chanImage(5, 0, 0, 0, 0), false},
		{"unknown flag bit", chanImage(0, 0, 0, 0, 2), false},
		{"fresh", chanImage(0, 0, 0, 0, 0), true},
		{"full ring", chanImage(4, 0, 0, 0, 0), true},
		{"received, partly published and acked, dead", chanImage(9, 8, 5, 7, chDead), true},
	}
	for _, c := range cases {
		e, sys := newSys(topo.AMD2x2())
		ch := New(sys, 0, 1, Options{Slots: 4, Home: -1})
		err := ch.RestoreState(bytes.NewReader(c.img))
		if (err == nil) != c.ok {
			t.Errorf("%s: RestoreState err = %v, want ok = %v", c.name, err, c.ok)
		}
		e.Close()
	}
}
