// Package monitor implements the user-space monitors of the multikernel
// (paper §4.4): one schedulable, single-core process per core that
// collectively coordinates all system-wide state. Monitors exchange
// cache-line-sized URPC messages over a full mesh of channels and run the
// agreement protocols of the paper's evaluation — one-phase commit for
// order-insensitive operations like TLB shootdown (§5.1) and two-phase
// commit for capability retyping and revocation (§5.2) — using NUMA-aware
// multicast trees computed by the system knowledge base.
package monitor

import (
	"fmt"

	"multikernel/internal/caps"
	"multikernel/internal/memory"
	"multikernel/internal/topo"
	"multikernel/internal/urpc"
)

// MsgKind identifies an inter-monitor message type (word 0 of the URPC
// message).
type MsgKind uint64

// Inter-monitor message kinds. Each request kind is directly followed by its
// response kind, so the answer to kind k is k+1, and an answer's aux word is
// 1 for yes, done or accepted. An aggregation node passes a request on under
// its own kind; a request whose aux word names no children and no relay
// sockets is answered at once.
const (
	MsgInvalid MsgKind = iota
	// One-phase commit (shootdown / unmap).
	MsgShootdown    // invalidate a mapping
	MsgShootdownAck // participant/aggregate acknowledges completion
	// Two-phase commit (retype / revoke).
	MsgPrepare     // phase 1 request
	MsgVote        // phase 1 response (aux 0 = no)
	MsgDecision    // phase 2: commit (aux has auxCommit) or abort
	MsgDecisionAck // phase 2 response
	// Capability transfer (§4.8).
	MsgCapSend // carries a serialized capability
	MsgCapAck
	// Latency measurement (SKB population).
	MsgPing
	MsgPong
)

// OpKind identifies the coordinated operation carried by a protocol message.
type OpKind uint64

// Coordinated operation kinds.
const (
	OpNone     OpKind = iota
	OpUnmap           // remove/downgrade a mapping (1PC)
	OpRetype          // change memory usage (2PC)
	OpRevoke          // revoke a capability subtree (2PC)
	OpCoreDown        // take a core offline (1PC membership change)
	OpCoreUp          // bring a core online (1PC membership change)
)

// twoPhase reports whether operations of kind k run two-phase commit.
func (k OpKind) twoPhase() bool { return k == OpRetype || k == OpRevoke }

// Op describes one coordinated operation over a physical range.
type Op struct {
	Kind    OpKind
	ID      uint64 // unique per initiator: origin<<32 | seq
	Origin  topo.CoreID
	Base    memory.Addr
	Bytes   uint64
	NewType caps.Type // for OpRetype
	Level   int       // for OpRetype page tables
}

// wire encodes message fields into a URPC message. Layout:
//
//	w0 kind | w1 op.ID | w2 origin | w3 base | w4 bytes
//	w5 opKind<<16 | newType<<8 | level | w6 aux
func wire(kind MsgKind, op Op, aux uint64) urpc.Message {
	return urpc.Message{
		uint64(kind),
		op.ID,
		uint64(op.Origin),
		uint64(op.Base),
		op.Bytes,
		uint64(op.Kind)<<16 | uint64(op.NewType)<<8 | uint64(op.Level),
		aux,
	}
}

// unwire decodes a URPC message.
func unwire(m urpc.Message) (kind MsgKind, op Op, aux uint64) {
	kind = MsgKind(m[0])
	op = Op{
		Kind:    OpKind(m[5] >> 16),
		ID:      m[1],
		Origin:  topo.CoreID(m[2]),
		Base:    memory.Addr(m[3]),
		Bytes:   m[4],
		NewType: caps.Type(m[5] >> 8),
		Level:   int(m[5] & 0xff),
	}
	return kind, op, m[6]
}

var msgNames = [...]string{
	MsgShootdown:    "shootdown",
	MsgShootdownAck: "shootdown-ack",
	MsgPrepare:      "prepare",
	MsgVote:         "vote",
	MsgDecision:     "decision",
	MsgDecisionAck:  "decision-ack",
	MsgCapSend:      "cap-send",
	MsgCapAck:       "cap-ack",
	MsgPing:         "ping",
	MsgPong:         "pong",
}

func (k MsgKind) String() string {
	if k > MsgInvalid && k < MsgKind(len(msgNames)) {
		return msgNames[k]
	}
	return fmt.Sprintf("msg(%d)", uint64(k))
}
