package netstack

import (
	"fmt"

	"multikernel/internal/sim"
	"multikernel/internal/urpc"
)

// MSS is the maximum TCP segment payload.
const MSS = 1460

// TCP connection states (simplified: the simulated wire is lossless and
// in-order, so no retransmission machinery is modelled).
type tcpState int

const (
	tcpSynSent tcpState = iota
	tcpEstablished
	tcpClosed
)

// TCPListener accepts incoming connections on a port.
type TCPListener struct {
	stack   *Stack
	backlog *sim.Queue[*TCPConn]
	pass    *urpc.Pass // PollAccept's checks of the stack's link
	link    *FrameLink // the link pass checks
}

// ListenTCP binds a listening socket.
func (s *Stack) ListenTCP(port uint16) *TCPListener {
	if s.tcp[port] != nil {
		panic(fmt.Sprintf("netstack: tcp port %d already bound", port))
	}
	l := &TCPListener{stack: s, backlog: sim.NewQueue[*TCPConn](s.e)}
	l.pass = (&urpc.PassPlan{Sleep: acceptPollGap}).NewPass(l, nil, nil)
	s.tcp[port] = l
	return l
}

// TryAccept returns an established connection if one is pending.
func (l *TCPListener) TryAccept(p *sim.Proc) (*TCPConn, bool) {
	l.stack.PumpReady(p)
	return l.backlog.TryPop()
}

// acceptPollGap is PollAccept's sleep between empty polls.
const acceptPollGap = 300

// PollAccept returns the next established connection: it runs TryAccept
// every acceptPollGap cycles until one succeeds. While the stack drains a
// link, its checks of the link run as steps (urpc.Pass), which the engine
// skips while the link, the inbox and the backlog stay empty; the proc
// resumes for a frame, a missed probe, or a queued frame or connection.
// The link's ring line is watched, and Inject and the backlog nudge the
// proc. Under a SetPoller poller, which is proc code, every poll resumes it.
func (l *TCPListener) PollAccept(p *sim.Proc) *TCPConn {
	s := l.stack
	s.acceptor = p
	ps := l.pass
	ps.At = urpc.PassStart
	for {
		var c *TCPConn
		ok := false
		switch ps.Next(p) {
		case urpc.PassBegin: // no link: the poller is proc code
			c, ok = l.TryAccept(p)
		case urpc.PassRing: // a frame on the link, or its probe missed
			buf := s.takeRx()
			if f, got := ps.DrainBulk(p, s.link.bulk, buf); got {
				s.queue(f, true)
				s.PumpReady(p) // the poller's next checks, then the inbox
			} else {
				s.putRx(buf)
				s.handleInbox(p)
			}
			c, ok = l.backlog.TryPop()
		case urpc.PassService: // a frame or a connection is queued
			s.handleInbox(p)
			c, ok = l.backlog.TryPop()
		}
		if ok {
			return c
		}
		p.Sleep(acceptPollGap)
		ps.At = urpc.PassStart
	}
}

// Begin takes the stack's link from this pass on if it changed, and
// reports whether the stack has none: its poller then runs in proc code.
func (l *TCPListener) Begin() bool {
	s := l.stack
	if l.link != s.link {
		l.link = s.link
		var rings []*urpc.Channel
		if s.link != nil {
			rings = []*urpc.Channel{s.link.bulk.Ring()}
		}
		l.pass.SetRings(rings)
	}
	return s.link == nil
}

// Service reports whether a TryAccept would find a frame or a connection
// queued.
func (l *TCPListener) Service() bool { return l.stack.inbox.Len() > 0 || l.backlog.Len() > 0 }

// Busy reports false; the loop never parks.
func (l *TCPListener) Busy() bool { return false }

// Quiet lets the engine skip polls while the stack drains the link the
// pass checks and nothing is queued, unless touch tracking is on.
func (l *TCPListener) Quiet() (bool, sim.Time) {
	s := l.stack
	return s.link != nil && l.link == s.link && !l.Service() && !s.sys.Tracking(), sim.Forever
}

// TCPConn is one end of an established connection.
type TCPConn struct {
	stack    *Stack
	key      connKey
	state    tcpState
	seq, ack uint32
	// inbox is only pushed and try-popped, never blocked on, so it lives in
	// the connection, bound to no engine.
	inbox      sim.Queue[[]byte]
	peerClosed bool
	listener   *TCPListener // server side: where to queue on establish
}

func (c *TCPConn) sendSeg(p *sim.Proc, flags uint8, payload []byte) {
	p.Sleep(costTCPTx)
	h := TCPHeader{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     c.seq,
		Ack:     c.ack,
		Flags:   flags,
		Window:  0xffff,
	}
	b := h.Marshal(c.stack.txBuf())
	c.stack.sendIP(p, ProtoTCP, c.key.remote, append(b, payload...))
	c.seq += uint32(len(payload))
	if flags&(TCPSyn|TCPFin) != 0 {
		c.seq++
	}
}

// Dial opens a connection to dst:port, blocking (and pumping the stack)
// until the handshake completes.
func (s *Stack) Dial(p *sim.Proc, dst IPAddr, port uint16) *TCPConn {
	s.nextEph++
	c := &TCPConn{
		stack: s,
		key:   connKey{localPort: s.nextEph, remotePort: port, remote: dst},
		state: tcpSynSent,
		seq:   uint32(s.nextEph) * 7919,
	}
	s.conns[c.key] = c
	c.sendSeg(p, TCPSyn, nil)
	for c.state == tcpSynSent {
		s.Pump(p)
	}
	return c
}

// Send transmits data, segmenting at the MSS.
func (c *TCPConn) Send(p *sim.Proc, data []byte) {
	p.Sleep(costSockOp)
	for len(data) > 0 {
		n := len(data)
		if n > MSS {
			n = MSS
		}
		c.sendSeg(p, TCPAck|TCPPsh, data[:n])
		data = data[n:]
	}
}

// Recv returns the next received segment payload; ok is false once the peer
// has closed and all data is drained.
func (c *TCPConn) Recv(p *sim.Proc) ([]byte, bool) {
	p.Sleep(costSockOp)
	for {
		if b, ok := c.inbox.TryPop(); ok {
			return b, true
		}
		if c.peerClosed {
			return nil, false
		}
		c.stack.Pump(p)
	}
}

// RecvTimeout is Recv with a deadline: it returns ok=false either when the
// peer has closed or when no data arrives within d cycles (lost frames under
// overload would otherwise wedge the caller forever).
func (c *TCPConn) RecvTimeout(p *sim.Proc, d sim.Time) ([]byte, bool) {
	p.Sleep(costSockOp)
	deadline := p.Now() + d
	for {
		if b, ok := c.inbox.TryPop(); ok {
			return b, true
		}
		if c.peerClosed || p.Now() >= deadline {
			return nil, false
		}
		if !c.stack.PumpReady(p) {
			p.Sleep(stackPollGap)
		}
	}
}

// Close sends a FIN and marks the connection closed. Once both sides have
// closed, the connection is removed from the stack's demux table.
func (c *TCPConn) Close(p *sim.Proc) {
	if c.state == tcpClosed {
		return
	}
	c.sendSeg(p, TCPFin|TCPAck, nil)
	c.state = tcpClosed
	if c.peerClosed {
		delete(c.stack.conns, c.key)
	}
}

// handleTCP is the stack's TCP demultiplexer.
func (s *Stack) handleTCP(p *sim.Proc, src IPAddr, h TCPHeader, payload []byte) {
	key := connKey{localPort: h.DstPort, remotePort: h.SrcPort, remote: src}
	if c, ok := s.conns[key]; ok {
		c.handleSeg(p, h, payload)
		return
	}
	// New connection?
	if l, ok := s.tcp[h.DstPort]; ok && h.Flags&TCPSyn != 0 && h.Flags&TCPAck == 0 {
		c := &TCPConn{
			stack:    s,
			key:      key,
			state:    tcpEstablished, // server considers it live on 3rd ack; simplified
			seq:      uint32(h.DstPort) * 104729,
			ack:      h.Seq + 1,
			listener: l,
		}
		s.conns[key] = c
		c.sendSeg(p, TCPSyn|TCPAck, nil)
		return
	}
	// Stray segment: RST per spec; dropped silently here.
}

func (c *TCPConn) handleSeg(p *sim.Proc, h TCPHeader, payload []byte) {
	switch {
	case h.Flags&TCPSyn != 0 && h.Flags&TCPAck != 0 && c.state == tcpSynSent:
		// Client side: handshake complete once the ack is sent; Dial
		// returns then.
		c.ack = h.Seq + 1
		c.sendSeg(p, TCPAck, nil)
		c.state = tcpEstablished
		return
	case h.Flags&TCPAck != 0 && c.listener != nil:
		// Server side: the third handshake ack; hand to the acceptor once.
		l := c.listener
		c.listener = nil
		l.backlog.Push(c)
		c.stack.nudge()
	}
	if len(payload) > 0 {
		c.ack = h.Seq + uint32(len(payload))
		c.inbox.Push(append([]byte(nil), payload...))
	}
	if h.Flags&TCPFin != 0 {
		c.ack = h.Seq + 1
		c.peerClosed = true
		if c.state != tcpClosed {
			c.sendSeg(p, TCPAck, nil)
		} else {
			delete(c.stack.conns, c.key)
		}
	}
}
