package netstack

import (
	"fmt"

	"multikernel/internal/sim"
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
	port    uint16
	backlog *sim.Queue[*TCPConn]
}

// ListenTCP binds a listening socket.
func (s *Stack) ListenTCP(port uint16) *TCPListener {
	if s.tcp[port] != nil {
		panic(fmt.Sprintf("netstack: tcp port %d already bound", port))
	}
	l := &TCPListener{stack: s, port: port, backlog: sim.NewQueue[*TCPConn](s.e)}
	s.tcp[port] = l
	return l
}

// Accept returns the next established connection, pumping the stack while
// waiting.
func (l *TCPListener) Accept(p *sim.Proc) *TCPConn {
	p.Sleep(costSockOp)
	for {
		if c, ok := l.backlog.TryPop(); ok {
			return c
		}
		l.stack.Pump(p)
	}
}

// TryAccept returns an established connection if one is pending.
func (l *TCPListener) TryAccept(p *sim.Proc) (*TCPConn, bool) {
	l.stack.PumpReady(p)
	return l.backlog.TryPop()
}

// TCPConn is one end of an established connection.
type TCPConn struct {
	stack      *Stack
	key        connKey
	state      tcpState
	seq, ack   uint32
	inbox      *sim.Queue[[]byte]
	estab      *sim.Future[bool]
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
	l4 := h.Marshal(make([]byte, 0, TCPHeaderLen+len(payload)))
	l4 = append(l4, payload...)
	c.stack.sendIP(p, ProtoTCP, c.key.remote, l4)
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
		inbox: sim.NewQueue[[]byte](s.e),
		estab: sim.NewFuture[bool](s.e),
	}
	s.conns[c.key] = c
	c.sendSeg(p, TCPSyn, nil)
	for !c.estab.Done() {
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

// RecvN collects exactly n bytes (concatenating segments); it returns false
// if the peer closes first.
func (c *TCPConn) RecvN(p *sim.Proc, n int) ([]byte, bool) {
	var buf []byte
	for len(buf) < n {
		b, ok := c.Recv(p)
		if !ok {
			return buf, false
		}
		buf = append(buf, b...)
	}
	return buf, true
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
			inbox:    sim.NewQueue[[]byte](s.e),
			estab:    sim.NewFuture[bool](s.e),
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
		// Client side: handshake complete.
		c.ack = h.Seq + 1
		c.state = tcpEstablished
		c.sendSeg(p, TCPAck, nil)
		c.estab.Complete(true)
		return
	case h.Flags&TCPAck != 0 && c.listener != nil:
		// Server side: the third handshake ack; hand to the acceptor once.
		l := c.listener
		c.listener = nil
		l.backlog.Push(c)
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
