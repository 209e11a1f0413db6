package netstack

import "multikernel/internal/sim"

// Blocking receive and accept calls that only the tests make; the modelled
// servers and clients poll with TryAccept and their own loops.

// TryRecv returns a queued datagram without blocking, after processing any
// pending frames.
func (u *UDPSock) TryRecv(p *sim.Proc) (Datagram, bool) {
	u.stack.PumpReady(p)
	return u.inbox.TryPop()
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
