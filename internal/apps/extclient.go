package apps

import (
	"multikernel/internal/netstack"
	"multikernel/internal/sim"
)

// This file models the external load-generating machines of §5.4 (the
// httperf client cluster and the ipbench UDP generators). They sit on the
// far end of the simulated Ethernet wire and cost the system under test
// nothing: only the frames they emit matter.

// UDPEchoGen is an open-loop UDP load generator implementing netstack.Port.
type UDPEchoGen struct {
	Wire    *netstack.Wire
	FromA   bool // which wire end the generator occupies
	SrcIP   netstack.IPAddr
	DstIP   netstack.IPAddr
	DstMAC  netstack.MAC
	DstPort uint16
	Payload int

	Received uint64
	FirstRx  sim.Time
	LastRx   sim.Time

	eng *sim.Engine
}

// Deliver counts an echoed packet.
func (g *UDPEchoGen) Deliver(f netstack.Frame) {
	if g.Received == 0 && g.eng != nil {
		g.FirstRx = g.eng.Now()
	}
	g.Received++
	if g.eng != nil {
		g.LastRx = g.eng.Now()
	}
}

// Run emits packets every interval cycles until the engine time limit; call
// within RunUntil.
func (g *UDPEchoGen) Run(e *sim.Engine, interval sim.Time, count int) {
	g.eng = e
	payload := make([]byte, g.Payload)
	var tick func()
	sent := 0
	tick = func() {
		if sent >= count {
			return
		}
		sent++
		f := netstack.BuildUDPFrame(netstack.MAC{0xee}, g.DstMAC, g.SrcIP, g.DstIP, 9999, g.DstPort, payload)
		g.Wire.Transmit(g.FromA, f)
		e.After(interval, tick)
	}
	e.After(0, tick)
}

// connState tracks one external HTTP connection.
type connState int

const (
	connSynSent connState = iota
	connAwaitResponse
	connDone
)

type extConn struct {
	localPort uint16
	state     connState
	seq, ack  uint32
	activity  int // frames seen; watchdog detects wedged connections
	idleTicks int
}

// HTTPLoadGen is a closed-loop external HTTP client fleet: `Concurrency`
// connections each repeatedly connect, issue one GET and read the response
// to completion, mimicking httperf across a client cluster.
type HTTPLoadGen struct {
	Wire   *netstack.Wire
	FromA  bool
	SrcIP  netstack.IPAddr
	DstIP  netstack.IPAddr
	DstMAC netstack.MAC
	Path   string

	Concurrency int
	Completed   uint64
	BytesIn     uint64

	conns    map[uint16]*extConn
	nextPort uint16
	stopped  bool
}

// watchdogPeriod is how often stalled connections are checked. Frames lost
// to receive-ring or link overflow would otherwise wedge a connection
// forever; like httperf, the client times out and retries with a fresh
// connection.
const watchdogPeriod = 3_000_000

// Start launches the client fleet.
func (g *HTTPLoadGen) Start(e *sim.Engine) {
	g.conns = make(map[uint16]*extConn)
	g.nextPort = 40000
	for i := 0; i < g.Concurrency; i++ {
		g.openConn()
	}
	var tick func()
	tick = func() {
		if g.stopped {
			return
		}
		var stale []uint16
		for port, c := range g.conns {
			if c.activity == 0 {
				c.idleTicks++
				if c.idleTicks >= 8 {
					stale = append(stale, port)
				}
			} else {
				c.activity = 0
				c.idleTicks = 0
			}
		}
		for _, port := range stale {
			delete(g.conns, port)
			g.openConn()
		}
		e.After(watchdogPeriod, tick)
	}
	e.After(watchdogPeriod, tick)
}

// Stop ceases opening new connections.
func (g *HTTPLoadGen) Stop() { g.stopped = true }

func (g *HTTPLoadGen) openConn() {
	if g.stopped {
		return
	}
	g.nextPort++
	c := &extConn{localPort: g.nextPort, state: connSynSent, seq: uint32(g.nextPort) * 31}
	g.conns[c.localPort] = c
	g.sendSeg(c, netstack.TCPSyn, nil)
}

func (g *HTTPLoadGen) sendSeg(c *extConn, flags uint8, payload []byte) {
	h := netstack.TCPHeader{
		SrcPort: c.localPort, DstPort: 80,
		Seq: c.seq, Ack: c.ack, Flags: flags, Window: 0xffff,
	}
	f := netstack.BuildTCPFrame(netstack.MAC{0xcc}, g.DstMAC, g.SrcIP, g.DstIP, h, payload)
	g.Wire.Transmit(g.FromA, f)
	c.seq += uint32(len(payload))
	if flags&(netstack.TCPSyn|netstack.TCPFin) != 0 {
		c.seq++
	}
}

// Deliver implements netstack.Port: it advances the owning connection's
// state machine.
func (g *HTTPLoadGen) Deliver(f netstack.Frame) {
	_, ipb, err := netstack.ParseEth(f)
	if err != nil {
		return
	}
	ip, body, err := netstack.ParseIPv4(ipb)
	if err != nil || ip.Protocol != netstack.ProtoTCP {
		return
	}
	h, payload, err := netstack.ParseTCP(body)
	if err != nil {
		return
	}
	c := g.conns[h.DstPort]
	if c == nil {
		return
	}
	c.activity++
	switch {
	case h.Flags&netstack.TCPSyn != 0 && h.Flags&netstack.TCPAck != 0 && c.state == connSynSent:
		c.ack = h.Seq + 1
		c.state = connAwaitResponse
		g.sendSeg(c, netstack.TCPAck, nil) // complete handshake
		g.sendSeg(c, netstack.TCPAck|netstack.TCPPsh, BuildRequest(g.Path))
		return
	}
	if len(payload) > 0 {
		c.ack = h.Seq + uint32(len(payload))
		g.BytesIn += uint64(len(payload))
	}
	if h.Flags&netstack.TCPFin != 0 && c.state == connAwaitResponse {
		c.ack = h.Seq + 1
		c.state = connDone
		g.sendSeg(c, netstack.TCPFin|netstack.TCPAck, nil)
		delete(g.conns, c.localPort)
		g.Completed++
		g.openConn() // closed loop: immediately issue the next request
	}
}
