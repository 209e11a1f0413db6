package main

import (
	"fmt"
	"os"
	"sort"

	"multikernel/internal/apps"
	"multikernel/internal/netstack"
	"multikernel/internal/sim"
)

// webFleet is webdb's closed-loop external client fleet, modelled on
// apps.HTTPLoadGen: it sits on the far end of the simulated Ethernet wire,
// costs the system under test nothing, and keeps a fixed number of
// connections each doing connect, one GET, read to FIN, reconnect. Unlike
// HTTPLoadGen it chooses a seeded path per request, times each request from
// SYN to FIN, and checks every response body against the table's contents.
type webFleet struct {
	wire   *netstack.Wire
	eng    *sim.Engine
	rng    *sim.RNG
	srcIP  netstack.IPAddr
	dstIP  netstack.IPAddr
	dstMAC netstack.MAC
	rec    *opRec

	conns    map[uint16]*webConn
	nextPort uint16
	stopped  bool // no new connections; in-flight ones finish
	reported int  // failures reported on stderr
}

type webConn struct {
	port      uint16
	open      bool // handshake complete, response pending
	seq, ack  uint32
	path      string
	want      string // expected response body
	start     sim.Time
	body      []byte
	activity  int // frames since the last watchdog tick
	idleTicks int
}

// Ports cycle through [webPortLo, webPortHi): the server forgets a
// connection once both sides closed, long before its port comes round again.
const (
	webPortLo = 40_000
	webPortHi = 65_000
	// webWatchdog is how often wedged connections are looked for; like
	// httperf, a connection idle for 8 ticks is abandoned (a failed op).
	webWatchdog = 3_000_000
)

func (f *webFleet) start(n int) {
	f.conns = map[uint16]*webConn{}
	f.nextPort = webPortLo
	for i := 0; i < n; i++ {
		f.open()
	}
	var tick func()
	tick = func() {
		var stale []int
		for port, c := range f.conns {
			if c.activity > 0 {
				c.activity, c.idleTicks = 0, 0
			} else if c.idleTicks++; c.idleTicks >= 8 {
				stale = append(stale, int(port))
			}
		}
		// Reopen in port order, not map order: open draws from the seeded
		// RNG, and the run must stay a function of the seed.
		sort.Ints(stale)
		for _, port := range stale {
			c := f.conns[uint16(port)]
			delete(f.conns, uint16(port))
			f.rec.add(c.start, f.eng.Now(), false)
			f.fail("webdb: %s timed out", c.path)
			f.open()
		}
		if !f.stopped || len(f.conns) > 0 {
			f.eng.After(webWatchdog, tick)
		}
	}
	f.eng.After(webWatchdog, tick)
}

// open starts the next request: 75% point reads, 25% range reads.
func (f *webFleet) open() {
	if f.stopped {
		return
	}
	port := f.nextPort
	if f.nextPort++; f.nextPort == webPortHi {
		f.nextPort = webPortLo
	}
	c := &webConn{port: port, seq: uint32(port) * 31, start: f.eng.Now()}
	if f.rng.Intn(4) > 0 {
		key := uint64(f.rng.Intn(webRows))
		c.path = fmt.Sprintf("/db/%d", key)
		c.want = fmt.Sprintf("{\"key\":%d,\"value\":%d}", key, rowValue(key))
	} else {
		lo := uint64(f.rng.Intn(webRows - webRangeLen))
		var sum uint64
		for k := lo; k < lo+webRangeLen; k++ {
			sum += rowValue(k)
		}
		c.path = fmt.Sprintf("/range/%d-%d", lo, lo+webRangeLen)
		c.want = fmt.Sprintf("{\"count\":%d,\"sum\":%d}", webRangeLen, sum)
	}
	f.conns[port] = c
	f.send(c, netstack.TCPSyn, nil)
}

func (f *webFleet) send(c *webConn, flags uint8, payload []byte) {
	h := netstack.TCPHeader{SrcPort: c.port, DstPort: 80, Seq: c.seq, Ack: c.ack, Flags: flags, Window: 0xffff}
	f.wire.Transmit(false, netstack.BuildTCPFrame(netstack.MAC{0xcc}, f.dstMAC, f.srcIP, f.dstIP, h, payload))
	c.seq += uint32(len(payload))
	if flags&(netstack.TCPSyn|netstack.TCPFin) != 0 {
		c.seq++
	}
}

// fail reports a failed request on stderr; the failure itself is counted by
// the op recorder.
func (f *webFleet) fail(format string, args ...any) {
	if f.reported < 20 {
		f.reported++
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// Deliver implements netstack.Port: it advances the owning connection.
func (f *webFleet) Deliver(fr netstack.Frame) {
	_, ipb, err := netstack.ParseEth(fr)
	if err != nil {
		return
	}
	ip, seg, err := netstack.ParseIPv4(ipb)
	if err != nil || ip.Protocol != netstack.ProtoTCP {
		return
	}
	h, payload, err := netstack.ParseTCP(seg)
	if err != nil {
		return
	}
	c := f.conns[h.DstPort]
	if c == nil {
		return
	}
	c.activity++
	if h.Flags&netstack.TCPSyn != 0 && h.Flags&netstack.TCPAck != 0 && !c.open {
		c.ack = h.Seq + 1
		c.open = true
		f.send(c, netstack.TCPAck, nil)
		f.send(c, netstack.TCPAck|netstack.TCPPsh, apps.BuildRequest(c.path))
		return
	}
	if len(payload) > 0 {
		c.ack = h.Seq + uint32(len(payload))
		c.body = append(c.body, payload...)
	}
	if h.Flags&netstack.TCPFin != 0 && c.open {
		c.ack = h.Seq + 1
		f.send(c, netstack.TCPFin|netstack.TCPAck, nil)
		delete(f.conns, c.port)
		status, body, ok := apps.ParseResponse(c.body)
		ok = ok && string(body) == c.want
		if !ok {
			f.fail("webdb: %s answered %q %q, want %q", c.path, status, body, c.want)
		}
		f.rec.add(c.start, f.eng.Now(), ok)
		f.open()
	}
}
