package netstack

import (
	"bytes"
	"fmt"

	"multikernel/internal/cache"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/urpc"
)

// Protocol-processing software costs in cycles (lwIP-style library stack).
const (
	costEthRx  = 90
	costIPRx   = 160
	costUDPRx  = 110
	costTCPRx  = 260
	costEthTx  = 80
	costIPTx   = 170
	costUDPTx  = 100
	costTCPTx  = 240
	costSockOp = 60
)

// Stack is one lwIP-like stack instance, linked as a library into the
// application domain on a single core (paper §5.4). Frames arrive either
// from a NIC (via a Driver) or from a URPC link to another stack.
type Stack struct {
	Name string
	IP   IPAddr
	MAC  MAC

	e    *sim.Engine
	sys  *cache.System
	core topo.CoreID

	udp    map[uint16]*UDPSock
	tcp    map[uint16]*TCPListener
	conns  map[connKey]*TCPConn
	out    func(p *sim.Proc, f Frame) // transmit path
	poller func(p *sim.Proc) bool     // pulls frames from the link into inbox
	link   *FrameLink                 // the link poller drains; nil for SetPoller's
	inbox  *sim.Queue[rxFrame]
	// The stack's own frame buffers not in use: receive buffers for frames
	// read off the link, transmit buffers for frames being built.
	rxFree, txFree []Frame
	// acceptor is the proc in PollAccept, whose skipped steps read the
	// inbox, the backlogs and the link: a change to any nudges it.
	acceptor *sim.Proc
	nextEph  uint16
	ipID     uint16
}

// stackPollGap is the idle polling interval of blocking socket operations.
const stackPollGap = 250

type connKey struct {
	localPort, remotePort uint16
	remote                IPAddr
}

// NewStack creates a stack bound to a core.
func NewStack(e *sim.Engine, sys *cache.System, name string, core topo.CoreID, ip IPAddr) *Stack {
	var mac MAC
	mac[0] = 0x02
	mac[5] = byte(core)
	return &Stack{
		Name:    name,
		IP:      ip,
		MAC:     mac,
		e:       e,
		sys:     sys,
		core:    core,
		udp:     make(map[uint16]*UDPSock),
		tcp:     make(map[uint16]*TCPListener),
		conns:   make(map[connKey]*TCPConn),
		inbox:   sim.NewQueue[rxFrame](e),
		nextEph: 32768,
	}
}

// SetOutput installs the transmit function (to a NIC driver link or a URPC
// loopback link). The frame passed to fn is valid only during the call: the
// stack reuses its buffer.
func (s *Stack) SetOutput(fn func(p *sim.Proc, f Frame)) { s.out = fn }

// SetPoller installs the function blocking socket operations use to pull
// frames from the underlying link into the stack. ConnectLoopback and
// NewDriver install one automatically; custom configurations (e.g. a merged
// driver/app loop modelling an in-kernel stack) set their own.
func (s *Stack) SetPoller(fn func(p *sim.Proc) bool) {
	s.poller, s.link = fn, nil
	s.nudge()
}

// Inject queues a received frame into the stack (engine or proc context).
// The frame belongs to the stack until it is handled: the caller must not
// change it before then.
func (s *Stack) Inject(f Frame) { s.queue(f, false) }

// rxFrame is a queued received frame; own marks a receive buffer of the
// stack's, which goes back to rxFree once the frame is handled.
type rxFrame struct {
	f   Frame
	own bool
}

func (s *Stack) queue(f Frame, own bool) {
	s.inbox.Push(rxFrame{f, own})
	s.nudge()
}

// takeRx takes an empty receive buffer of the stack's own for a frame read
// off the link; queue the frame read into it as own, or give it back with
// putRx.
func (s *Stack) takeRx() Frame {
	n := len(s.rxFree)
	if n == 0 {
		return make(Frame, 0, linkBufLines*memory.LineSize)
	}
	f := s.rxFree[n-1]
	s.rxFree = s.rxFree[:n-1]
	return f
}

func (s *Stack) putRx(f Frame) { s.rxFree = append(s.rxFree, f[:0]) }

// nudge tells PollAccept's proc that a queue or the link its skipped steps
// read changed.
func (s *Stack) nudge() {
	if s.acceptor != nil {
		s.acceptor.Nudge()
	}
}

// Pump processes at least one received frame, polling the underlying link
// until one arrives. The application's proc drives the stack, as with a
// library stack.
func (s *Stack) Pump(p *sim.Proc) {
	for {
		if fr, ok := s.inbox.TryPop(); ok {
			s.handle(p, fr)
			return
		}
		if s.poller != nil {
			if !s.poller(p) {
				p.Sleep(stackPollGap)
			}
			continue
		}
		s.handle(p, s.inbox.Pop(p))
		return
	}
}

// PumpReady polls the link and processes pending frames without blocking; it
// reports whether any were handled.
func (s *Stack) PumpReady(p *sim.Proc) bool {
	if s.poller != nil {
		s.poller(p)
	}
	return s.handleInbox(p)
}

// handleInbox processes the queued frames; it reports whether there were
// any.
func (s *Stack) handleInbox(p *sim.Proc) bool {
	any := false
	for {
		fr, ok := s.inbox.TryPop()
		if !ok {
			return any
		}
		any = true
		s.handle(p, fr)
	}
}

// handle processes a dequeued frame, then reuses its buffer if it is the
// stack's own: nothing keeps a frame past its handling.
func (s *Stack) handle(p *sim.Proc, fr rxFrame) {
	s.handleFrame(p, fr.f)
	if fr.own {
		s.putRx(fr.f)
	}
}

func (s *Stack) handleFrame(p *sim.Proc, f Frame) {
	p.Sleep(costEthRx)
	eth, ipb, err := ParseEth(f)
	if err != nil || eth.EtherType != EtherTypeIPv4 {
		return
	}
	p.Sleep(costIPRx)
	ip, body, err := ParseIPv4(ipb)
	if err != nil || ip.Dst != s.IP {
		return
	}
	switch ip.Protocol {
	case ProtoUDP:
		p.Sleep(costUDPRx)
		udp, payload, err := ParseUDP(body)
		if err != nil {
			return
		}
		if sock := s.udp[udp.DstPort]; sock != nil {
			sock.deliver(Datagram{Src: ip.Src, SrcPort: udp.SrcPort, Payload: bytes.Clone(payload)})
		}
	case ProtoTCP:
		p.Sleep(costTCPRx)
		tcp, payload, err := ParseTCP(body)
		if err != nil {
			return
		}
		s.handleTCP(p, ip.Src, tcp, payload)
	}
}

// txBuf takes a transmit buffer of the stack's own. It holds room for the
// Ethernet and IPv4 headers, which sendIP writes in front of the transport
// header and payload that the caller appends.
func (s *Stack) txBuf() []byte {
	var b []byte
	if n := len(s.txFree); n > 0 {
		b, s.txFree = s.txFree[n-1], s.txFree[:n-1]
	} else {
		b = make([]byte, 0, EthHeaderLen+IPv4HeaderLen+TCPHeaderLen+MSS)
	}
	return b[:EthHeaderLen+IPv4HeaderLen]
}

// sendIP fills in the Ethernet and IPv4 headers of b, a txBuf holding an
// IPv4 payload, transmits it and takes the buffer back.
func (s *Stack) sendIP(p *sim.Proc, proto uint8, dst IPAddr, b []byte) {
	if s.out == nil {
		panic(fmt.Sprintf("netstack: stack %s has no output", s.Name))
	}
	s.ipID++
	var dstMAC MAC // resolved by the link layer below us
	eth := EthHeader{Dst: dstMAC, Src: s.MAC, EtherType: EtherTypeIPv4}
	ip := IPv4Header{Protocol: proto, Src: s.IP, Dst: dst, ID: s.ipID,
		Length: uint16(len(b) - EthHeaderLen)}
	ip.Marshal(eth.Marshal(b[:0]))
	p.Sleep(costEthTx + costIPTx)
	s.out(p, b)
	s.txFree = append(s.txFree, b)
}

// Datagram is a received UDP message.
type Datagram struct {
	Src     IPAddr
	SrcPort uint16
	Payload []byte
}

// UDPSock is a bound UDP socket.
type UDPSock struct {
	stack *Stack
	port  uint16
	inbox *sim.Queue[Datagram]
}

// BindUDP binds a UDP socket on the given port.
func (s *Stack) BindUDP(port uint16) *UDPSock {
	if s.udp[port] != nil {
		panic(fmt.Sprintf("netstack: port %d already bound", port))
	}
	sock := &UDPSock{stack: s, port: port, inbox: sim.NewQueue[Datagram](s.e)}
	s.udp[port] = sock
	return sock
}

func (u *UDPSock) deliver(d Datagram) { u.inbox.Push(d) }

// SendTo transmits a datagram.
func (u *UDPSock) SendTo(p *sim.Proc, dst IPAddr, dstPort uint16, payload []byte) {
	p.Sleep(costSockOp + costUDPTx)
	udp := UDPHeader{SrcPort: u.port, DstPort: dstPort, Length: uint16(UDPHeaderLen + len(payload))}
	b := udp.Marshal(u.stack.txBuf())
	u.stack.sendIP(p, ProtoUDP, dst, append(b, payload...))
}

// Recv returns the next datagram, pumping the stack while waiting.
func (u *UDPSock) Recv(p *sim.Proc) Datagram {
	p.Sleep(costSockOp)
	for {
		if d, ok := u.inbox.TryPop(); ok {
			return d
		}
		u.stack.Pump(p)
	}
}

// ---------------------------------------------------------------------------
// URPC frame link: the multikernel's loopback path (Table 4). Frames move
// between two stacks on different cores as URPC descriptor messages plus a
// shared buffer pool — no kernel crossings, no shared locks.

// linkSlots is the number of in-flight frames per direction.
const linkSlots = 16

// linkBufLines fits a 1500-byte frame.
const linkBufLines = 24

// FrameLink is one direction of a URPC loopback connection: a thin framing
// layer over a urpc.BulkChannel, which supplies the shared buffer pool, the
// descriptor ring and the line-granularity first-touch transfers. Receive
// prefetching is on — frames are read as sequential pool scans, the case the
// stride prefetcher exists for.
type FrameLink struct {
	bulk *urpc.BulkChannel
}

// NewFrameLink builds a frame channel from one core to another, with the
// buffer pool homed at the receiver (SKB placement advice).
func NewFrameLink(sys *cache.System, from, to topo.CoreID) *FrameLink {
	home := sys.Machine().Socket(to)
	return &FrameLink{
		bulk: urpc.NewBulk(sys, from, to, urpc.BulkOptions{
			Slots:     linkSlots,
			SlotLines: linkBufLines,
			Home:      int(home),
			Prefetch:  true,
		}),
	}
}

// Send writes the frame into the next pool buffer and sends its descriptor;
// the frame is not kept past the call.
func (l *FrameLink) Send(p *sim.Proc, f Frame) {
	l.bulk.Send(p, f)
}

// TryRecv polls for a frame, which it reads into dst.
func (l *FrameLink) TryRecv(p *sim.Proc, dst Frame) (Frame, bool) {
	return l.bulk.Recv(p, urpc.Poll, dst)
}

// ConnectLoopback joins two stacks with a pair of frame links and returns a
// pump function per side that the owning procs must call to move frames.
// Each stack's output becomes a FrameLink send; received descriptors are
// injected on Pump.
func ConnectLoopback(a, b *Stack) (pumpA, pumpB func(p *sim.Proc) bool) {
	ab := NewFrameLink(a.sys, a.core, b.core)
	ba := NewFrameLink(b.sys, b.core, a.core)
	a.SetOutput(func(p *sim.Proc, f Frame) { ab.Send(p, f) })
	b.SetOutput(func(p *sim.Proc, f Frame) { ba.Send(p, f) })
	a.pollLink(ba)
	b.pollLink(ab)
	return a.PumpReady, b.PumpReady
}

// pollLink makes the stack's poller move frames from link into its inbox.
func (s *Stack) pollLink(link *FrameLink) {
	s.link = link
	s.nudge()
	s.poller = func(p *sim.Proc) bool {
		any := false
		for {
			buf := s.takeRx()
			f, ok := link.TryRecv(p, buf)
			if !ok {
				s.putRx(buf)
				return any
			}
			s.queue(f, true)
			any = true
		}
	}
}

// ---------------------------------------------------------------------------
// Driver: the separate e1000 driver domain (paper §5.4), polling the NIC on
// its own core and relaying frames to/from an application stack over URPC.

// Driver runs a NIC on a dedicated core and bridges it to a Stack.
type Driver struct {
	nic    *NIC
	core   topo.CoreID
	toApp  *FrameLink
	toNIC  *FrameLink
	proc   *sim.Proc
	pass   *urpc.Pass // the NIC's next descriptor, then the transmit link
	rx, tx Frame      // the loop's buffers: a frame off the NIC, one to send
}

// NewDriver starts the driver loop on the given core, bridging nic to the
// application stack app.
func NewDriver(e *sim.Engine, sys *cache.System, nic *NIC, core topo.CoreID, app *Stack) *Driver {
	d := &Driver{
		nic:   nic,
		core:  core,
		toApp: NewFrameLink(sys, core, app.core),
		toNIC: NewFrameLink(sys, app.core, core),
		rx:    make(Frame, 0, nicBufLines*memory.LineSize),
		tx:    make(Frame, 0, linkBufLines*memory.LineSize),
	}
	plan := &urpc.PassPlan{Sleep: drvIdleGap, Park: drvIdleSweeps}
	lead := &urpc.PassLead{Sys: sys, Core: core, Line: nic.nextRx}
	d.pass = plan.NewPass(d, lead, []*urpc.Channel{d.toNIC.bulk.Ring()})
	app.SetOutput(func(p *sim.Proc, f Frame) {
		d.toNIC.Send(p, f)
		e.Wake(d.proc)
	})
	app.pollLink(d.toApp)
	d.proc = e.Spawn(fmt.Sprintf("drv-%s", nic.Name), func(p *sim.Proc) {
		p.SetDaemon(true)
		d.loop(p)
	})
	nic.OnInterrupt(func() { e.Wake(d.proc) })
	return d
}

// The driver loop sleeps drvIdleGap cycles between empty sweeps of the NIC
// and its transmit link and parks in the drvIdleSweeps-th. It charges no
// loop cost.
const (
	drvIdleSweeps = 30
	drvIdleGap    = 150
)

// loop polls the NIC's next receive descriptor (the pass's lead), then the
// transmit link, as steps (urpc.Pass); the proc does only what can block.
func (d *Driver) loop(p *sim.Proc) {
	ps := d.pass
	for {
		switch ps.Next(p) {
		case urpc.PassBegin: // a frame arrived, or the descriptor's probe missed
			if f := d.nic.Poll(p, d.core, d.rx); f != nil {
				d.toApp.Send(p, f)
				ps.Progress = true
			}
			ps.At, ps.Ring = urpc.PassRing, 0
		case urpc.PassRing: // a frame to send, or the link's probe missed
			if f, ok := ps.DrainBulk(p, d.toNIC.bulk, d.tx); ok {
				if err := d.nic.Transmit(p, d.core, f); err != nil {
					// Ring full: drop, as a real driver would under overload.
					_ = err
				}
			}
			ps.Ring++
		case urpc.PassPark:
			p.Park() // woken by the NIC interrupt or sender wakeups
			ps.Idle = 0
			p.Sleep(d.nic.sys.Machine().Costs.Trap)
			ps.At = urpc.PassStart
		}
	}
}

// Begin reports false: the NIC is the pass's lead.
func (d *Driver) Begin() bool { return false }

// Service reports false: the driver acts only on the NIC and its link.
func (d *Driver) Service() bool { return false }

// Busy reports false: an idle driver parks.
func (d *Driver) Busy() bool { return false }

// Quiet lets the engine skip idle passes unless touch tracking is on. The
// descriptor line and the link's ring line are watched.
func (d *Driver) Quiet() (bool, sim.Time) { return !d.nic.sys.Tracking(), sim.Forever }
