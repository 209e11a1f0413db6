package netstack

import (
	"fmt"

	"multikernel/internal/cache"
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

	udp     map[uint16]*UDPSock
	tcp     map[uint16]*TCPListener
	conns   map[connKey]*TCPConn
	out     func(p *sim.Proc, f Frame) // transmit path
	poller  func(p *sim.Proc) bool     // pulls frames from the link into inbox
	inbox   *sim.Queue[Frame]
	nextEph uint16
	ipID    uint16
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
		inbox:   sim.NewQueue[Frame](e),
		nextEph: 32768,
	}
}

// Core returns the core the stack runs on.
func (s *Stack) Core() topo.CoreID { return s.core }

// SetOutput installs the transmit function (to a NIC driver link or a URPC
// loopback link).
func (s *Stack) SetOutput(fn func(p *sim.Proc, f Frame)) { s.out = fn }

// SetPoller installs the function blocking socket operations use to pull
// frames from the underlying link into the stack. ConnectLoopback and
// NewDriver install one automatically; custom configurations (e.g. a merged
// driver/app loop modelling an in-kernel stack) set their own.
func (s *Stack) SetPoller(fn func(p *sim.Proc) bool) { s.poller = fn }

// Inject queues a received frame into the stack (engine or proc context).
func (s *Stack) Inject(f Frame) { s.inbox.Push(f) }

// Pump processes at least one received frame, polling the underlying link
// until one arrives. The application's proc drives the stack, as with a
// library stack.
func (s *Stack) Pump(p *sim.Proc) {
	for {
		if f, ok := s.inbox.TryPop(); ok {
			s.handleFrame(p, f)
			return
		}
		if s.poller != nil {
			if !s.poller(p) {
				p.Sleep(stackPollGap)
			}
			continue
		}
		f := s.inbox.Pop(p)
		s.handleFrame(p, f)
		return
	}
}

// PumpReady polls the link and processes pending frames without blocking; it
// reports whether any were handled.
func (s *Stack) PumpReady(p *sim.Proc) bool {
	if s.poller != nil {
		s.poller(p)
	}
	any := false
	for {
		f, ok := s.inbox.TryPop()
		if !ok {
			return any
		}
		any = true
		s.handleFrame(p, f)
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
			sock.deliver(Datagram{Src: ip.Src, SrcPort: udp.SrcPort, Payload: payload})
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

// sendIP builds and transmits an IPv4 packet.
func (s *Stack) sendIP(p *sim.Proc, proto uint8, dst IPAddr, l4 []byte) {
	if s.out == nil {
		panic(fmt.Sprintf("netstack: stack %s has no output", s.Name))
	}
	s.ipID++
	var dstMAC MAC // resolved by the link layer below us
	eth := EthHeader{Dst: dstMAC, Src: s.MAC, EtherType: EtherTypeIPv4}
	ip := IPv4Header{Protocol: proto, Src: s.IP, Dst: dst, ID: s.ipID,
		Length: uint16(IPv4HeaderLen + len(l4))}
	b := make([]byte, 0, EthHeaderLen+int(ip.Length))
	b = eth.Marshal(b)
	b = ip.Marshal(b)
	b = append(b, l4...)
	p.Sleep(costEthTx + costIPTx)
	s.out(p, b)
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
	l4 := udp.Marshal(make([]byte, 0, UDPHeaderLen+len(payload)))
	l4 = append(l4, payload...)
	u.stack.sendIP(p, ProtoUDP, dst, l4)
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

// TryRecv returns a queued datagram without blocking, after processing any
// pending frames.
func (u *UDPSock) TryRecv(p *sim.Proc) (Datagram, bool) {
	u.stack.PumpReady(p)
	return u.inbox.TryPop()
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

// Send writes the frame into the next pool buffer and sends its descriptor.
func (l *FrameLink) Send(p *sim.Proc, f Frame) {
	l.bulk.Send(p, f)
}

// TryRecv polls for a frame.
func (l *FrameLink) TryRecv(p *sim.Proc) (Frame, bool) {
	b, ok := l.bulk.Recv(p, urpc.Poll)
	return Frame(b), ok
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
	a.poller = linkPoller(a, ba)
	b.poller = linkPoller(b, ab)
	return a.PumpReady, b.PumpReady
}

// linkPoller moves frames from a link into a stack's inbox.
func linkPoller(s *Stack, link *FrameLink) func(p *sim.Proc) bool {
	return func(p *sim.Proc) bool {
		any := false
		for {
			f, ok := link.TryRecv(p)
			if !ok {
				return any
			}
			s.Inject(f)
			any = true
		}
	}
}

// ---------------------------------------------------------------------------
// Driver: the separate e1000 driver domain (paper §5.4), polling the NIC on
// its own core and relaying frames to/from an application stack over URPC.

// Driver runs a NIC on a dedicated core and bridges it to a Stack.
type Driver struct {
	nic   *NIC
	core  topo.CoreID
	toApp *FrameLink
	toNIC *FrameLink
	proc  *sim.Proc
}

// NewDriver starts the driver loop on the given core, bridging nic to the
// application stack app.
func NewDriver(e *sim.Engine, sys *cache.System, nic *NIC, core topo.CoreID, app *Stack) *Driver {
	d := &Driver{
		nic:   nic,
		core:  core,
		toApp: NewFrameLink(sys, core, app.core),
		toNIC: NewFrameLink(sys, app.core, core),
	}
	app.SetOutput(func(p *sim.Proc, f Frame) {
		d.toNIC.Send(p, f)
		e.Wake(d.proc)
	})
	app.poller = linkPoller(app, d.toApp)
	d.proc = e.Spawn(fmt.Sprintf("drv-%s", nic.Name), func(p *sim.Proc) {
		p.SetDaemon(true)
		d.loop(p)
	})
	nic.OnInterrupt(func() { e.Wake(d.proc) })
	return d
}

// AppPump returns a function the application proc may call to opportunistically
// move frames from the driver link into its stack; blocking socket operations
// do this automatically through the stack's poller.
func (d *Driver) AppPump(app *Stack) func(p *sim.Proc) bool {
	return app.PumpReady
}

func (d *Driver) loop(p *sim.Proc) {
	idle := 0
	for {
		progress := false
		if f := d.nic.Poll(p, d.core); f != nil {
			d.toApp.Send(p, f)
			progress = true
		}
		if f, ok := d.toNIC.TryRecv(p); ok {
			if err := d.nic.Transmit(p, d.core, f); err != nil {
				// Ring full: drop, as a real driver would under overload.
				_ = err
			}
			progress = true
		}
		if progress {
			idle = 0
			continue
		}
		idle++
		if idle < 30 {
			p.Sleep(150)
			continue
		}
		p.Park() // woken by the NIC interrupt or sender wakeups
		idle = 0
		p.Sleep(d.nic.sys.Machine().Costs.Trap)
	}
}
