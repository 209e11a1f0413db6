package netstack

import (
	"fmt"
	"slices"

	"multikernel/internal/cache"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// Frame is a raw Ethernet frame.
type Frame []byte

// Port is anything attachable to a wire end: a NIC or a load generator.
type Port interface {
	// Deliver hands a received frame to the port. It runs in engine context
	// and must not block. The frame is valid only during the call: a port
	// that keeps its bytes copies them.
	Deliver(f Frame)
}

// Wire is a full-duplex point-to-point Ethernet link with finite bandwidth
// and propagation delay. Transmissions in one direction serialize; the two
// directions are independent.
type Wire struct {
	e        *sim.Engine
	bpc      float64 // bytes per cycle per direction
	prop     sim.Time
	a, b     Port
	nextFree [2]sim.Time
	free     *inFlight // delivered frames' records
}

// inFlight is a frame on the wire: a copy of its bytes and the port it goes
// to. A wire pools its records, each with its delivery callback made once,
// so a transmission allocates nothing once the pool is warm.
type inFlight struct {
	f       Frame
	dst     Port
	deliver func()
	next    *inFlight
}

// NewWire creates a link of the given gigabits per second on a machine
// running at clockGHz (bandwidth is expressed in the simulation's cycle
// domain).
func NewWire(e *sim.Engine, gbps, clockGHz float64) *Wire {
	return &Wire{
		e:    e,
		bpc:  gbps * 1e9 / 8 / (clockGHz * 1e9),
		prop: sim.Time(clockGHz * 1000), // ~1µs one way
	}
}

// Attach connects the two ports.
func (w *Wire) Attach(a, b Port) { w.a, w.b = a, b }

// transmit sends a frame from the given end, modelling serialization and
// propagation delay. Callable from engine context or procs.
func (w *Wire) transmit(fromA bool, f Frame) {
	dir := 0
	dst := w.b
	if !fromA {
		dir = 1
		dst = w.a
	}
	if dst == nil {
		return
	}
	now := w.e.Now()
	start := now
	if w.nextFree[dir] > start {
		start = w.nextFree[dir]
	}
	tx := sim.Time(float64(len(f)) / w.bpc)
	w.nextFree[dir] = start + tx
	r := w.free
	if r == nil {
		r = new(inFlight)
		r.deliver = func() {
			r.dst.Deliver(r.f)
			r.dst = nil
			r.next, w.free = w.free, r
		}
	} else {
		w.free = r.next
	}
	r.f = append(r.f[:0], f...)
	r.dst = dst
	w.e.After(start-now+tx+w.prop, r.deliver)
}

// Transmit sends a frame from the given end of the wire. External load
// generators (which model machines outside the simulated host) use this
// directly; NICs use it internally. The wire copies the frame, so the
// caller may reuse it once Transmit returns.
func (w *Wire) Transmit(fromA bool, f Frame) { w.transmit(fromA, f) }

// NIC device parameters.
const (
	nicRings    = 32 // descriptors per ring
	nicBufLines = 24 // 1536 bytes per buffer
	nicDMALat   = 900
	nicDoorbell = 250 // PIO write cost at the driver core
)

// NICStats counts device activity.
type NICStats struct {
	RxFrames, TxFrames uint64
	RxDropped          uint64
}

// NIC is an e1000-style device: receive and transmit descriptor rings plus
// packet buffers in simulated host memory, DMA, and interrupt (or polled)
// receive. The driver side runs on a core and pays coherent-memory costs;
// the device side runs in engine time and pays DMA latency and wire time.
type NIC struct {
	Name   string
	e      *sim.Engine
	sys    *cache.System
	socket topo.SocketID

	wire *Wire
	isA  bool

	rxDescs memory.Region
	rxBufs  memory.Region
	txDescs memory.Region
	txBufs  memory.Region

	rxDev, rxDrv uint64 // device produce / driver consume indices
	rxClaim      uint64 // receive slots claimed by delivered frames
	txDrv, txDev uint64
	// Per slot: the frame a receive DMA writes, held from its arrival until
	// the driver reads the slot; the DMA's completion, made once; the frame
	// the device DMA-reads for transmission. The buffers are kept for reuse.
	rxFrames [nicRings]Frame
	rxDMA    [nicRings]func()
	txFrames [nicRings]Frame
	txDMA    func() // deviceTx, made once

	intr  func() // driver-installed interrupt handler (engine context)
	stats NICStats
}

// NewNIC creates a NIC attached to the machine's I/O socket, with its rings
// and buffers in host memory homed there.
func NewNIC(e *sim.Engine, sys *cache.System, name string, wire *Wire, isA bool) *NIC {
	mem := sys.Memory()
	socket := sys.Machine().IOSocket
	n := &NIC{
		Name:    name,
		e:       e,
		sys:     sys,
		socket:  socket,
		wire:    wire,
		isA:     isA,
		rxDescs: mem.AllocLines(nicRings, socket),
		rxBufs:  mem.AllocLines(nicRings*nicBufLines, socket),
		txDescs: mem.AllocLines(nicRings, socket),
		txBufs:  mem.AllocLines(nicRings*nicBufLines, socket),
	}
	for i := range n.rxDMA {
		slot := uint64(i)
		n.rxDMA[i] = func() { n.dmaRx(slot) }
	}
	n.txDMA = n.deviceTx
	return n
}

// Stats returns a copy of the device counters.
func (n *NIC) Stats() NICStats { return n.stats }

// OnInterrupt installs the receive-interrupt handler (typically waking the
// driver proc). A nil handler leaves the device in polled mode.
func (n *NIC) OnInterrupt(fn func()) { n.intr = fn }

// Deliver implements Port: the device claims the next receive slot, or
// drops the frame when claimed slots fill the ring, then DMA-writes the
// frame into the slot's buffer, publishes the descriptor and raises an
// interrupt. A frame claims its slot on arrival, so frames closer together
// than the DMA latency each get their own; the DMAs complete in arrival
// order, and each advances rxDev. The slot keeps a copy of the frame for
// its DMA.
func (n *NIC) Deliver(f Frame) {
	if n.rxClaim-n.rxDrv >= nicRings {
		n.stats.RxDropped++
		return
	}
	slot := n.rxClaim % nicRings
	n.rxClaim++
	n.rxFrames[slot] = append(n.rxFrames[slot][:0], f...)
	n.e.After(nicDMALat, n.rxDMA[slot])
}

// dmaRx completes the receive DMA into slot (engine context).
func (n *NIC) dmaRx(slot uint64) {
	base := n.rxBufs.LineAt(int(slot) * nicBufLines)
	n.sys.DMAWrite(base, n.rxFrames[slot], n.socket)
	// Publish the descriptor: DMA write to the descriptor line.
	n.sys.DMAWrite(n.rxDescs.LineAt(int(slot)), []byte{1}, n.socket)
	n.rxDev++
	n.stats.RxFrames++
	if n.intr != nil {
		n.intr()
	}
}

// Poll checks for a received frame from the driver core, paying the
// descriptor and buffer reads through the cache. It copies the frame into
// dst, grown if it is short, and returns it; it returns nil when the ring
// is empty.
func (n *NIC) Poll(p *sim.Proc, core topo.CoreID, dst []byte) Frame {
	if n.rxDrv >= n.rxDev {
		// Check the descriptor anyway, as a real driver would.
		n.sys.Load(p, core, n.rxDescs.LineAt(int(n.rxDrv%nicRings)))
		return nil
	}
	slot := n.rxDrv % nicRings
	n.sys.Load(p, core, n.rxDescs.LineAt(int(slot)))
	size := len(n.rxFrames[slot])
	base := n.rxBufs.LineAt(int(slot) * nicBufLines)
	for i := 0; i*memory.LineSize < size; i++ {
		n.sys.LoadLine(p, core, base+memory.Addr(i*memory.LineSize))
	}
	f := slices.Grow(dst[:0], size)[:size]
	n.sys.Memory().LoadInto(base, f)
	n.rxDrv++
	return f
}

// nextRx returns the line of the descriptor Poll reads next, and whether
// the device has published it: the driver pass's lead line (urpc.PassLead).
// Deliver's DMA write to that line publishes the descriptor and advances
// rxDev in one callback, so a write to the watched line nudges the driver
// at the point the index moves.
func (n *NIC) nextRx() (memory.Addr, bool) {
	return n.rxDescs.LineAt(int(n.rxDrv % nicRings)), n.rxDrv < n.rxDev
}

// Transmit queues a frame for transmission from the driver core: the frame
// is written into a transmit buffer, its descriptor published, and the
// doorbell rung; the device then DMA-reads it and puts it on the wire.
func (n *NIC) Transmit(p *sim.Proc, core topo.CoreID, f Frame) error {
	if n.txDrv-n.txDev >= nicRings {
		return fmt.Errorf("netstack: %s transmit ring full", n.Name)
	}
	slot := n.txDrv % nicRings
	base := n.txBufs.LineAt(int(slot) * nicBufLines)
	var zero [memory.WordsPerLine]uint64
	for i := 0; i*memory.LineSize < len(f); i++ {
		n.sys.StoreLine(p, core, base+memory.Addr(i*memory.LineSize), zero)
	}
	n.sys.Memory().StoreBytes(base, f)
	n.txFrames[slot] = append(n.txFrames[slot][:0], f...)
	n.sys.Store(p, core, n.txDescs.LineAt(int(slot)), slot+1)
	n.txDrv++
	p.Sleep(nicDoorbell)
	n.e.After(nicDMALat, n.txDMA)
	return nil
}

// deviceTx drains the transmit ring onto the wire (engine context).
func (n *NIC) deviceTx() {
	for n.txDev < n.txDrv {
		slot := n.txDev % nicRings
		n.txDev++
		n.stats.TxFrames++
		n.wire.transmit(n.isA, n.txFrames[slot])
	}
}
