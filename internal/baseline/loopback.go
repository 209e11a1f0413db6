package baseline

import (
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// Loopback is the monolithic kernel's localhost packet path: a spinlocked
// in-kernel queue of packet buffers shared between sender and receiver cores
// (Table 4's comparator). Every packet crosses the kernel boundary twice and
// its payload plus the queue metadata migrate between the cores' caches.
type Loopback struct {
	k        *Kernel
	lock     memory.Addr
	meta     memory.Addr // head/tail indices
	descs    memory.Region
	bufs     memory.Region
	kmeta    memory.Region // skb slab/socket accounting lines, shared
	slots    int
	bufLines int

	head, tail uint64
	sizes      []int
	blocked    *sim.Proc
}

// Per-packet in-kernel path costs (cycles): softirq dispatch, netif_rx,
// protocol demux, socket queue management — work beyond the cache misses.
const (
	lbRxPathCost = 2500
	lbTxPathCost = 2000
)

// kmetaLines is the number of shared kernel accounting lines (skb slab
// freelists, socket counters, memory accounting) each packet touches on each
// side; they ping-pong between sender and receiver like the paper's
// high miss counts indicate.
const kmetaLines = 6

// loopbackSlots is the kernel queue depth.
const loopbackSlots = 32

// NewLoopback creates the kernel loopback queue sized for packets up to
// maxBytes, with all structures homed on the given socket (a real kernel
// allocates skbs wherever the allocator happens to place them; we use the
// sender's socket).
func (k *Kernel) NewLoopback(maxBytes int, home topo.SocketID) *Loopback {
	mem := k.sys.Memory()
	bufLines := (maxBytes + memory.LineSize - 1) / memory.LineSize
	return &Loopback{
		k:        k,
		lock:     mem.AllocLines(1, home).Base,
		meta:     mem.AllocLines(1, home).Base,
		descs:    mem.AllocLines(loopbackSlots, home),
		bufs:     mem.AllocLines(loopbackSlots*bufLines, home),
		kmeta:    mem.AllocLines(kmetaLines, home),
		slots:    loopbackSlots,
		bufLines: bufLines,
		sizes:    make([]int, loopbackSlots),
	}
}

func (lb *Loopback) withLock(p *sim.Proc, core topo.CoreID, fn func()) {
	for {
		acquired := false
		lb.k.sys.RMW(p, core, lb.lock, func(v uint64) uint64 {
			if v == 0 {
				acquired = true
				return 1
			}
			return v
		})
		if acquired {
			break
		}
		for lb.k.sys.Load(p, core, lb.lock) != 0 {
			p.Sleep(30)
		}
	}
	fn()
	lb.k.sys.Store(p, core, lb.lock, 0)
}

func (lb *Loopback) buf(slot uint64) memory.Addr {
	return lb.bufs.LineAt(int(slot%uint64(lb.slots)) * lb.bufLines)
}

// Send enqueues a packet from core, blocking (spinning in the kernel) while
// the queue is full. It charges the syscall, the payload copy into the
// kernel buffer and the locked queue manipulation.
func (lb *Loopback) Send(p *sim.Proc, core topo.CoreID, payload []byte) {
	sys := lb.k.sys
	lb.k.kern.Core(core).Syscall(p)
	for lb.tail-lb.head >= uint64(lb.slots) {
		p.Sleep(200)
	}
	p.Sleep(lbTxPathCost)
	slot := lb.tail
	base := lb.buf(slot)
	// skb allocation: slab freelist and socket accounting, shared lines that
	// ping-pong with the receiver's frees.
	for i := 0; i < kmetaLines/2; i++ {
		sys.RMW(p, core, lb.kmeta.LineAt(i), func(v uint64) uint64 { return v + 1 })
	}
	// Copy the payload into the kernel buffer line by line through the
	// coherent cache.
	var zero [memory.WordsPerLine]uint64
	for i := 0; i*memory.LineSize < len(payload); i++ {
		sys.StoreLine(p, core, base+memory.Addr(i*memory.LineSize), zero)
	}
	sys.Memory().StoreBytes(base, payload)
	lb.sizes[slot%uint64(lb.slots)] = len(payload)
	lb.withLock(p, core, func() {
		sys.Store(p, core, lb.descs.LineAt(int(slot%uint64(lb.slots))), slot+1)
		lb.tail++
		sys.Store(p, core, lb.meta, lb.tail)
	})
	if lb.blocked != nil {
		w := lb.blocked
		lb.blocked = nil
		p.Sleep(lb.k.fc.wake)
		p.Unpark(w)
	}
}

// Recv dequeues the next packet from core, blocking in the kernel when the
// queue is empty. It charges the syscall, the locked dequeue and the payload
// copy out of the kernel buffer.
func (lb *Loopback) Recv(p *sim.Proc, core topo.CoreID) []byte {
	sys := lb.k.sys
	lb.k.kern.Core(core).Syscall(p)
	for lb.head >= lb.tail {
		if lb.blocked != nil {
			panic("baseline: loopback supports one blocked receiver")
		}
		lb.blocked = p
		p.Park()
		lb.blocked = nil
		p.Sleep(sys.Machine().Costs.CSwitch)
	}
	p.Sleep(lbRxPathCost)
	var slot uint64
	lb.withLock(p, core, func() {
		sys.Load(p, core, lb.meta)
		slot = lb.head
		sys.Load(p, core, lb.descs.LineAt(int(slot%uint64(lb.slots))))
	})
	size := lb.sizes[slot%uint64(lb.slots)]
	base := lb.buf(slot)
	out := make([]byte, size) // the copy out to the caller's buffer
	sys.Memory().LoadInto(base, out)
	for i := 0; i*memory.LineSize < size; i++ {
		sys.LoadLine(p, core, base+memory.Addr(i*memory.LineSize))
	}
	// skb free: the receiver returns the buffer to the shared slab, taking
	// ownership of its lines and the freelist accounting — the source of the
	// heavy sink-to-source coherence traffic the paper measures. The slot is
	// only republished (head advance) after the free completes, so the
	// sender cannot overwrite a buffer that is still being recycled.
	var zero [memory.WordsPerLine]uint64
	for i := 0; i*memory.LineSize < size; i++ {
		sys.StoreLine(p, core, base+memory.Addr(i*memory.LineSize), zero)
	}
	for i := kmetaLines / 2; i < kmetaLines; i++ {
		sys.RMW(p, core, lb.kmeta.LineAt(i), func(v uint64) uint64 { return v + 1 })
	}
	lb.withLock(p, core, func() {
		lb.head++
		sys.Store(p, core, lb.meta, lb.head)
	})
	return out
}
