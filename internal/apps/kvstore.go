package apps

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"multikernel/internal/cache"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
	"multikernel/internal/urpc"
)

// Query-processing costs in cycles (SQL parse/plan/execute shell around the
// storage accesses, which are charged through the cache model).
// SQLite-calibrated costs: a TPC-W-style point SELECT costs a few hundred
// microseconds of CPU (the paper sustains 3417 queries/s with the database
// core saturated on a 2.8GHz Opteron — about 800k cycles per query).
const (
	kvParseCost = 600_000 // SQL parse, plan and VM execution shell
	kvRowCost   = 1_200   // per-row predicate evaluation / copy-out
)

// KVStore is the relational stand-in for the paper's SQLite database: an
// in-(simulated-)memory table with an ordered primary index. Rows live in
// simulated physical memory, one cache line each, so query cost includes
// real memory-system time.
type KVStore struct {
	sys   *cache.System
	core  topo.CoreID
	rows  memory.Region
	index []uint64 // sorted keys; row i of the region holds index[i]

	Queries uint64
}

// NewKVStore builds a table of n rows homed on the store core's socket, with
// keys 0..n-1 and deterministic values.
func NewKVStore(sys *cache.System, core topo.CoreID, n int) *KVStore {
	kv := &KVStore{
		sys:  sys,
		core: core,
		rows: sys.Memory().AllocLines(n, sys.Machine().Socket(core)),
	}
	for i := 0; i < n; i++ {
		k := uint64(i)
		kv.index = append(kv.index, k)
		sys.Memory().StoreWord(kv.rows.LineAt(i), k*2654435761+1)
	}
	return kv
}

// Select executes a point SELECT by primary key from the store's core,
// charging parse, index search and row access.
func (kv *KVStore) Select(p *sim.Proc, key uint64) (uint64, bool) {
	kv.Queries++
	p.Sleep(kvParseCost)
	i := sort.Search(len(kv.index), func(j int) bool { return kv.index[j] >= key })
	// Binary search touches log2(n) index lines worth of comparisons.
	p.Sleep(sim.Time(16 * bits(len(kv.index))))
	if i >= len(kv.index) || kv.index[i] != key {
		return 0, false
	}
	p.Sleep(kvRowCost)
	got := kv.sys.Load(p, kv.core, kv.rows.LineAt(i))
	return got, true
}

// Update executes an UPDATE by primary key, charging parse, index search and
// the row store through the coherence model. It reports whether the key
// existed (UPDATE of a missing row matches nothing).
func (kv *KVStore) Update(p *sim.Proc, key, val uint64) bool {
	kv.Queries++
	p.Sleep(kvParseCost)
	i := sort.Search(len(kv.index), func(j int) bool { return kv.index[j] >= key })
	p.Sleep(sim.Time(16 * bits(len(kv.index))))
	if i >= len(kv.index) || kv.index[i] != key {
		return false
	}
	p.Sleep(kvRowCost)
	kv.sys.Store(p, kv.core, kv.rows.LineAt(i), val)
	return true
}

func bits(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}

// Request opcodes, carried in word 2 of the request message.
const (
	kvOpPoint  = iota // point SELECT: {key}
	kvOpRange         // range SELECT over the bulk channel: {lo, hi}
	kvOpUpdate        // point UPDATE: {key, val}
)

// kvBulkSlotLines sizes one bulk-channel slot: 64 lines carry 512 row values
// per transfer; larger ranges stream as multiple payloads.
const kvBulkSlotLines = 64

// KVService runs a KVStore as a single-core server domain reached over URPC
// request/response channels — the configuration of §5.4's web+database
// experiment, where the database core is the bottleneck. Row values of range
// queries ride a per-client bulk channel: the server writes them into the
// shared pool and the client pulls the lines on first touch, so result sets
// move without a per-row message or copy.
type KVService struct {
	kv    *KVStore
	reqs  []*urpc.Channel
	rsps  []*urpc.Channel
	bulks []*urpc.BulkChannel
	proc  *sim.Proc
	eng   *sim.Engine
	pass  *urpc.Pass // the loop's checks of reqs
	// rangeBuf gathers one pool slot of range values; BulkChannel.Send
	// copies it out before it returns, so every request reuses it.
	rangeBuf [kvBulkSlotLines * memory.LineSize]byte
}

// NewKVService starts the service on its store's core. Under a parallel boot
// the service proc runs only in the replica owning that core; other replicas
// hold the structure (and the channel ends built by Connect) without a loop.
func NewKVService(e *sim.Engine, kv *KVStore) *KVService {
	s := &KVService{kv: kv, eng: e}
	s.pass = (&urpc.PassPlan{Sleep: kvIdleGap, Park: kvIdleSweeps}).NewPass(s, nil, nil)
	if kv.sys.LocalCore(kv.core) {
		s.proc = e.Spawn(fmt.Sprintf("kvsvc@c%d", kv.core), func(p *sim.Proc) {
			p.SetDaemon(true)
			s.loop(p)
		})
	}
	return s
}

// wake notifies the service loop if it runs in this replica; a cross-partition
// client instead relies on the request channel's delivery doorbell.
func (s *KVService) wake() {
	if s.proc != nil {
		s.eng.Wake(s.proc)
	}
}

// Connect returns a client handle for a caller on the given core.
func (s *KVService) Connect(client topo.CoreID) *KVClient {
	sys := s.kv.sys
	req := urpc.New(sys, client, s.kv.core, urpc.Options{Slots: 8, Home: int(sys.Machine().Socket(s.kv.core))})
	rsp := urpc.New(sys, s.kv.core, client, urpc.Options{Slots: 8, Home: int(sys.Machine().Socket(client))})
	bulk := urpc.NewBulk(sys, s.kv.core, client, urpc.BulkOptions{
		Slots: 8, SlotLines: kvBulkSlotLines,
		Home: int(sys.Machine().Socket(client)), Prefetch: true,
	})
	// A request line landing from the client's partition is the service-side
	// arrival interrupt (fires only in the replica that runs the loop).
	req.OnRemoteDeliver = s.wake
	s.reqs = append(s.reqs, req)
	s.rsps = append(s.rsps, rsp)
	s.bulks = append(s.bulks, bulk)
	if s.proc != nil {
		s.proc.Nudge() // the next pass start takes the new ring
	}
	s.wake()
	return &KVClient{req: req, rsp: rsp, bulk: bulk, svc: s, Timeout: DefaultKVTimeout}
}

// The service loop sleeps kvIdleGap cycles between empty sweeps of its
// request rings and parks in the kvIdleSweeps-th. It charges no loop cost.
const (
	kvIdleSweeps = 40
	kvIdleGap    = 200
)

// loop serves requests. Each sweep checks the request rings connected when
// it began, in connect order, serving a ring's requests as its check finds
// them; a sweep that served any starts the next at once. The checks run as
// steps (urpc.Pass); the proc does only what can block.
func (s *KVService) loop(p *sim.Proc) {
	var reqBuf [8]urpc.Message
	var replies []urpc.Message
	ps := s.pass
	for {
		switch ps.Next(p) {
		case urpc.PassRing:
			// Burst dequeue: one check charge drains a client's whole request
			// batch, and the replies go back as one vectored send.
			i := ps.Ring
			n := ps.Drain(p, reqBuf[:])
			ps.Ring++
			if n == 0 {
				continue
			}
			replies = replies[:0]
			for _, m := range reqBuf[:n] {
				switch m[2] {
				case kvOpRange:
					cnt := s.serveRange(p, i, m[0], m[1])
					replies = append(replies, urpc.Message{uint64(cnt), 1, kvOpRange})
				case kvOpUpdate:
					ok := s.kv.Update(p, m[0], m[1])
					f := uint64(0)
					if ok {
						f = 1
					}
					replies = append(replies, urpc.Message{m[1], f, kvOpUpdate})
				default:
					v, found := s.kv.Select(p, m[0])
					f := uint64(0)
					if found {
						f = 1
					}
					replies = append(replies, urpc.Message{v, f})
				}
			}
			s.rsps[i].Send(p, replies, urpc.Spin)
		case urpc.PassPark:
			p.Park() // Connect and every request wake it
			ps.Idle = 0
			ps.At = urpc.PassStart
		}
	}
}

// Begin takes the request rings connected since the last pass start; the
// service has no work before its rings.
func (s *KVService) Begin() bool {
	if s.pass.Rings() != len(s.reqs) {
		s.pass.SetRings(s.reqs)
	}
	return false
}

// Service reports false: the service acts only on its rings.
func (s *KVService) Service() bool { return false }

// Busy reports false: an idle service parks.
func (s *KVService) Busy() bool { return false }

// Quiet lets the engine skip idle passes unless touch tracking is on or a
// request ring waits for the next pass start (Connect nudges the proc).
func (s *KVService) Quiet() (bool, sim.Time) {
	return !s.kv.sys.Tracking() && s.pass.Rings() == len(s.reqs), sim.Forever
}

// serveRange scans [lo, hi) and streams the matching row values to client i's
// bulk channel, returning the match count. The response message follows the
// last payload, so the client knows how many values to drain.
func (s *KVService) serveRange(p *sim.Proc, client int, lo, hi uint64) int {
	kv := s.kv
	kv.Queries++
	p.Sleep(kvParseCost)
	i := sort.Search(len(kv.index), func(j int) bool { return kv.index[j] >= lo })
	bulk := s.bulks[client]
	buf := s.rangeBuf[:0]
	n := 0
	for ; i < len(kv.index) && kv.index[i] < hi; i++ {
		p.Sleep(kvRowCost)
		v := kv.sys.Load(p, kv.core, kv.rows.LineAt(i))
		buf = binary.LittleEndian.AppendUint64(buf, v)
		n++
		if len(buf) == bulk.SlotBytes() {
			bulk.Send(p, buf)
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		bulk.Send(p, buf)
	}
	return n
}

// Typed client errors. A dead service core used to park its clients forever
// (plain Send/Recv); every request path now runs under a deadline and
// surfaces the ChannelDead verdict instead.
var (
	// ErrChannelDead reports that the service channel carries (or just
	// earned) a ChannelDead verdict: the request ring stayed full or the
	// response never came within the deadline, the fail-stop signature.
	ErrChannelDead = errors.New("kv: service channel dead")
	// ErrDegraded reports admission control shedding a write because the
	// shard is below its replication target; the operation was not applied
	// and may be retried once re-replication completes.
	ErrDegraded = errors.New("kv: shard degraded below replication target")
	// ErrRetriesExhausted reports that a fault-aware client ran out of retry
	// budget without finding a live primary for the key's shard.
	ErrRetriesExhausted = errors.New("kv: retries exhausted")
)

// DefaultKVTimeout is the per-call deadline for KVClient operations: generous
// against queueing behind other clients' bursts on a saturated database core
// (§5.4 runs it at saturation, ~800k cycles per query), but finite, so a
// fail-stopped service core turns into ErrChannelDead instead of a deadlock.
const DefaultKVTimeout sim.Time = 50_000_000

// KVClient is a connected caller.
type KVClient struct {
	req  *urpc.Channel
	rsp  *urpc.Channel
	bulk *urpc.BulkChannel
	svc  *KVService

	// Timeout bounds each request/response exchange; Connect sets it to
	// DefaultKVTimeout.
	Timeout sim.Time

	// SelectRange's wait: its passes over the reply and bulk rings while
	// the count is due (waits[0]) and over the bulk ring after (waits[1]),
	// and the deadline they test.
	waits    [2]*urpc.Pass
	deadline sim.Time
	// SelectRange's buffers, reused by every call: a payload read off the
	// bulk ring, and the values it returns.
	rx   []byte
	vals []uint64
}

// fail renders the ChannelDead verdict on both directions: once a deadline
// expired, request/response matching is lost, so the connection is retired
// rather than resynchronized.
func (c *KVClient) fail() {
	c.req.MarkDead()
	c.rsp.MarkDead()
}

// Select performs a synchronous remote SELECT.
//
// When tracing is on, the call is bracketed by "kv.select" async events so
// the linearizability checker can reconstruct the operation history from the
// trace alone: ID is serial<<20|key (keys are assumed < 2^20) and the end
// Arg packs the result as 2*value+found. A failed call emits no end event —
// in the reconstructed history it is an operation that never returned.
func (c *KVClient) Select(p *sim.Proc, key uint64) (uint64, bool, error) {
	rec := c.svc.eng.Tracer()
	var id uint64
	if rec != nil {
		id = c.svc.eng.Serial()<<20 | key
		rec.Emit(uint64(p.Now()), trace.AsyncBegin, trace.SubApp, int32(c.req.Sender), "kv.select", id, 0)
	}
	if c.req.Send(p, []urpc.Message{{key}}, urpc.Deadline(c.Timeout)) == 0 {
		c.fail()
		return 0, false, ErrChannelDead
	}
	c.svc.wake() // notify a parked service
	var m [1]urpc.Message
	if c.rsp.Recv(p, m[:], urpc.Deadline(c.Timeout)) == 0 {
		c.fail()
		return 0, false, ErrChannelDead
	}
	if rec != nil {
		rec.Emit(uint64(p.Now()), trace.AsyncEnd, trace.SubApp, int32(c.req.Sender), "kv.select", id, 2*m[0][0]+m[0][1])
	}
	return m[0][0], m[0][1] == 1, nil
}

// Update performs a synchronous remote UPDATE, reporting whether the key
// existed. Traced as "kv.update" async events (ID as in Select; the begin
// Arg carries the new value, the end Arg the applied flag). A failed call
// emits no end event: the write may or may not have been applied, exactly
// the ambiguity the linearizability checker models for incomplete writes.
func (c *KVClient) Update(p *sim.Proc, key, val uint64) (bool, error) {
	rec := c.svc.eng.Tracer()
	var id uint64
	if rec != nil {
		id = c.svc.eng.Serial()<<20 | key
		rec.Emit(uint64(p.Now()), trace.AsyncBegin, trace.SubApp, int32(c.req.Sender), "kv.update", id, val)
	}
	if c.req.Send(p, []urpc.Message{{key, val, kvOpUpdate}}, urpc.Deadline(c.Timeout)) == 0 {
		c.fail()
		return false, ErrChannelDead
	}
	c.svc.wake()
	var m [1]urpc.Message
	if c.rsp.Recv(p, m[:], urpc.Deadline(c.Timeout)) == 0 {
		c.fail()
		return false, ErrChannelDead
	}
	if rec != nil {
		rec.Emit(uint64(p.Now()), trace.AsyncEnd, trace.SubApp, int32(c.req.Sender), "kv.update", id, m[0][1])
	}
	return m[0][1] == 1, nil
}

// SelectRange performs a remote range SELECT over [lo, hi): the row values
// arrive zero-copy through the bulk channel. The values returned are valid
// until the client's next SelectRange, which reuses the slice. Payloads are
// drained while
// waiting for the count reply, so result sets larger than the bulk ring
// never stall the server. The deadline re-arms on every payload, so a large
// result set is bounded by per-transfer progress, not total size.
//
// The wait sweeps the reply ring while the count is due, then the bulk
// ring, tests the deadline and sleeps rangePollGap; anything a check finds
// restarts the sweep at once. Its checks run as steps (urpc.Pass), which
// the engine skips while both rings stay empty, up to the first deadline
// test at or after the deadline.
func (c *KVClient) SelectRange(p *sim.Proc, lo, hi uint64) ([]uint64, error) {
	if c.req.Send(p, []urpc.Message{{lo, hi, kvOpRange}}, urpc.Deadline(c.Timeout)) == 0 {
		c.fail()
		return nil, ErrChannelDead
	}
	c.svc.wake()
	if c.waits[0] == nil {
		plan := &urpc.PassPlan{Sleep: rangePollGap}
		c.waits[0] = plan.NewPass(c, nil, []*urpc.Channel{c.rsp, c.bulk.Ring()})
		c.waits[1] = plan.NewPass(c, nil, []*urpc.Channel{c.bulk.Ring()})
		c.rx = make([]byte, 0, c.bulk.SlotBytes())
	}
	vals := c.vals[:0]
	total := -1
	c.deadline = p.Now() + c.Timeout
	ps := c.waits[0]
	ps.At = urpc.PassStart
	var m [1]urpc.Message
	for total < 0 || len(vals) < total {
		switch ps.Next(p) {
		case urpc.PassRing: // a check found a message, or its probe missed
			if total < 0 && ps.Ring == 0 {
				if ps.Drain(p, m[:]) > 0 {
					total = int(m[0][0])
					c.deadline = p.Now() + c.Timeout
					ps = c.waits[1]
					ps.At = urpc.PassStart
					continue
				}
			} else if b, ok := ps.DrainBulk(p, c.bulk, c.rx); ok {
				for off := 0; off+8 <= len(b); off += 8 {
					vals = append(vals, binary.LittleEndian.Uint64(b[off:]))
				}
				c.vals = vals
				c.deadline = p.Now() + c.Timeout
				ps.At = urpc.PassStart
				continue
			}
			ps.Ring++
		case urpc.PassService: // the deadline passed
			c.fail()
			return vals, ErrChannelDead
		}
	}
	return vals, nil
}

// rangePollGap is SelectRange's sleep between empty sweeps.
const rangePollGap = 200

// Begin reports false: the range wait acts only on its rings.
func (c *KVClient) Begin() bool { return false }

// Service reports whether the range wait's deadline has passed.
func (c *KVClient) Service() bool { return c.svc.eng.Now() >= c.deadline }

// Busy reports false; the range wait never parks.
func (c *KVClient) Busy() bool { return false }

// Quiet lets the engine skip the range wait's polls up to its deadline
// test unless touch tracking is on; the rings' lines are watched.
func (c *KVClient) Quiet() (bool, sim.Time) { return !c.svc.kv.sys.Tracking(), c.deadline }
