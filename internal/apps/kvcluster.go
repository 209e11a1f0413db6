package apps

// A sharded, replicated kvstore with automatic fail-over — the multikernel
// argument applied to the flagship application. State is partitioned by
// consistent hashing across N server cores and replicated to R total copies
// per shard; all coordination is message passing over URPC, and fail-over is
// driven by the monitors' existing deadline-based failure detection (a view
// excision IS the failure notification, via monitor.Network.OnExcise).
//
// Replication protocol (per shard, primary-sequenced):
//
//	client PUT -> primary: admit (dedup by reqID; shed with ErrDegraded if
//	  the shard is below its replication target) and queue head-of-line
//	primary -> ISR backups: kvRepl{key,val,reqID}; each backup applies to
//	  its copy, records the reqID, and acks
//	primary: only after every in-sync backup acked -> apply locally ->
//	  ack the client
//
// The ack order is the no-lost-write guarantee: a client ack implies the
// write is on every in-sync replica, so any single fail-stop leaves at least
// one survivor carrying it, and reads (served from the primary's committed
// copy only) can never observe a write that is not yet fully replicated. A
// backup that stops acking is demoted from the in-sync set BEFORE the client
// is acked — exactly the ISR rule — so the invariant "acked ⊆ every ISR
// member" survives slow and half-dead backups too.
//
// Fail-over: when the monitors excise a dead core, the cluster promotes the
// first live in-sync backup of each shard the dead core led, demotes it from
// the shards it backed, and recruits a spare core per under-replicated
// shard. The new primary streams a full anti-entropy snapshot (rows + the
// reqID dedup table, so exactly-once survives the transfer) to the recruit;
// until the shard is back at its replication target, writes are shed with
// ErrDegraded while reads stay available. Clients are fault-aware: every
// request runs under a deadline with a seeded-jitter urpc.RetryPolicy, and
// on ChannelDead / wrong-primary / degraded verdicts they re-resolve the
// shard map and retry — carrying the same reqID, so a write retried against
// the promoted backup is applied exactly once.
//
// Shard state lives in plain Go maps with explicit cycle charges (the
// protocol dynamics, not SQLite costs, are the object of study here); the
// shard map itself is engine-shared authoritative state standing in for a
// replicated coordination service, with every lookup charged ckMapLookup.

import (
	"fmt"
	"sort"

	"multikernel/internal/cache"
	"multikernel/internal/metrics"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/stats"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
	"multikernel/internal/urpc"
)

// Cluster opcodes, carried in word 2 of request and mesh messages (disjoint
// from the single-core service's kvOp* space).
const (
	ckOpGet     = 10 // client GET: {key, 0, op, reqID}
	ckOpPut     = 11 // client PUT: {key, val, op, reqID}
	ckOpRepl    = 12 // primary->backup replicate: {key, val, op, reqID, shard}
	ckOpReplAck = 13 // backup->primary ack: {_, flags, op, reqID, shard}
	ckOpSyncRow = 14 // anti-entropy row: {key, val, op, 0, shard}
	ckOpSyncDup = 15 // anti-entropy dedup entry: {reqID, flags, op, 0, shard}
	ckOpSyncEnd = 16 // anti-entropy end: {rows, dups, op, syncID, shard}
	ckOpSyncAck = 17 // recruit->primary: {_, _, op, syncID, shard}
)

// Response status, word 2 of a client response {val, flags, status, reqID}.
const (
	ckStatusOK           = 0
	ckStatusWrongPrimary = 1 // shard map moved; client must re-resolve
	ckStatusDegraded     = 2 // admission control shed the write
)

// Cluster software-path costs in cycles.
const (
	ckMapLookup = 150   // shard-map resolve (modeled coordination-service read)
	ckServe     = 2_500 // per-request server processing (hash, dispatch, reply build)
	ckApply     = 900   // applying one write to a shard copy
	ckSyncRow   = 250   // marshaling one anti-entropy row
)

// Cluster deadlines in cycles, and the consistent-hash ring's vnodes per shard.
const (
	ckReplTimeout    = 60_000  // backup ack; past it the backup leaves the in-sync set
	ckSyncTimeout    = 600_000 // full anti-entropy transfer; past it the next spare is tried
	ckRequestTimeout = 300_000 // one client request attempt
	ckVNodes         = 8
)

// KVMutation selects a deliberate replication defect, in the style of
// urpc.Mutation: the model checker's self-tests arm these to prove the
// linearizability oracle actually bites on this protocol.
type KVMutation uint8

const (
	// KVMutNone runs the correct protocol.
	KVMutNone KVMutation = iota
	// KVMutAckDrop acks the client without replicating: the primary applies
	// locally and replies immediately, silently dropping the backup-ack
	// requirement. Kill the primary afterwards and the acked write is gone —
	// the exact loss the replication protocol exists to prevent.
	KVMutAckDrop
)

// ClusterConfig parameterizes NewKVCluster.
type ClusterConfig struct {
	Shards   int // consistent-hash shards (default len(Servers))
	Replicas int // total copies per shard, primary included (default 2)
	Rows     int // seeded keys 0..Rows-1, NewKVStore's value formula

	Servers []topo.CoreID // initial shard holders (primaries and backups)
	Spares  []topo.CoreID // recruitment pool for re-replication

	// Mut arms a deliberate replication defect (checker self-tests only).
	Mut KVMutation
}

// shardState is one shard's entry in the authoritative map.
type shardState struct {
	primary topo.CoreID // -1: no live candidate remained (shard down)
	isr     []topo.CoreID
	syncing bool        // below replication target; writes are shed
	target  topo.CoreID // recruit being synced, valid while syncing
}

// vnode is one ring point of the consistent-hash ring.
type vnode struct {
	hash  uint64
	shard int
}

// ClusterStats counts cluster-wide control-plane activity.
type ClusterStats struct {
	Promotions uint64 // backup took over a dead primary's shard
	Demotions  uint64 // backup removed from an in-sync set
	Recruits   uint64 // spare drafted into an under-replicated shard
	Syncs      uint64 // anti-entropy transfers completed
	Shed       uint64 // writes refused with ErrDegraded
	WrongEpoch uint64 // requests answered wrong-primary
	DedupHits  uint64 // retried writes answered from the dedup table
}

// KVCluster is the control plane plus the per-core server processes.
type KVCluster struct {
	eng *sim.Engine
	sys *cache.System
	cfg ClusterConfig

	shards []*shardState
	ring   []vnode

	members  []topo.CoreID // servers + spares, ascending
	byCore   map[topo.CoreID]*kvServer
	spares   []topo.CoreID // cores currently holding no shard
	downSeen map[topo.CoreID]bool

	stats ClusterStats

	mPromotions, mDemotions *metrics.Counter
	mRecruits, mSyncs       *metrics.Counter
	mShed                   *metrics.Counter

	// Health telemetry consumed by the observability plane: live copies per
	// shard ("kv.shard.<s>.replicas"), admitted-write queue depth per server
	// ("kv.server.<c>.pending"), and end-to-end client op latency
	// ("kv.op_cycles"). All are zero-virtual-cost registry updates.
	gShardReplicas []*metrics.Gauge
	hOps           *stats.Histogram
}

// NewKVCluster builds the shard map, boots one server process per member
// core (spares included — a spare is just a member holding no shard yet),
// wires the full URPC mesh between them, and seeds every shard copy with
// NewKVStore's deterministic contents. net may be nil (no failure
// detection: fail-over then only happens through backup-ack demotion);
// when present, view excisions drive promotion and re-replication.
func NewKVCluster(e *sim.Engine, sys *cache.System, net *monitor.Network, cfg ClusterConfig) *KVCluster {
	if len(cfg.Servers) == 0 {
		panic("kvcluster: no servers")
	}
	if cfg.Shards == 0 {
		cfg.Shards = len(cfg.Servers)
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(cfg.Servers) {
		panic("kvcluster: more replicas than servers")
	}
	cl := &KVCluster{
		eng: e, sys: sys, cfg: cfg,
		byCore:   make(map[topo.CoreID]*kvServer),
		downSeen: make(map[topo.CoreID]bool),
	}
	reg := e.Metrics()
	cl.mPromotions = reg.Counter("kv.cluster.promotions")
	cl.mDemotions = reg.Counter("kv.cluster.demotions")
	cl.mRecruits = reg.Counter("kv.cluster.recruits")
	cl.mSyncs = reg.Counter("kv.cluster.syncs")
	cl.mShed = reg.Counter("kv.cluster.shed")
	cl.hOps = reg.Histogram("kv.op_cycles")

	// Shard i starts on Servers[i mod N] with the next Replicas-1 servers
	// (in ring order) as its in-sync backups.
	n := len(cfg.Servers)
	for i := 0; i < cfg.Shards; i++ {
		st := &shardState{primary: cfg.Servers[i%n]}
		for r := 1; r < cfg.Replicas; r++ {
			st.isr = append(st.isr, cfg.Servers[(i+r)%n])
		}
		cl.shards = append(cl.shards, st)
	}
	// Consistent-hash ring: ckVNodes points per shard, sorted by hash. Keys
	// resolve to the first vnode clockwise.
	for s := 0; s < cfg.Shards; s++ {
		for v := 0; v < ckVNodes; v++ {
			cl.ring = append(cl.ring, vnode{hash: ckHash(uint64(s)<<16 | uint64(v)), shard: s})
		}
	}
	sort.Slice(cl.ring, func(i, j int) bool { return cl.ring[i].hash < cl.ring[j].hash })
	for s := range cl.shards {
		cl.gShardReplicas = append(cl.gShardReplicas, reg.Gauge(fmt.Sprintf("kv.shard.%d.replicas", s)))
		cl.updateShardGauge(s)
	}

	cl.members = append(append([]topo.CoreID{}, cfg.Servers...), cfg.Spares...)
	sort.Slice(cl.members, func(i, j int) bool { return cl.members[i] < cl.members[j] })
	cl.spares = append([]topo.CoreID{}, cfg.Spares...)
	sort.Slice(cl.spares, func(i, j int) bool { return cl.spares[i] < cl.spares[j] })

	for _, c := range cl.members {
		cl.byCore[c] = newKVServer(cl, c)
	}
	// Full mesh between members: replication, acks and anti-entropy all ride
	// ordinary URPC channels homed at their receivers.
	for _, a := range cl.members {
		for _, b := range cl.members {
			if a == b {
				continue
			}
			ch := urpc.New(sys, a, b, urpc.Options{Slots: 16, Home: int(sys.Machine().Socket(b))})
			cl.byCore[a].out[b] = ch
			cl.byCore[b].in[a] = ch
			// Parallel boot: a replication/ack line arriving from another
			// partition is the receiving shard server's interrupt.
			rcv := b
			ch.OnRemoteDeliver = func() { cl.wakeServer(rcv) }
		}
	}
	// Seed every shard copy identically (the linearizability checker's
	// initial state): key k -> k*2654435761 + 1, as in NewKVStore.
	for k := uint64(0); k < uint64(cfg.Rows); k++ {
		s := cl.shardOfKey(k)
		v := k*2654435761 + 1
		cl.byCore[cl.shards[s].primary].data[s][k] = v
		for _, b := range cl.shards[s].isr {
			cl.byCore[b].data[s][k] = v
		}
	}
	for _, c := range cl.members {
		if !sys.LocalCore(c) {
			// Parallel boot: the server structure exists in every replica
			// (channel ends, seeded rows), but the loop runs only where the
			// core is local.
			continue
		}
		srv := cl.byCore[c]
		srv.proc = e.Spawn(fmt.Sprintf("kvshard@c%d", c), srv.run)
	}
	if net != nil {
		net.OnExcise(func(p *sim.Proc, observer, excised topo.CoreID) {
			cl.coreDown(p, excised)
		})
	}
	return cl
}

// updateShardGauge publishes shard s's live copy count (primary + in-sync
// backups) to its health gauge. Called after every shard-map mutation.
func (cl *KVCluster) updateShardGauge(s int) {
	st := cl.shards[s]
	n := int64(len(st.isr))
	if st.primary >= 0 {
		n++
	}
	cl.gShardReplicas[s].Set(n)
}

// emit records a control-plane instant when tracing is on.
func (cl *KVCluster) emit(p *sim.Proc, core topo.CoreID, name string, id, arg uint64) {
	if rec := cl.eng.Tracer(); rec != nil {
		rec.Emit(uint64(p.Now()), trace.Instant, trace.SubApp, int32(core), name, id, arg)
	}
}

// ckHash is a splitmix64-style mixer for ring points and keys.
func ckHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardOfKey resolves key -> shard on the consistent-hash ring.
func (cl *KVCluster) shardOfKey(key uint64) int {
	h := ckHash(key)
	i := sort.Search(len(cl.ring), func(j int) bool { return cl.ring[j].hash >= h })
	if i == len(cl.ring) {
		i = 0
	}
	return cl.ring[i].shard
}

// ShardOfKey resolves key -> shard on the consistent-hash ring (exported for
// the experiment harness, which attributes client operations to shards).
func (cl *KVCluster) ShardOfKey(key uint64) int { return cl.shardOfKey(key) }

// Stats returns a copy of the cluster's control-plane counters.
func (cl *KVCluster) Stats() ClusterStats { return cl.stats }

// Primary returns shard s's current primary (-1 if the shard is down).
func (cl *KVCluster) Primary(s int) topo.CoreID { return cl.shards[s].primary }

// Degraded reports whether shard s is below its replication target.
func (cl *KVCluster) Degraded(s int) bool { return cl.shards[s].syncing }

// Shards returns the shard count.
func (cl *KVCluster) Shards() int { return len(cl.shards) }

// KillCore fail-stops the server process on core c at the current virtual
// time (safe from an engine callback — fault.Injector's OnKill). The shard
// map is NOT updated: the cluster learns through backup-ack timeouts and the
// monitors' failure detection, like a real deployment would.
func (cl *KVCluster) KillCore(c topo.CoreID) {
	if srv, ok := cl.byCore[c]; ok && srv.proc != nil {
		cl.eng.Kill(srv.proc)
	}
}

// wakeServer notifies core c's shard server if its loop runs in this replica.
// A nil proc means the core is remote under a parallel boot — there the
// channel's delivery doorbell (OnRemoteDeliver) wakes the real server in its
// own partition's replica.
func (cl *KVCluster) wakeServer(c topo.CoreID) {
	if srv, ok := cl.byCore[c]; ok && srv.proc != nil {
		cl.eng.Wake(srv.proc)
	}
}

// coreDown is the failure notification: promote, demote, recruit. Excisions
// arrive once per observing monitor, so the first wins and the rest dedup.
func (cl *KVCluster) coreDown(p *sim.Proc, c topo.CoreID) {
	if cl.downSeen[c] {
		return
	}
	if _, member := cl.byCore[c]; !member {
		return // not ours (an unrelated core died)
	}
	cl.downSeen[c] = true
	cl.spares = removeCore(cl.spares, c)
	for s, st := range cl.shards {
		if st.syncing && st.target == c {
			// The recruit died mid-transfer; let maybeRecruit try another
			// spare instead of waiting out the sync deadline.
			st.target = -1
			st.syncing = false
		}
		if st.primary == c {
			// Promote the first live in-sync backup. Every acked write is on
			// every ISR member, so any of them is a safe choice.
			st.primary = -1
			for _, b := range st.isr {
				if !cl.downSeen[b] {
					st.primary = b
					break
				}
			}
			st.isr = removeCore(st.isr, c)
			if st.primary >= 0 {
				st.isr = removeCore(st.isr, st.primary)
				cl.stats.Promotions++
				cl.mPromotions.Inc()
				cl.emit(p, st.primary, "kv.promote", uint64(s), uint64(st.primary))
				cl.wakeServer(st.primary)
			}
		} else if containsCore(st.isr, c) {
			st.isr = removeCore(st.isr, c)
			cl.stats.Demotions++
			cl.mDemotions.Inc()
		}
		cl.updateShardGauge(s)
		cl.maybeRecruit(p, s)
	}
}

// demote removes a backup that stopped acking from shard s's in-sync set.
// Called by the primary BEFORE acking any write the backup did not confirm —
// the order that keeps "acked ⊆ every ISR member" true. The demoted core
// goes back to the spare pool: if it is merely slow (not dead), it can be
// recruited again, through a full re-sync.
func (cl *KVCluster) demote(p *sim.Proc, s int, b topo.CoreID) {
	st := cl.shards[s]
	if !containsCore(st.isr, b) {
		return
	}
	st.isr = removeCore(st.isr, b)
	cl.stats.Demotions++
	cl.mDemotions.Inc()
	cl.updateShardGauge(s)
	if !cl.downSeen[b] && !containsCore(cl.spares, b) {
		cl.spares = append(cl.spares, b)
		sort.Slice(cl.spares, func(i, j int) bool { return cl.spares[i] < cl.spares[j] })
	}
	cl.emit(p, b, "kv.demote", uint64(s), uint64(b))
	cl.maybeRecruit(p, s)
}

// maybeRecruit drafts a spare into shard s if it is below its replication
// target and not already syncing one. The shard stays marked degraded
// (writes shed) until the anti-entropy transfer completes.
func (cl *KVCluster) maybeRecruit(p *sim.Proc, s int) {
	st := cl.shards[s]
	if st.primary < 0 || st.syncing {
		return
	}
	if 1+len(st.isr) >= cl.cfg.Replicas {
		st.syncing = false
		return
	}
	st.syncing = true
	for _, sp := range cl.spares {
		if !cl.downSeen[sp] && sp != st.primary {
			st.target = sp
			cl.spares = removeCore(cl.spares, sp)
			cl.stats.Recruits++
			cl.mRecruits.Inc()
			cl.emit(p, sp, "kv.recruit", uint64(s), uint64(sp))
			cl.wakeServer(st.primary)
			return
		}
	}
	// No spare available: the shard stays degraded until demote/coreDown
	// returns one to the pool.
	st.target = -1
}

// syncDone installs the recruit as an in-sync member and lifts admission
// control.
func (cl *KVCluster) syncDone(p *sim.Proc, s int, b topo.CoreID) {
	st := cl.shards[s]
	st.isr = append(st.isr, b)
	sort.Slice(st.isr, func(i, j int) bool { return st.isr[i] < st.isr[j] })
	st.syncing = 1+len(st.isr) < cl.cfg.Replicas
	st.target = -1
	cl.stats.Syncs++
	cl.mSyncs.Inc()
	cl.updateShardGauge(s)
	cl.emit(p, b, "kv.sync_done", uint64(s), uint64(b))
	if st.syncing {
		cl.maybeRecruit(p, s)
	}
}

// syncFailed presumes the recruit dead (it never acked the transfer) and
// tries the next spare.
func (cl *KVCluster) syncFailed(p *sim.Proc, s int, b topo.CoreID) {
	st := cl.shards[s]
	if !st.syncing || st.target != b {
		return
	}
	st.target = -1
	st.syncing = false // maybeRecruit re-raises it
	cl.maybeRecruit(p, s)
}

func removeCore(s []topo.CoreID, c topo.CoreID) []topo.CoreID {
	out := s[:0]
	for _, x := range s {
		if x != c {
			out = append(out, x)
		}
	}
	return out
}

func containsCore(s []topo.CoreID, c topo.CoreID) bool {
	for _, x := range s {
		if x == c {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Server process

// pendingWrite is one admitted client write moving through replication.
type pendingWrite struct {
	key, val uint64
	reqID    uint64
	client   topo.CoreID
	waiting  map[topo.CoreID]bool // ISR backups yet to ack
	deadline sim.Time
	sent     bool
}

// pendingSync is one in-flight anti-entropy transfer this primary drives.
type pendingSync struct {
	target   topo.CoreID
	syncID   uint64
	deadline sim.Time
}

type kvServer struct {
	cl   *KVCluster
	core topo.CoreID
	proc *sim.Proc

	in, out map[topo.CoreID]*urpc.Channel // member mesh

	clients     []topo.CoreID // connected client cores, connect order
	clientReq   map[topo.CoreID]*urpc.Channel
	clientRsp   map[topo.CoreID]*urpc.Channel
	clientProcs map[topo.CoreID]*sim.Proc

	data  map[int]map[uint64]uint64 // shard -> committed rows
	dedup map[int]map[uint64]uint64 // shard -> reqID -> response flags

	pending  map[int][]*pendingWrite // shard -> admitted writes, FIFO
	syncs    map[int]*pendingSync    // shard -> in-flight transfer
	syncRecv map[int]*syncBuffer     // shard -> transfer being received

	gPending *metrics.Gauge // admitted writes queued, all shards

	nextSyncID uint64
}

// syncBuffer accumulates an incoming anti-entropy transfer until its end
// marker; the snapshot replaces the local copy atomically at install time.
type syncBuffer struct {
	from topo.CoreID
	rows map[uint64]uint64
	dups map[uint64]uint64
}

func newKVServer(cl *KVCluster, core topo.CoreID) *kvServer {
	srv := &kvServer{
		cl: cl, core: core,
		in:          make(map[topo.CoreID]*urpc.Channel),
		out:         make(map[topo.CoreID]*urpc.Channel),
		clientReq:   make(map[topo.CoreID]*urpc.Channel),
		clientRsp:   make(map[topo.CoreID]*urpc.Channel),
		clientProcs: make(map[topo.CoreID]*sim.Proc),
		data:        make(map[int]map[uint64]uint64),
		dedup:       make(map[int]map[uint64]uint64),
		pending:     make(map[int][]*pendingWrite),
		syncs:       make(map[int]*pendingSync),
		syncRecv:    make(map[int]*syncBuffer),
		gPending:    cl.eng.Metrics().Gauge(fmt.Sprintf("kv.server.%d.pending", core)),
	}
	for s := 0; s < cl.cfg.Shards; s++ {
		srv.data[s] = make(map[uint64]uint64)
		srv.dedup[s] = make(map[uint64]uint64)
	}
	return srv
}

// busy reports whether the server holds protocol state that forbids parking:
// its deadlines are its failure detector.
func (srv *kvServer) busy() bool {
	for _, q := range srv.pending {
		if len(q) > 0 {
			return true
		}
	}
	return len(srv.syncs) > 0
}

func (srv *kvServer) run(p *sim.Proc) {
	p.SetDaemon(true)
	cl := srv.cl
	idle := 0
	var buf [16]urpc.Message
	for {
		progress := false
		// 1) Mesh traffic first: replication acks and anti-entropy answers
		// unblock pending client writes, and draining every ready repl
		// message before any snapshot is taken is what keeps a promoted
		// backup's transfer a superset of everything the dead primary
		// published.
		for _, src := range cl.members {
			ch, ok := srv.in[src]
			if !ok {
				continue
			}
			n := ch.Recv(p, buf[:], urpc.Poll)
			for i := 0; i < n; i++ {
				srv.handleMesh(p, src, buf[i])
			}
			if n > 0 {
				progress = true
			}
		}
		// 2) Client requests.
		for _, c := range srv.clients {
			n := srv.clientReq[c].Recv(p, buf[:], urpc.Poll)
			for i := 0; i < n; i++ {
				srv.handleClient(p, c, buf[i])
			}
			if n > 0 {
				progress = true
			}
		}
		// 3) Drive pending writes (send repl, collect acks, commit, demote
		// laggards) and anti-entropy transfers.
		if srv.serviceWrites(p) {
			progress = true
		}
		if srv.serviceSyncs(p) {
			progress = true
		}
		p.Sleep(100)
		if progress {
			idle = 0
			continue
		}
		idle++
		if idle < 40 || srv.busy() {
			p.Sleep(400)
			continue
		}
		p.Park()
		idle = 0
	}
}

// primaryOf reports whether this core currently leads shard s (charging the
// map lookup).
func (srv *kvServer) primaryOf(p *sim.Proc, s int) bool {
	p.Sleep(ckMapLookup)
	return srv.cl.shards[s].primary == srv.core
}

func (srv *kvServer) reply(p *sim.Proc, client topo.CoreID, val, flags, status, reqID uint64) {
	ch := srv.clientRsp[client]
	if ch.Send(p, []urpc.Message{{val, flags, status, reqID}}, urpc.Deadline(ckRequestTimeout)) > 0 {
		if pr := srv.clientProcs[client]; pr != nil {
			srv.cl.eng.Wake(pr)
		}
	}
}

func (srv *kvServer) handleClient(p *sim.Proc, client topo.CoreID, m urpc.Message) {
	p.Sleep(ckServe)
	key, val, op, reqID := m[0], m[1], m[2], m[3]
	cl := srv.cl
	s := cl.shardOfKey(key)
	if !srv.primaryOf(p, s) {
		cl.stats.WrongEpoch++
		srv.reply(p, client, 0, 0, ckStatusWrongPrimary, reqID)
		return
	}
	switch op {
	case ckOpGet:
		// Reads serve the committed copy only: a write becomes visible at
		// its local apply, which happens strictly after full ISR replication
		// — so no read ever exposes data a fail-over could lose.
		v, found := srv.data[s][key]
		f := uint64(0)
		if found {
			f = 1
		}
		srv.reply(p, client, v, f, ckStatusOK, reqID)
	case ckOpPut:
		if flags, hit := srv.dedup[s][reqID]; hit {
			// Exactly-once: a retry of a write already committed (for
			// example acked by a primary that died before the client heard
			// it... or re-routed after a promotion) answers from the table.
			cl.stats.DedupHits++
			srv.reply(p, client, val, flags, ckStatusOK, reqID)
			return
		}
		if _, exists := srv.data[s][key]; !exists {
			// UPDATE of a missing row matches nothing; no state changes, so
			// nothing needs replicating. Record it for retry idempotence.
			srv.dedup[s][reqID] = 0
			srv.reply(p, client, val, 0, ckStatusOK, reqID)
			return
		}
		if cl.cfg.Mut == KVMutAckDrop {
			// Planted defect: apply and ack with no replication at all.
			p.Sleep(ckApply)
			srv.data[s][key] = val
			srv.dedup[s][reqID] = 1
			srv.reply(p, client, val, 1, ckStatusOK, reqID)
			return
		}
		st := cl.shards[s]
		if st.syncing || len(st.isr) == 0 {
			// Below replication target: an ack here could be a lie (no
			// surviving copy), so admission control sheds instead.
			cl.stats.Shed++
			cl.mShed.Inc()
			cl.emit(p, srv.core, "kv.shed", uint64(s), reqID)
			srv.reply(p, client, 0, 0, ckStatusDegraded, reqID)
			return
		}
		srv.pending[s] = append(srv.pending[s], &pendingWrite{
			key: key, val: val, reqID: reqID, client: client,
		})
		srv.gPending.Add(1)
	}
}

func (srv *kvServer) handleMesh(p *sim.Proc, src topo.CoreID, m urpc.Message) {
	cl := srv.cl
	op := m[2]
	s := int(m[4])
	switch op {
	case ckOpRepl:
		// Always apply and ack — even from a core the map has since demoted.
		// A stale primary's client ack necessarily lands after this apply,
		// so its write simply linearizes late; refusing would instead turn
		// its already-acked writes into losses.
		key, val, reqID := m[0], m[1], m[3]
		p.Sleep(ckApply)
		if _, hit := srv.dedup[s][reqID]; !hit {
			srv.data[s][key] = val
			srv.dedup[s][reqID] = 1
		}
		if ch, ok := srv.out[src]; ok {
			if ch.Send(p, []urpc.Message{{key, 1, ckOpReplAck, reqID, uint64(s)}}, urpc.Deadline(ckReplTimeout)) > 0 {
				cl.wakeServer(src)
			}
		}
	case ckOpReplAck:
		reqID := m[3]
		if q := srv.pending[s]; len(q) > 0 && q[0].reqID == reqID && q[0].waiting != nil {
			delete(q[0].waiting, src)
		}
	case ckOpSyncRow:
		sb := srv.ensureSyncBuffer(s, src)
		sb.rows[m[0]] = m[1]
	case ckOpSyncDup:
		sb := srv.ensureSyncBuffer(s, src)
		sb.dups[m[0]] = m[1]
	case ckOpSyncEnd:
		// Install the snapshot (replacing the local copy — this core may
		// hold stale rows from an earlier demotion) and confirm.
		sb := srv.ensureSyncBuffer(s, src)
		p.Sleep(ckApply + sim.Time(len(sb.rows))*ckSyncRow/4)
		srv.data[s] = sb.rows
		srv.dedup[s] = sb.dups
		delete(srv.syncRecv, s)
		if ch, ok := srv.out[src]; ok {
			if ch.Send(p, []urpc.Message{{0, 0, ckOpSyncAck, m[3], uint64(s)}}, urpc.Deadline(ckSyncTimeout)) > 0 {
				cl.wakeServer(src)
			}
		}
	case ckOpSyncAck:
		ps, ok := srv.syncs[s]
		if !ok || ps.syncID != m[3] {
			return // stale ack for a transfer already abandoned
		}
		delete(srv.syncs, s)
		cl.syncDone(p, s, ps.target)
	}
}

func (srv *kvServer) ensureSyncBuffer(s int, from topo.CoreID) *syncBuffer {
	sb, ok := srv.syncRecv[s]
	if !ok || sb.from != from {
		sb = &syncBuffer{from: from, rows: make(map[uint64]uint64), dups: make(map[uint64]uint64)}
		srv.syncRecv[s] = sb
	}
	return sb
}

// serviceWrites drives each shard's head-of-line pending write one step.
// Collection is non-blocking state-machine style, never an awaited RPC: two
// cores that are primaries of different shards and backups of each other
// would deadlock if either blocked waiting for the other's ack.
func (srv *kvServer) serviceWrites(p *sim.Proc) bool {
	cl := srv.cl
	progress := false
	for s := 0; s < cl.cfg.Shards; s++ {
		q := srv.pending[s]
		if len(q) == 0 {
			continue
		}
		if cl.shards[s].primary != srv.core {
			// Demoted with writes in flight: never ack them (the new primary
			// owns the shard); tell the clients to re-resolve.
			for _, w := range q {
				srv.reply(p, w.client, 0, 0, ckStatusWrongPrimary, w.reqID)
			}
			srv.pending[s] = nil
			srv.gPending.Add(-int64(len(q)))
			progress = true
			continue
		}
		w := q[0]
		if !w.sent {
			st := cl.shards[s]
			w.waiting = make(map[topo.CoreID]bool, len(st.isr))
			for _, b := range st.isr {
				if srv.out[b].Send(p, []urpc.Message{{w.key, w.val, ckOpRepl, w.reqID, uint64(s)}}, urpc.Deadline(ckReplTimeout)) > 0 {
					w.waiting[b] = true
					cl.wakeServer(b)
				} else {
					// Channel dead or ring jammed past the deadline: demote
					// now, before any ack could depend on this backup.
					cl.demote(p, s, b)
				}
			}
			w.sent = true
			w.deadline = p.Now() + ckReplTimeout
			progress = true
		}
		if len(w.waiting) == 0 {
			srv.commitWrite(p, s, w)
			srv.pending[s] = q[1:]
			srv.gPending.Add(-1)
			progress = true
			continue
		}
		if p.Now() >= w.deadline {
			// Laggards are demoted BEFORE the ack decision. Whoever did ack
			// still carries the write, so committing on the survivors keeps
			// the invariant; if nobody acked, the shard just lost its whole
			// in-sync set and the write cannot be safely acked at all.
			for _, b := range sortedCoreSet(w.waiting) {
				cl.demote(p, s, b)
			}
			w.waiting = make(map[topo.CoreID]bool)
			if len(cl.shards[s].isr) == 0 {
				cl.stats.Shed++
				cl.mShed.Inc()
				srv.reply(p, w.client, 0, 0, ckStatusDegraded, w.reqID)
				srv.pending[s] = q[1:]
			} else {
				srv.commitWrite(p, s, w)
				srv.pending[s] = q[1:]
			}
			srv.gPending.Add(-1)
			progress = true
		}
	}
	return progress
}

// commitWrite applies a fully-replicated write locally and acks the client —
// the linearization point.
func (srv *kvServer) commitWrite(p *sim.Proc, s int, w *pendingWrite) {
	p.Sleep(ckApply)
	srv.data[s][w.key] = w.val
	srv.dedup[s][w.reqID] = 1
	srv.reply(p, w.client, w.val, 1, ckStatusOK, w.reqID)
}

// serviceSyncs starts and times out anti-entropy transfers for shards this
// core leads. A transfer only starts once the shard's pending queue is dry
// (new writes are shed while degraded, so it drains), which makes the
// snapshot trivially consistent.
func (srv *kvServer) serviceSyncs(p *sim.Proc) bool {
	cl := srv.cl
	progress := false
	for s := 0; s < cl.cfg.Shards; s++ {
		st := cl.shards[s]
		if st.primary != srv.core {
			continue
		}
		if ps, ok := srv.syncs[s]; ok && p.Now() >= ps.deadline {
			delete(srv.syncs, s)
			cl.syncFailed(p, s, ps.target)
			progress = true
		}
		if _, ok := srv.syncs[s]; ok {
			continue
		}
		if !st.syncing || st.target < 0 || len(srv.pending[s]) > 0 {
			continue
		}
		srv.startSync(p, s, st.target)
		progress = true
	}
	return progress
}

// startSync streams the full shard copy — rows AND the dedup table, so
// exactly-once survives the transfer — to the recruit.
func (srv *kvServer) startSync(p *sim.Proc, s int, target topo.CoreID) {
	cl := srv.cl
	srv.nextSyncID++
	id := srv.nextSyncID
	ch := srv.out[target]
	// Wake the recruit before streaming: the transfer can be longer than the
	// ring, so the receiver must drain concurrently or the sends would stall
	// against a parked core until the sync deadline.
	cl.wakeServer(target)
	rows := sortedKeys(srv.data[s])
	dups := sortedKeys(srv.dedup[s])
	ok := true
	for _, k := range rows {
		p.Sleep(ckSyncRow)
		if ch.Send(p, []urpc.Message{{k, srv.data[s][k], ckOpSyncRow, 0, uint64(s)}}, urpc.Deadline(ckSyncTimeout)) == 0 {
			ok = false
			break
		}
	}
	if ok {
		for _, k := range dups {
			p.Sleep(ckSyncRow)
			if ch.Send(p, []urpc.Message{{k, srv.dedup[s][k], ckOpSyncDup, 0, uint64(s)}}, urpc.Deadline(ckSyncTimeout)) == 0 {
				ok = false
				break
			}
		}
	}
	if ok {
		ok = ch.Send(p, []urpc.Message{{uint64(len(rows)), uint64(len(dups)), ckOpSyncEnd, id, uint64(s)}}, urpc.Deadline(ckSyncTimeout)) > 0
	}
	if !ok {
		cl.syncFailed(p, s, target)
		return
	}
	cl.wakeServer(target)
	srv.syncs[s] = &pendingSync{target: target, syncID: id, deadline: p.Now() + ckSyncTimeout}
}

func sortedCoreSet(set map[topo.CoreID]bool) []topo.CoreID {
	out := make([]topo.CoreID, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedKeys(m map[uint64]uint64) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------------------------------
// Fault-aware client

// ClusterClient is a fault-aware caller: it connects to every member core up
// front (fail-over must not require new channel construction), runs each
// attempt under a deadline, and on ChannelDead / wrong-primary / degraded
// verdicts backs off with a seeded-jitter RetryPolicy, re-resolves the shard
// map, and retries against the current primary — same reqID, so writes stay
// exactly-once across fail-over.
type ClusterClient struct {
	cl   *KVCluster
	core topo.CoreID
	req  map[topo.CoreID]*urpc.Channel
	rsp  map[topo.CoreID]*urpc.Channel

	retry  urpc.RetryPolicy
	serial uint64
	id     uint64
}

// Connect builds a client on the given core. The retry policy's jitter
// stream is seeded from the engine RNG at construction — construction order
// is program order, so runs replay identically.
func (cl *KVCluster) Connect(core topo.CoreID) *ClusterClient {
	c := &ClusterClient{
		cl: cl, core: core,
		req: make(map[topo.CoreID]*urpc.Channel),
		rsp: make(map[topo.CoreID]*urpc.Channel),
		id:  uint64(core) + 1,
		retry: urpc.NewRetryPolicy(
			50_000, 800_000, 14, 0.2, sim.NewRNG(cl.eng.RNG().Uint64()),
		),
	}
	sys := cl.sys
	for _, m := range cl.members {
		c.req[m] = urpc.New(sys, core, m, urpc.Options{Slots: 8, Home: int(sys.Machine().Socket(m))})
		c.rsp[m] = urpc.New(sys, m, core, urpc.Options{Slots: 8, Home: int(sys.Machine().Socket(core))})
		srv := cl.byCore[m]
		srv.clients = append(srv.clients, core)
		srv.clientReq[core] = c.req[m]
		srv.clientRsp[core] = c.rsp[m]
		// Parallel boot: a request arriving from a cross-partition client is
		// the server's interrupt.
		dst := m
		c.req[m].OnRemoteDeliver = func() { cl.wakeServer(dst) }
		cl.wakeServer(m)
	}
	// Register the client proc lazily: the first request records it.
	return c
}

// call runs one request to completion across retries. Returns the response
// value and flags, or a typed error once the retry budget is spent:
// ErrDegraded if admission control was the last thing heard, otherwise
// ErrRetriesExhausted.
func (c *ClusterClient) call(p *sim.Proc, key, val, op, reqID uint64) (uint64, uint64, error) {
	start := p.Now()
	lastDegraded := false
	for attempt := 0; ; attempt++ {
		if c.retry.Exhausted(attempt) {
			if lastDegraded {
				return 0, 0, ErrDegraded
			}
			return 0, 0, ErrRetriesExhausted
		}
		if attempt > 0 {
			p.Sleep(c.retry.Gap(attempt - 1))
		}
		v, f, status, got := c.attempt(p, key, val, op, reqID)
		if got && status == ckStatusOK {
			// End-to-end latency including all retries — the tail the health
			// monitor watches for degradation.
			c.cl.hOps.Observe(uint64(p.Now() - start))
			return v, f, nil
		}
		lastDegraded = got && status == ckStatusDegraded
	}
}

// attempt runs a single deadline-bounded try against the current primary.
// got reports whether a verdict arrived at all (false: leaderless shard,
// dead channel, or deadline expiry — back off and re-resolve).
func (c *ClusterClient) attempt(p *sim.Proc, key, val, op, reqID uint64) (v, f, status uint64, got bool) {
	cl := c.cl
	p.Sleep(ckMapLookup)
	s := cl.shardOfKey(key)
	primary := cl.shards[s].primary
	if primary < 0 || cl.downSeen[primary] {
		return 0, 0, 0, false // shard leaderless right now
	}
	srv := cl.byCore[primary]
	if srv.clientProcs[c.core] == nil {
		srv.clientProcs[c.core] = p
	}
	reqCh, rspCh := c.req[primary], c.rsp[primary]
	if reqCh.Dead() {
		return 0, 0, 0, false
	}
	if reqCh.Send(p, []urpc.Message{{key, val, op, reqID}}, urpc.Deadline(ckRequestTimeout)) == 0 {
		reqCh.MarkDead()
		return 0, 0, 0, false
	}
	cl.wakeServer(primary)
	deadline := p.Now() + ckRequestTimeout
	var m [1]urpc.Message
	for {
		remain := deadline - p.Now()
		if remain <= 0 || rspCh.Recv(p, m[:], urpc.Deadline(remain)) == 0 {
			return 0, 0, 0, false
		}
		if m[0][3] != reqID {
			continue // stale response from an earlier attempt to this core
		}
		return m[0][0], m[0][1], m[0][2], true
	}
}

// Get performs a fault-tolerant GET. Traced as "kv.select" (same span
// protocol as KVClient) — one span covers all retries, ending only on
// success, so a request that never completed is an incomplete history op.
func (c *ClusterClient) Get(p *sim.Proc, key uint64) (uint64, bool, error) {
	rec := c.cl.eng.Tracer()
	var id uint64
	if rec != nil {
		id = c.cl.eng.Serial()<<20 | key
		rec.Emit(uint64(p.Now()), trace.AsyncBegin, trace.SubApp, int32(c.core), "kv.select", id, 0)
	}
	c.serial++
	v, f, err := c.call(p, key, 0, ckOpGet, c.id<<32|c.serial)
	if err != nil {
		return 0, false, err
	}
	if rec != nil {
		rec.Emit(uint64(p.Now()), trace.AsyncEnd, trace.SubApp, int32(c.core), "kv.select", id, 2*v+f)
	}
	return v, f == 1, nil
}

// Put performs a fault-tolerant PUT, reporting whether the key existed.
// Traced as "kv.update"; retries carry the same reqID, so the write applies
// exactly once no matter how many primaries it crossed.
func (c *ClusterClient) Put(p *sim.Proc, key, val uint64) (bool, error) {
	rec := c.cl.eng.Tracer()
	var id uint64
	if rec != nil {
		id = c.cl.eng.Serial()<<20 | key
		rec.Emit(uint64(p.Now()), trace.AsyncBegin, trace.SubApp, int32(c.core), "kv.update", id, val)
	}
	c.serial++
	_, f, err := c.call(p, key, val, ckOpPut, c.id<<32|c.serial)
	if err != nil {
		return false, err
	}
	if rec != nil {
		rec.Emit(uint64(p.Now()), trace.AsyncEnd, trace.SubApp, int32(c.core), "kv.update", id, f)
	}
	return f == 1, nil
}

// ---------------------------------------------------------------------------
// Failure detector

// StartFailureDetector spawns a heartbeat process that pings every member
// core round-robin from the given monitor. A ping to a dead member expires
// the monitor's op deadline, which excises the core from the view — and the
// excision hook drives promotion. Detection latency is therefore
// period + the monitor's ping deadline.
func (cl *KVCluster) StartFailureDetector(net *monitor.Network, from topo.CoreID, period sim.Time) {
	mon := net.Monitor(from)
	cl.eng.Spawn(fmt.Sprintf("kvhb@c%d", from), func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			for _, m := range cl.members {
				if m == from || cl.downSeen[m] || net.CoreFailed(from) {
					continue
				}
				mon.Ping(p, m)
			}
			p.Sleep(period)
		}
	})
}
