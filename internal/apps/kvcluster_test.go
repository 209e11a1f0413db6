package apps

import (
	"errors"
	"testing"

	"multikernel/internal/kernel"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/skb"
	"multikernel/internal/topo"
)

func TestClusterBasicReadWrite(t *testing.T) {
	e, sys := newSys(topo.AMD4x4())
	cl := NewKVCluster(e, sys, nil, ClusterConfig{
		Rows:    16,
		Servers: []topo.CoreID{2, 3, 6},
	})
	c := cl.Connect(1)
	var fail string
	e.Spawn("client", func(p *sim.Proc) {
		for k := uint64(0); k < 16; k++ {
			v, found, err := c.Get(p, k)
			if err != nil || !found || v != k*2654435761+1 {
				fail = "seeded read wrong"
				return
			}
		}
		if applied, err := c.Put(p, 3, 777); err != nil || !applied {
			fail = "put existing key failed"
			return
		}
		if v, found, err := c.Get(p, 3); err != nil || !found || v != 777 {
			fail = "read-your-write failed"
			return
		}
		// Missing-key writes match nothing but must still complete.
		if applied, err := c.Put(p, 999, 1); err != nil || applied {
			fail = "put missing key misbehaved"
			return
		}
		if _, found, err := c.Get(p, 999); err != nil || found {
			fail = "missing key turned up"
			return
		}
	})
	e.RunUntil(50_000_000)
	if fail != "" {
		t.Fatal(fail)
	}
	st := cl.Stats()
	if st.Promotions != 0 || st.Demotions != 0 || st.Shed != 0 {
		t.Fatalf("healthy cluster saw control-plane churn: %+v", st)
	}
}

func TestClusterWriteReplicatedToBackupBeforeAck(t *testing.T) {
	e, sys := newSys(topo.AMD4x4())
	cl := NewKVCluster(e, sys, nil, ClusterConfig{
		Rows:    8,
		Servers: []topo.CoreID{2, 3, 6},
	})
	c := cl.Connect(1)
	var fail string
	e.Spawn("client", func(p *sim.Proc) {
		key := uint64(0)
		if _, err := c.Put(p, key, 4242); err != nil {
			fail = "put failed"
			return
		}
		// The ack means every in-sync replica holds the write already.
		s := cl.shardOfKey(key)
		st := cl.shards[s]
		if len(st.isr) == 0 {
			fail = "shard has no backups"
			return
		}
		for _, b := range st.isr {
			if cl.byCore[b].data[s][key] != 4242 {
				fail = "acked write missing on an in-sync backup"
				return
			}
		}
		if cl.byCore[st.primary].data[s][key] != 4242 {
			fail = "acked write missing on primary"
		}
	})
	e.RunUntil(20_000_000)
	if fail != "" {
		t.Fatal(fail)
	}
}

// clusterFaultFixture boots a cluster on a monitor network with fault
// tolerance armed and a heartbeat failure detector on core 0.
func clusterFaultFixture(t *testing.T, cfg ClusterConfig) (*sim.Engine, *KVCluster, *monitor.Network) {
	t.Helper()
	e, sys := newSys(topo.AMD4x4())
	m := sys.Machine()
	kern := kernel.NewSystem(e, m)
	kb := skb.New(m)
	kb.Discover()
	kb.Measure()
	net := monitor.NewNetwork(e, sys, kern, kb, monitor.Hooks{})
	net.EnableFaultTolerance(100_000)
	cl := NewKVCluster(e, sys, net, cfg)
	cl.StartFailureDetector(net, 0, 400_000)
	return e, cl, net
}

func TestClusterFailoverNoAckedWriteLost(t *testing.T) {
	e, cl, net := clusterFaultFixture(t, ClusterConfig{
		Rows:    16,
		Servers: []topo.CoreID{2, 3, 6},
		Spares:  []topo.CoreID{8, 12},
	})
	victim := cl.Primary(cl.shardOfKey(0))

	c := cl.Connect(1)
	acked := map[uint64]uint64{}
	var fail string
	e.Spawn("client", func(p *sim.Proc) {
		// Writes straddle the kill; only acked ones count.
		for i := 0; i < 60; i++ {
			key := uint64(i % 8)
			val := uint64(10_000 + i)
			if applied, err := c.Put(p, key, val); err == nil && applied {
				acked[key] = val
			}
			p.Sleep(60_000)
		}
		// Final read pass: every acked write must still be there.
		for key, want := range acked {
			v, found, err := c.Get(p, key)
			if err != nil {
				fail = "final read failed"
				return
			}
			if !found || v != want {
				fail = "acked write lost"
				return
			}
		}
	})
	// Kill the primary of key 0's shard mid-run: writes are in flight.
	e.After(900_000, func() {
		cl.KillCore(victim)
		net.FailStop(victim)
	})
	e.RunUntil(120_000_000)
	if fail != "" {
		t.Fatalf("%s (stats %+v)", fail, cl.Stats())
	}
	st := cl.Stats()
	if st.Promotions == 0 {
		t.Fatalf("primary died but nothing was promoted: %+v", st)
	}
	if st.Syncs == 0 {
		t.Fatalf("no anti-entropy transfer completed: %+v", st)
	}
	for s := 0; s < cl.Shards(); s++ {
		if cl.Primary(s) == victim {
			t.Fatalf("shard %d still led by the dead core", s)
		}
		if cl.Degraded(s) {
			t.Fatalf("shard %d still degraded at the horizon", s)
		}
	}
}

func TestClusterAckDropMutationLosesAckedWrite(t *testing.T) {
	// Sanity-check the planted defect: with KVMutAckDrop the primary acks
	// without replicating, so killing it MUST lose an acked write — this is
	// what the model checker's kv-failover self-test relies on.
	e, cl, net := clusterFaultFixture(t, ClusterConfig{
		Rows:    8,
		Servers: []topo.CoreID{2, 3, 6},
		Spares:  []topo.CoreID{8},
		Mut:     KVMutAckDrop,
	})
	victim := cl.Primary(cl.shardOfKey(0))
	c := cl.Connect(1)
	var ackedVal uint64
	var lost bool
	var fail string
	e.Spawn("client", func(p *sim.Proc) {
		if applied, err := c.Put(p, 0, 5555); err != nil || !applied {
			fail = "mutated put not acked"
			return
		}
		ackedVal = 5555
		// Wait out detection + promotion, then read the key back.
		p.Sleep(5_000_000)
		v, found, err := c.Get(p, 0)
		if err != nil {
			fail = "read after fail-over failed"
			return
		}
		lost = !found || v != ackedVal
	})
	e.After(400_000, func() {
		cl.KillCore(victim)
		net.FailStop(victim)
	})
	e.RunUntil(60_000_000)
	if fail != "" {
		t.Fatal(fail)
	}
	if !lost {
		t.Fatal("KVMutAckDrop should lose the acked write when the primary dies")
	}
}

func TestClusterDegradedShedsWrites(t *testing.T) {
	// With no spares, losing a backup leaves the shard below target forever:
	// writes must shed with ErrDegraded while reads stay available.
	e, cl, net := clusterFaultFixture(t, ClusterConfig{
		Rows:    8,
		Shards:  1,
		Servers: []topo.CoreID{2, 3},
	})
	backup := cl.shards[0].isr[0]
	c := cl.Connect(1)
	var werr error
	var readOK bool
	e.Spawn("client", func(p *sim.Proc) {
		p.Sleep(3_000_000) // past detection
		_, werr = c.Put(p, 0, 1234)
		_, found, rerr := c.Get(p, 0)
		readOK = rerr == nil && found
	})
	e.After(200_000, func() {
		cl.KillCore(backup)
		net.FailStop(backup)
	})
	e.RunUntil(60_000_000)
	if !errors.Is(werr, ErrDegraded) {
		t.Fatalf("write to under-replicated shard: got %v, want ErrDegraded", werr)
	}
	if !readOK {
		t.Fatal("reads should stay available while degraded")
	}
	if cl.Stats().Shed == 0 {
		t.Fatal("admission control never shed")
	}
}
