// kvstore demonstrates the multikernel's answer to partial failure: a
// key-value service sharded across server cores by consistent hashing, each
// shard replicated over URPC to an in-sync set of backups. A write is
// acknowledged only after every in-sync backup holds it, so when primaries
// fail-stop mid-run the monitors' deadline detection excises them from the
// replicated view, a backup is promoted, a spare core is drafted and brought
// current by anti-entropy — and every acknowledged write survives.
//
// Flags: -shards and -replicas size the cluster, -kill fail-stops that many
// primaries while clients are writing, and -seed picks the engine seed.
package main

import (
	"flag"
	"fmt"

	"multikernel"
	"multikernel/internal/apps"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

func main() {
	shards := flag.Int("shards", 4, "consistent-hash shards")
	replicas := flag.Int("replicas", 2, "copies per shard, primary included")
	kill := flag.Int("kill", 1, "primaries to fail-stop mid-run")
	seed := flag.Uint64("seed", 7, "engine seed")
	flag.Parse()
	if *kill > 3 {
		*kill = 3 // leave enough cores for the shards to live somewhere
	}

	m := multikernel.AMD4x4()
	e := multikernel.NewEngine(*seed)
	sys := multikernel.Boot(e, m)
	fmt.Printf("booted on %v\n\n", m)
	sys.Net.EnableFaultTolerance(100_000)

	servers := []topo.CoreID{2, 3, 6, 7}
	spares := []topo.CoreID{8, 12}
	cluster := apps.NewKVCluster(e, sys.Cache, sys.Net, apps.ClusterConfig{
		Shards:   *shards,
		Replicas: *replicas,
		Rows:     16,
		Servers:  servers,
		Spares:   spares,
	})
	cluster.StartFailureDetector(sys.Net, 0, 400_000)

	showMap := func(label string) {
		fmt.Println(label)
		for s := 0; s < cluster.Shards(); s++ {
			state := "ok"
			if cluster.Degraded(s) {
				state = "re-replicating"
			}
			if cluster.Primary(s) < 0 {
				state = "DOWN"
			}
			fmt.Printf("  shard %d: primary core %-2d (%s)\n", s, cluster.Primary(s), state)
		}
	}
	showMap(fmt.Sprintf("shard map (%d shards x %d replicas on servers %v, spares %v):",
		cluster.Shards(), *replicas, servers, spares))

	// Fail-stop primaries while the clients below are mid-stream. Victims
	// are resolved at kill time so each kill hits a core that is actually
	// leading a shard at that moment.
	type killRec struct {
		at       sim.Time
		core     topo.CoreID
		affected map[uint64]bool
	}
	var kills []killRec
	killed := map[topo.CoreID]bool{}
	clientEnd := sim.Time(2_000_000 + *kill*6_000_000)
	for i := 0; i < *kill; i++ {
		e.After(sim.Time(1_500_000+i*6_000_000), func() {
			for s := 0; s < cluster.Shards(); s++ {
				victim := cluster.Primary(s)
				if victim < 0 || killed[victim] {
					continue
				}
				killed[victim] = true
				aff := make(map[uint64]bool)
				for k := uint64(0); k < 8; k++ {
					if cluster.Primary(cluster.ShardOfKey(k)) == victim {
						aff[k] = true
					}
				}
				fmt.Printf("t=%-9d FAIL-STOP core %d (primary of shard %d)\n", e.Now(), victim, s)
				kills = append(kills, killRec{at: e.Now(), core: victim, affected: aff})
				cluster.KillCore(victim)
				sys.Net.FailStop(victim)
				return
			}
		})
	}

	// Two writer clients on disjoint key halves (so "last acknowledged value
	// per key" is well defined), both also reading across the whole space.
	type completion struct {
		at  sim.Time
		key uint64
	}
	var completions []completion
	lastAcked := map[uint64]uint64{}
	var acked, errs int
	done := sim.NewWaitGroup(e)
	clientCores := []topo.CoreID{1, 5}
	done.Add(len(clientCores))
	for ci, c := range clientCores {
		ci, cl := ci, cluster.Connect(c)
		e.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			defer done.Done()
			for i := 0; p.Now() < clientEnd; i++ {
				key := uint64(2*(i%4) + ci) // client 0 writes even keys, client 1 odd
				val := uint64(i + 1)
				if ok, err := cl.Put(p, key, val); err == nil && ok {
					if val > lastAcked[key] {
						lastAcked[key] = val
					}
					acked++
					completions = append(completions, completion{at: p.Now(), key: key})
				} else {
					errs++
				}
				if _, _, err := cl.Get(p, uint64(i%8)); err == nil {
					completions = append(completions, completion{at: p.Now(), key: uint64(i % 8)})
				}
				p.Sleep(40_000)
			}
		})
	}

	// After the clients drain, verify the tentpole invariant: every key must
	// read back at least its last acknowledged value (a newer unacked retry
	// may have landed; an older one means an acked write was rolled back).
	verifier := cluster.Connect(10)
	e.Spawn("verify", func(p *sim.Proc) {
		done.Wait(p)
		p.Sleep(2_000_000) // let the last fail-over finish re-replicating
		lost := 0
		for k := uint64(0); k < 8; k++ {
			want, wrote := lastAcked[k]
			if !wrote {
				continue
			}
			got, found, err := verifier.Get(p, k)
			switch {
			case err != nil || !found:
				fmt.Printf("  key %d: last acked %-5d  read FAILED (%v)\n", k, want, err)
				lost++
			case got < want:
				fmt.Printf("  key %d: last acked %-5d  read %-5d  *** ACKED WRITE LOST ***\n", k, want, got)
				lost++
			default:
				fmt.Printf("  key %d: last acked %-5d  read %-5d  ok\n", k, want, got)
			}
		}
		fmt.Println()
		for _, kr := range kills {
			for _, c := range completions {
				if c.at >= kr.at && kr.affected[c.key] {
					fmt.Printf("core %d fail-over: first successful op on an affected shard after %d cycles (%.0f ns)\n",
						kr.core, c.at-kr.at, m.Nanoseconds(c.at-kr.at))
					break
				}
			}
		}
		st := cluster.Stats()
		fmt.Printf("\n%d writes acked, %d requests shed or failed during fail-over\n", acked, errs)
		fmt.Printf("promotions=%d recruits=%d anti-entropy syncs=%d demotions=%d shed=%d\n",
			st.Promotions, st.Recruits, st.Syncs, st.Demotions, st.Shed)
		showMap("final shard map:")
		if lost > 0 {
			panic("acknowledged writes were lost")
		}
		fmt.Printf("\nVERIFIED: no acknowledged write lost across %d fail-stop(s)\n", len(kills))
	})
	e.RunUntil(clientEnd + 30_000_000)
	e.Close()
}
