// Package apps contains the application workloads of the paper's
// evaluation: the shared-memory-versus-messages update microbenchmark
// (Figure 3), skeletons of the NAS OpenMP and SPLASH-2 compute benchmarks
// (Figure 9), a UDP echo service, a web server and a relational-ish
// key-value store (§5.4). The KV service, SelectRange's wait and the kv
// cluster's servers poll their rings through urpc.Pass, whose quiet polls
// the engine skips.
package apps

import (
	"fmt"

	"multikernel/internal/cache"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/stats"
	"multikernel/internal/topo"
	"multikernel/internal/urpc"
)

// SharedUpdateResult is one point of the Figure 3 experiment.
type SharedUpdateResult struct {
	ClientLatency stats.Sample // per-operation latency seen by clients
	ServerCost    stats.Sample // per-operation cost at the server (MSG only)
}

// SHMUpdate runs the shared-memory side of Figure 3: nClients threads pinned
// to distinct cores directly update the same `lines` cache lines (without
// locking) and the latency of each update is recorded. The cache-coherence
// model serializes the contended lines, reproducing the linear degradation.
func SHMUpdate(e *sim.Engine, sys *cache.System, nClients, lines, iters int) *SharedUpdateResult {
	res := &SharedUpdateResult{}
	buf := sys.Memory().AllocLines(lines, 0)
	done := sim.NewWaitGroup(e)
	done.Add(nClients)
	for c := 0; c < nClients; c++ {
		core := topo.CoreID(c)
		e.Spawn(fmt.Sprintf("shm%d", c), func(p *sim.Proc) {
			defer done.Done()
			p.Sleep(e.RNG().Time(200)) // stagger thread start-up
			for it := 0; it < iters; it++ {
				start := p.Now()
				// All threads sweep the same lines in the same order, as the
				// paper's microbenchmark does.
				for l := 0; l < lines; l++ {
					sys.Store(p, core, buf.LineAt(l), uint64(it))
				}
				res.ClientLatency.Add(float64(p.Now() - start))
			}
		})
	}
	e.Run()
	e.CheckQuiesced()
	return res
}

// MSGUpdate runs the message-passing side of Figure 3: nClients issue
// synchronous lightweight RPCs (one cache-line request) to a single server
// core which performs the `lines`-line update on its local replica and
// replies. Requests queue at the server, so client latency grows with client
// count while the server-side cost per operation stays flat.
func MSGUpdate(e *sim.Engine, sys *cache.System, nClients, lines, iters int) *SharedUpdateResult {
	res := &SharedUpdateResult{}
	serverCore := topo.CoreID(0)
	buf := sys.Memory().AllocLines(lines, 0)

	type rpc struct {
		req  *urpc.Channel
		resp *urpc.Channel
	}
	chans := make([]rpc, nClients)
	for c := 0; c < nClients; c++ {
		client := topo.CoreID(c + 1)
		chans[c] = rpc{
			req:  urpc.New(sys, client, serverCore, urpc.Options{Slots: 4, Home: int(sys.Machine().Socket(serverCore))}),
			resp: urpc.New(sys, serverCore, client, urpc.Options{Slots: 4, Home: int(sys.Machine().Socket(client))}),
		}
	}

	total := nClients * iters
	e.Spawn("server", func(p *sim.Proc) {
		handled := 0
		var msg [1]urpc.Message
		for handled < total {
			progress := false
			for i := range chans {
				start := p.Now()
				if chans[i].req.Recv(p, msg[:], urpc.Poll) == 0 {
					continue
				}
				progress = true
				handled++
				// Apply the update to the server-local replica: all hits.
				for l := 0; l < lines; l++ {
					sys.Store(p, serverCore, buf.LineAt(l), msg[0][0])
				}
				chans[i].resp.Send(p, msg[:], urpc.Spin)
				// Per-operation cost at the server: receive + update + reply
				// (the paper's "Server" curve, which excludes queuing delay).
				res.ServerCost.Add(float64(p.Now() - start))
			}
			if !progress {
				p.Sleep(30)
			}
		}
	})
	done := sim.NewWaitGroup(e)
	done.Add(nClients)
	for c := 0; c < nClients; c++ {
		ch := chans[c]
		e.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			defer done.Done()
			var msg [1]urpc.Message
			for it := 0; it < iters; it++ {
				start := p.Now()
				msg[0] = urpc.Message{uint64(it)}
				ch.req.Send(p, msg[:], urpc.Spin)
				ch.resp.Recv(p, msg[:], urpc.Spin)
				res.ClientLatency.Add(float64(p.Now() - start))
			}
		})
	}
	e.Run()
	e.CheckQuiesced()
	return res
}

// line size sanity: requests fit one cache line by construction.
var _ = memory.LineSize
