package expt

import (
	"encoding/json"
	"fmt"
	"testing"

	"multikernel/internal/metrics"
)

// BenchmarkBootParallelPinned is the parallel-boot determinism gate consumed
// by ci/traceguard: the staged shootdown workload on the full 8-socket
// multikernel boot, replayed at workers 1, 2 and 4. The simevents/op metric
// is fully deterministic — a pure function of (seed, nparts), never of the
// worker count — so all three entries are pinned exactly in the committed
// baseline and must stay equal to each other; one event of divergence from
// the serial schedule fails CI.
func BenchmarkBootParallelPinned(b *testing.B) {
	wl := bootWorkloads()[0] // shootdown, staged RunUntil/Stop schedule
	const scale = 4
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			var ev uint64
			for i := 0; i < b.N; i++ {
				ev = bootRunOnce(wl, scale, w).nevents
			}
			b.ReportMetric(float64(ev), "simevents/op")
		})
	}
}

// BenchmarkKVClusterPinned is the kv-server gate consumed by
// ci/traceguard: the kvcluster boot workload (four shard servers on
// sockets 0-3, two clients on sockets 4 and 5) at a fixed scale, replayed
// at workers 1, 2 and 4. Most of its events are the servers' empty ring
// polls, so simevents/op (events dispatched) and simhits/op (cache hits,
// one per poll of a held ring line) pin the servers' idle path exactly;
// like BootParallelPinned, each must also be equal across worker counts.
func BenchmarkKVClusterPinned(b *testing.B) {
	wl := bootWorkloads()[2] // kvcluster
	const scale = 24
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			var snap metrics.Snapshot
			for i := 0; i < b.N; i++ {
				if err := json.Unmarshal(bootRunOnce(wl, scale, w).metrics, &snap); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(snap.Counters["sim.events_dispatched"]), "simevents/op")
			b.ReportMetric(float64(snap.Counters["cache.hits"]), "simhits/op")
		})
	}
}
