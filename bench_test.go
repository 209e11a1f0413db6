// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment and reports its headline
// quantities as custom metrics (simulated cycles or rates — wall-clock ns/op
// only reflects how fast the simulator runs, not the modelled system).
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// Experiment sweeps fan their points across the internal/harness worker pool
// (default GOMAXPROCS workers; override with -harness.parallel N). Reported
// simulated-cycle metrics are independent of the pool size: each point is a
// hermetic, seed-deterministic engine run.
package multikernel_test

import (
	"flag"
	"os"
	"runtime"
	"testing"

	"multikernel/internal/apps"
	"multikernel/internal/baseline"
	"multikernel/internal/expt"
	"multikernel/internal/harness"
	"multikernel/internal/monitor"
	"multikernel/internal/topo"
)

var benchParallel = flag.Int("harness.parallel", runtime.GOMAXPROCS(0),
	"experiment points to run concurrently (1 = serial)")

func TestMain(m *testing.M) {
	flag.Parse()
	harness.SetParallelism(*benchParallel)
	os.Exit(m.Run())
}

// BenchmarkFig3 regenerates Figure 3's headline points: 8-line updates via
// shared memory versus messages at 16 cores.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := expt.NewEnv(topo.AMD4x4(), 1)
		shm := apps.SHMUpdate(env.E, env.Sys, 16, 8, 10).ClientLatency.Percentile(50)
		env.Close()
		env = expt.NewEnv(topo.AMD4x4(), 1)
		msg := apps.MSGUpdate(env.E, env.Sys, 15, 8, 10).ClientLatency.Percentile(50)
		env.Close()
		b.ReportMetric(shm, "SHM8@16_cycles")
		b.ReportMetric(msg, "MSG8@16_cycles")
	}
}

// BenchmarkTable1 regenerates Table 1: LRPC latency per machine.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.Table1(24)
		if len(t.Rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable2 regenerates Table 2: URPC latency and throughput.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.MeasureURPC(topo.AMD2x2(), 0, 2, 8, false)
		b.ReportMetric(r.Latency.Mean(), "onehop_latency_cycles")
		b.ReportMetric(r.Throughput, "onehop_msgs_per_kcycle")
	}
}

// BenchmarkTable3 regenerates Table 3: URPC vs L4 IPC.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := expt.Table3(8)
		if len(t.Rows) != 2 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig6 regenerates Figure 6's 32-core points for all four
// protocols.
func BenchmarkFig6(b *testing.B) {
	m := topo.AMD8x4()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(monitor.RawShootdownLatency(m, monitor.Broadcast, 32, 3), "broadcast@32_cycles")
		b.ReportMetric(monitor.RawShootdownLatency(m, monitor.Unicast, 32, 3), "unicast@32_cycles")
		b.ReportMetric(monitor.RawShootdownLatency(m, monitor.Multicast, 32, 3), "multicast@32_cycles")
		b.ReportMetric(monitor.RawShootdownLatency(m, monitor.NUMAAware, 32, 3), "numa@32_cycles")
	}
}

// BenchmarkFig7 regenerates Figure 7's 32-core points: full unmap latency on
// all three systems.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := expt.Fig7(2)
		bf, _ := f.Get("Barrelfish").YAt(32)
		lx, _ := f.Get("Linux").YAt(32)
		wn, _ := f.Get("Windows").YAt(32)
		b.ReportMetric(bf, "barrelfish@32_cycles")
		b.ReportMetric(lx, "linux@32_cycles")
		b.ReportMetric(wn, "windows@32_cycles")
	}
}

// BenchmarkFig8 regenerates Figure 8's 32-core points: 2PC single-operation
// latency versus pipelined per-operation cost.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := expt.Fig8(2)
		single, _ := f.Get("Single-operation latency").YAt(32)
		piped, _ := f.Get("Cost when pipelining").YAt(32)
		b.ReportMetric(single, "single@32_cycles")
		b.ReportMetric(piped, "pipelined@32_cycles")
	}
}

// BenchmarkTable4 regenerates Table 4: IP loopback, both systems.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bf := expt.LoopbackBF()
		lx := expt.LoopbackLinux()
		b.ReportMetric(bf.ThroughputMbit, "barrelfish_Mbit/s")
		b.ReportMetric(lx.ThroughputMbit, "linux_Mbit/s")
		b.ReportMetric(bf.DcachePerPkt, "barrelfish_dcache/pkt")
		b.ReportMetric(lx.DcachePerPkt, "linux_dcache/pkt")
	}
}

// BenchmarkFig9 regenerates one Figure 9 point per workload: 16-core runs on
// both systems.
func BenchmarkFig9(b *testing.B) {
	for _, wl := range apps.NASWorkloads() {
		wl := wl
		wl.Iters = wl.Iters/4 + 1
		b.Run(wl.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bf, lx := expt.RunFig9Workload(wl, 16)
				b.ReportMetric(bf, "barrelfish_cycles")
				b.ReportMetric(lx, "linux_cycles")
			}
		})
	}
}

// BenchmarkUDPEcho regenerates §5.4's network throughput result.
func BenchmarkUDPEcho(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(expt.UDPEchoBF(150), "barrelfish_Mbit/s")
	}
}

// BenchmarkWebServer regenerates §5.4's web-server result.
func BenchmarkWebServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bf := expt.WebServerBF(false, 12_000_000)
		lx := expt.WebServerLinux(12_000_000)
		b.ReportMetric(bf.ReqPerSec, "barrelfish_req/s")
		b.ReportMetric(lx.ReqPerSec, "linux_req/s")
	}
}

// BenchmarkWebServerDB regenerates §5.4's database-backed web result.
func BenchmarkWebServerDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.WebServerBF(true, 12_000_000)
		b.ReportMetric(r.ReqPerSec, "req/s")
	}
}

// BenchmarkBaselineUnmap isolates the comparator's serial-IPI shootdown.
func BenchmarkBaselineUnmap(b *testing.B) {
	env := expt.NewEnv(topo.AMD8x4(), 1)
	defer env.Close()
	_ = baseline.New(env.E, env.Sys, env.Kern, baseline.Linux)
	b.ReportMetric(0, "placeholder")
	// The full measurement lives in Fig7; this benchmark exists so the
	// baseline path is exercised under -bench as well.
	for i := 0; i < b.N; i++ {
		f := expt.Fig7(1)
		lx, _ := f.Get("Linux").YAt(16)
		b.ReportMetric(lx, "linux@16_cycles")
	}
}

// BenchmarkAblations runs the design-choice ablations.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.AblationPrefetch(4)
		expt.AblationPipelineDepth(2)
	}
}

// BenchmarkExtensions runs the beyond-the-paper experiments: mesh scaling,
// the shared-replica optimization and run-queue contention.
func BenchmarkExtensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := expt.ExtScaling(2)
		bf, _ := f.Get("Barrelfish unmap").YAt(64)
		lx, _ := f.Get("Linux unmap").YAt(64)
		b.ReportMetric(bf, "barrelfish@64_cycles")
		b.ReportMetric(lx, "linux@64_cycles")
	}
}
