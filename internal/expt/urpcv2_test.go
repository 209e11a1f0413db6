package expt

import (
	"bytes"
	"testing"

	"multikernel/internal/harness"
	"multikernel/internal/stats"
	"multikernel/internal/trace"
)

// TestURPCv2DepthPipelining is the tentpole acceptance criterion: on the 8×4
// machine's one-hop pair, depth-16 pipelined sends must achieve at least 4×
// the messages/cycle of depth-1 stop-and-wait sends.
func TestURPCv2DepthPipelining(t *testing.T) {
	f := URPCv2Depth(300)
	d1 := yAt(t, f, "8x4 one-hop", 1)
	d16 := yAt(t, f, "8x4 one-hop", 16)
	t.Logf("one-hop throughput: depth-1 %.2f, depth-16 %.2f msgs/kcycle (%.1fx)", d1, d16, d16/d1)
	if d16 < 4*d1 {
		t.Fatalf("depth-16 throughput %.2f not >= 4x depth-1 %.2f", d16, d1)
	}
	// The curve is monotone: more in-flight depth never hurts.
	for i := 1; i < len(urpcV2Depths); i++ {
		lo := yAt(t, f, "8x4 one-hop", float64(urpcV2Depths[i-1]))
		hi := yAt(t, f, "8x4 one-hop", float64(urpcV2Depths[i]))
		if hi < lo {
			t.Errorf("throughput dropped from depth %d (%.2f) to %d (%.2f)",
				urpcV2Depths[i-1], lo, urpcV2Depths[i], hi)
		}
	}
}

// TestURPCv2BulkCrossover is the bulk acceptance criterion: one bulk transfer
// must beat N single-line ring sends for payloads of 8 lines and up.
func TestURPCv2BulkCrossover(t *testing.T) {
	f := URPCv2Size(30)
	for _, lines := range []float64{8, 16, 32, 64} {
		ring := yAt(t, f, "ring", lines)
		bulk := yAt(t, f, "bulk", lines)
		if bulk >= ring {
			t.Errorf("%v lines: bulk (%.0f cycles) not below ring (%.0f cycles)", lines, bulk, ring)
		}
	}
	// Below the crossover the single-descriptor overhead dominates and the
	// ring should win — otherwise the ring path has regressed.
	if ring1, bulk1 := yAt(t, f, "ring", 1), yAt(t, f, "bulk", 1); ring1 >= bulk1 {
		t.Errorf("1 line: ring (%.0f cycles) not below bulk (%.0f cycles)", ring1, bulk1)
	}
}

// TestURPCv2SweepDeterminism extends the harness determinism contract to the
// v2 sweeps: both curves must render byte-identically at any -parallel
// setting.
func TestURPCv2SweepDeterminism(t *testing.T) {
	render := func(par int) string {
		old := harness.Parallelism()
		harness.SetParallelism(par)
		defer harness.SetParallelism(old)
		out := stats.RenderFigure(URPCv2Depth(120), 72, 18)
		out += stats.RenderFigure(URPCv2Size(8), 72, 18)
		return out
	}
	serial := render(1)
	for _, par := range []int{2, 8} {
		if got := render(par); got != serial {
			t.Fatalf("parallelism %d produced different rendered output than serial run", par)
		}
	}
}

// TestURPCv2BatchedTraceDeterminism asserts the batched transport keeps the
// trace contract: a run using burst sends and receives exports byte-identical
// trace bytes at any host parallelism and on repeated runs, reaching the same
// virtual end time every time. An unbatched (one-message) run of the same
// workload is held to the same standard, and the batched run must finish at
// an equal-or-earlier virtual time — the whole point of the batching.
func TestURPCv2BatchedTraceDeterminism(t *testing.T) {
	capture := func(par int, batched bool) []byte {
		old := harness.Parallelism()
		harness.SetParallelism(par)
		defer harness.SetParallelism(old)
		trace.StartCapture()
		defer trace.StopCapture()
		if batched {
			URPCv2Depth(100)
		} else {
			// The depth-1 path through Send-per-message measurement: reuse the
			// ring sweep at 1 line per payload, which degenerates to paced
			// single sends.
			URPCv2Size(6)
		}
		var buf bytes.Buffer
		if err := trace.WriteCaptured(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, batched := range []bool{true, false} {
		base := capture(1, batched)
		if len(base) == 0 {
			t.Fatalf("batched=%v: empty trace capture", batched)
		}
		for _, par := range []int{2, 8} {
			if got := capture(par, batched); !bytes.Equal(got, base) {
				t.Errorf("batched=%v: trace bytes differ between -parallel=1 and -parallel=%d", batched, par)
			}
		}
		if again := capture(1, batched); !bytes.Equal(again, base) {
			t.Errorf("batched=%v: repeated serial run produced different trace bytes", batched)
		}
	}
}
