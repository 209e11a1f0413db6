//go:build !race

package expt

import (
	"runtime"
	"testing"
)

// TestWebRequestAllocs is the allocation budget of section 5.4's
// web+database path: the NIC, the wire, the driver, the stack, the web
// server and the KV service's client each reuse their buffers, so a steady
// state request allocates little beyond its connection's state and what
// the load generator allocates for its frames. The budget is Go heap bytes
// per completed request (runtime.MemStats.TotalAlloc over the generator's
// Completed) after a warm-up, once on /db/<key> and once on a range, which
// takes the bulk path. Gated out under -race because the race runtime
// instruments allocations.
func TestWebRequestAllocs(t *testing.T) {
	const warm, window = 200_000_000, 1_000_000_000
	for _, row := range []struct {
		name, path string
		bound      float64 // bytes per request
	}{
		// The rows read 523 and 588 bytes; before the path reused its
		// buffers they read 3,083 and 3,940 (go1.24, linux/amd64). About
		// 350 of them are the generator's frames, requests and connection
		// records.
		{"db", "/db/123", 600},
		{"range", "/range/4711-4735", 650},
	} {
		t.Run(row.name, func(t *testing.T) {
			env, gen := buildWebServer(true, false)
			defer env.Close()
			gen.Path = row.path // before the first handshake completes
			env.E.RunUntil(warm)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			c0 := gen.Completed
			env.E.RunUntil(warm + window)
			runtime.ReadMemStats(&m1)
			gen.Stop()
			n := gen.Completed - c0
			if n < 500 {
				t.Fatalf("%d requests completed in the window, want at least 500", n)
			}
			per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
			t.Logf("%s: %d requests, %.0f bytes allocated per request", row.path, n, per)
			if per > row.bound {
				t.Errorf("%s: %.0f bytes allocated per request, want at most %.0f", row.path, per, row.bound)
			}
		})
	}
}
