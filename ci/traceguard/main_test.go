package main

import (
	"strings"
	"testing"
)

// contractFor returns the table row whose -bench regexp is bench.
func contractFor(t *testing.T, bench string) contract {
	t.Helper()
	for _, c := range contracts {
		if c.bench == bench {
			return c
		}
	}
	t.Fatalf("no contract row for %q", bench)
	return contract{}
}

func TestEvaluate(t *testing.T) {
	baseline := map[string]float64{
		"BenchmarkTraceOffWake":                         650,
		"BenchmarkURPCPipelined:simcycles/msg":          204.7,
		"BenchmarkParallelEnginePinned/w1:simevents/op": 86476,
		"BenchmarkParallelEnginePinned/w2:simevents/op": 86476,
		"BenchmarkParallelEnginePinned/w4:simevents/op": 86476,
		"BenchmarkBootParallelPinned/w1:simevents/op":   302617,
		"BenchmarkBootParallelPinned/w2:simevents/op":   302617,
		"BenchmarkBootParallelPinned/w4:simevents/op":   302617,
		"BenchmarkObsPinned/base:simcycles/op":          1158,
		"BenchmarkObsPinned/disabled:simcycles/op":      1158,
	}
	for _, tc := range []struct {
		name   string
		bench  string
		got    map[string]float64
		ok     bool
		status string // expected leading word of some report line
	}{
		{"pins hold exactly", "ParallelEnginePinned", map[string]float64{
			"BenchmarkParallelEnginePinned/w1:simevents/op": 86476,
			"BenchmarkParallelEnginePinned/w2:simevents/op": 86476,
			"BenchmarkParallelEnginePinned/w4:simevents/op": 86476,
		}, true, "ok"},
		// A parallel run that dispatches fewer events than the serial one is
		// under its ceiling, but it has left the serial schedule.
		{"boot w2 differs from w1", "BootParallelPinned", map[string]float64{
			"BenchmarkBootParallelPinned/w1:simevents/op": 302617,
			"BenchmarkBootParallelPinned/w2:simevents/op": 302600,
			"BenchmarkBootParallelPinned/w4:simevents/op": 302617,
		}, false, "UNEQ"},
		{"engine w4 differs from w1", "ParallelEnginePinned", map[string]float64{
			"BenchmarkParallelEnginePinned/w1:simevents/op": 86476,
			"BenchmarkParallelEnginePinned/w2:simevents/op": 86476,
			"BenchmarkParallelEnginePinned/w4:simevents/op": 86400,
		}, false, "UNEQ"},
		{"disabled plane not free", "ObsPinned/(base|disabled)", map[string]float64{
			"BenchmarkObsPinned/base:simcycles/op":     1150,
			"BenchmarkObsPinned/disabled:simcycles/op": 1158,
		}, false, "UNEQ"},
		// A deterministic pin that falls has moved as surely as one that
		// rises.
		{"ceiling below baseline", "URPCPipelined|URPCOneHop|BulkTransfer", map[string]float64{
			"BenchmarkURPCPipelined:simcycles/msg": 200,
		}, false, "FAST"},
		{"ceiling above baseline", "URPCPipelined|URPCOneHop|BulkTransfer", map[string]float64{
			"BenchmarkURPCPipelined:simcycles/msg": 204.8,
		}, false, "SLOW"},
		{"host time within tolerance", "TraceOff", map[string]float64{
			"BenchmarkTraceOffWake": 680,
		}, true, "ok"},
		{"host time over tolerance", "TraceOff", map[string]float64{
			"BenchmarkTraceOffWake": 690,
		}, false, "SLOW"},
		{"metric with no baseline", "DirectoryPinned", map[string]float64{
			"BenchmarkDirectoryPinned/broadcast:simevents/op": 2518,
		}, false, "NEW"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lines, ok := evaluate(contractFor(t, tc.bench), tc.got, baseline, 0.05)
			if ok != tc.ok {
				t.Errorf("ok = %v, want %v:\n%s", ok, tc.ok, strings.Join(lines, "\n"))
			}
			found := false
			for _, l := range lines {
				found = found || strings.HasPrefix(l, tc.status)
			}
			if !found {
				t.Errorf("no %s line in:\n%s", tc.status, strings.Join(lines, "\n"))
			}
		})
	}
}
