package expt

import (
	"fmt"

	"multikernel/internal/harness"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/urpc"
)

// URPC v2 experiments: the pipelined-throughput and messaging-vs-bulk
// crossover curves behind the paper's Table 2/3 numbers. Every point is a
// hermetic, seed-deterministic engine run, so the sweeps fan out across the
// harness worker pool with byte-identical output at any parallelism.

// urpcIdleGap paces the windowed sender's idle polling (matches the
// transport's internal poll gap, which paces the Spin receivers).
const urpcIdleGap = 25

// MeasureURPCDepth measures pipelined throughput (messages per kilocycle)
// between two cores with the sender holding at most depth messages in
// flight: depth 1 is the stop-and-wait regime, depth = ring size (16) is the
// paper's fully pipelined regime.
func MeasureURPCDepth(m *topo.Machine, from, to topo.CoreID, depth, msgs int) float64 {
	env := NewEnv(m, 5)
	defer env.Close()
	ch := urpc.New(env.Sys, from, to, urpc.Options{Home: -1, Slots: urpc.DefaultSlots, Prefetch: true})
	var start, end sim.Time
	env.E.Spawn("recv", func(p *sim.Proc) {
		buf := make([]urpc.Message, urpc.DefaultSlots)
		for got := 0; got < msgs; {
			got += ch.Recv(p, buf, urpc.Spin)
		}
		end = p.Now()
	})
	env.E.Spawn("send", func(p *sim.Proc) {
		start = p.Now()
		batch := make([]urpc.Message, 0, depth)
		for sent := 0; sent < msgs; {
			for ch.InFlight() >= depth {
				ch.RefreshAck(p)
				if ch.InFlight() >= depth {
					p.Sleep(urpcIdleGap)
				}
			}
			n := depth - ch.InFlight()
			if n > msgs-sent {
				n = msgs - sent
			}
			batch = batch[:0]
			for i := 0; i < n; i++ {
				batch = append(batch, urpc.Message{uint64(sent + i)})
			}
			ch.Send(p, batch, urpc.Spin)
			sent += n
		}
	})
	env.run()
	return float64(msgs) * 1000 / float64(end-start)
}

// MeasureRingPayload measures the cost of moving reps payloads of the given
// line count through the message ring: each payload is a vectored batch of
// single-line messages. Returns cycles per payload.
func MeasureRingPayload(m *topo.Machine, from, to topo.CoreID, lines, reps int) float64 {
	env := NewEnv(m, 5)
	defer env.Close()
	ch := urpc.New(env.Sys, from, to, urpc.Options{Home: -1, Slots: urpc.DefaultSlots, Prefetch: true})
	total := lines * reps
	var start, end sim.Time
	env.E.Spawn("recv", func(p *sim.Proc) {
		buf := make([]urpc.Message, urpc.DefaultSlots)
		for got := 0; got < total; {
			got += ch.Recv(p, buf, urpc.Spin)
		}
		end = p.Now()
	})
	env.E.Spawn("send", func(p *sim.Proc) {
		start = p.Now()
		batch := make([]urpc.Message, lines)
		for r := 0; r < reps; r++ {
			for i := range batch {
				batch[i] = urpc.Message{uint64(r), uint64(i)}
			}
			ch.Send(p, batch, urpc.Spin)
		}
	})
	env.run()
	return float64(end-start) / float64(reps)
}

// MeasureBulkPayload measures the cost of moving reps payloads of the given
// line count through a bulk channel: one descriptor message per payload plus
// line-granularity first-touch transfers. Returns cycles per payload.
func MeasureBulkPayload(m *topo.Machine, from, to topo.CoreID, lines, reps int) float64 {
	env := NewEnv(m, 5)
	defer env.Close()
	bulk := urpc.NewBulk(env.Sys, from, to, urpc.BulkOptions{
		Slots: 8, SlotLines: lines, Home: -1, Prefetch: true,
	})
	payload := make([]byte, lines*64)
	for i := range payload {
		payload[i] = byte(i)
	}
	var start, end sim.Time
	env.E.Spawn("recv", func(p *sim.Proc) {
		for got := 0; got < reps; got++ {
			bulk.Recv(p, urpc.Spin)
		}
		end = p.Now()
	})
	env.E.Spawn("send", func(p *sim.Proc) {
		start = p.Now()
		for r := 0; r < reps; r++ {
			bulk.Send(p, payload)
		}
	})
	env.run()
	return float64(end-start) / float64(reps)
}

// urpcV2Depths is the in-flight sweep of the depth experiment.
var urpcV2Depths = []int{1, 2, 4, 8, 16}

// URPCv2Depth regenerates the pipelined-throughput curve: messages per
// kilocycle against sender in-flight depth 1→16, on the 8×4 AMD machine's
// one-hop pair (the scaling platform) with the 2×2 same-die pair for
// contrast.
func URPCv2Depth(msgs int) *figure {
	f := newFigure("urpcv2-depth", "URPC v2: pipelined throughput vs in-flight depth",
		"in-flight depth", "throughput (msgs/kcycle)")
	pairs := []struct {
		name     string
		m        *topo.Machine
		from, to topo.CoreID
	}{
		{"8x4 one-hop", topo.AMD8x4(), 0, 4},
		{"2x2 same-die", topo.AMD2x2(), 0, 1},
	}
	pts := harness.Map2(len(pairs), len(urpcV2Depths), func(pi, di int) float64 {
		pr := pairs[pi]
		return MeasureURPCDepth(pr.m, pr.from, pr.to, urpcV2Depths[di], msgs)
	})
	for pi, pr := range pairs {
		s := f.AddSeries(pr.name)
		for di, d := range urpcV2Depths {
			s.Add(float64(d), pts[pi][di])
		}
	}
	return f
}

// urpcV2Sizes is the payload sweep of the crossover experiment, in lines.
var urpcV2Sizes = []int{1, 2, 4, 8, 16, 32, 64}

// URPCv2Size regenerates the messaging-vs-bulk crossover: cycles to move one
// payload of 1→64 cache lines, through the message ring (vectored single-line
// sends) and through a bulk channel (descriptor + shared pool), on the 8×4
// AMD machine's one-hop pair.
func URPCv2Size(reps int) *figure {
	m := topo.AMD8x4()
	f := newFigure("urpcv2-size", "URPC v2: ring vs bulk transfer ("+m.Name+", one-hop)",
		"payload (cache lines)", "cycles per payload")
	kinds := []struct {
		name    string
		measure func(lines int) float64
	}{
		{"ring", func(lines int) float64 { return MeasureRingPayload(m, 0, 4, lines, reps) }},
		{"bulk", func(lines int) float64 { return MeasureBulkPayload(m, 0, 4, lines, reps) }},
	}
	pts := harness.Map2(len(kinds), len(urpcV2Sizes), func(ki, si int) float64 {
		return kinds[ki].measure(urpcV2Sizes[si])
	})
	for ki, k := range kinds {
		s := f.AddSeries(k.name)
		for si, lines := range urpcV2Sizes {
			s.Add(float64(lines), pts[ki][si])
		}
	}
	return f
}

// URPCv2Table regenerates the Table 2-style per-hop cost table for the v2
// transport: stop-and-wait and fully pipelined per-message cost, and the bulk
// per-line cost at 64-line payloads, for each cache relationship on each
// machine.
func URPCv2Table(msgs int) *table {
	t := &table{
		Title: "URPC v2 per-hop costs",
		Columns: []string{"System", "Cache", "depth-1 cycles/msg",
			"depth-16 cycles/msg", "bulk cycles/line"},
	}
	type rowSpec struct {
		m  *topo.Machine
		pr pairSpec
	}
	var rows []rowSpec
	for _, m := range topo.AllMachines() {
		for _, pr := range table2Pairs(m) {
			rows = append(rows, rowSpec{m, pr})
		}
	}
	const bulkLines = 64
	vals := harness.Map(len(rows), func(i int) [3]float64 {
		r := rows[i]
		d1 := MeasureURPCDepth(r.m, r.pr.from, r.pr.to, 1, msgs)
		d16 := MeasureURPCDepth(r.m, r.pr.from, r.pr.to, 16, msgs)
		perLine := MeasureBulkPayload(r.m, r.pr.from, r.pr.to, bulkLines, max(2, msgs/bulkLines)) / bulkLines
		return [3]float64{1000 / d1, 1000 / d16, perLine}
	})
	for i, r := range rows {
		t.AddRow(r.m.Name, r.pr.label,
			fmt.Sprintf("%.0f", vals[i][0]),
			fmt.Sprintf("%.0f", vals[i][1]),
			fmt.Sprintf("%.1f", vals[i][2]))
	}
	return t
}
