package expt

import (
	"fmt"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/urpc"
)

// PollModel regenerates the §5.2 polling-cost analysis. With a polling
// window of P cycles before blocking (blocking/wakeup cost C), a message
// arriving at time t costs:
//
//	overhead = t          if t <= P        latency = 0
//	overhead = P + C      otherwise        latency = C
//
// The paper picks P = C (about 6000 cycles on its hardware), bounding
// overhead at 2C and latency at C.
func PollModel(C sim.Time) *table {
	t := &table{
		Title:   fmt.Sprintf("Section 5.2: polling cost model (P = C = %d cycles)", C),
		Columns: []string{"arrival t", "overhead (cycles)", "added latency (cycles)"},
	}
	P := C
	for _, frac := range []float64{0.1, 0.5, 1.0, 1.5, 3.0, 10.0} {
		at := sim.Time(float64(C) * frac)
		var overhead, latency sim.Time
		if at <= P {
			overhead, latency = at, 0
		} else {
			overhead, latency = P+C, C
		}
		t.AddRow(fmt.Sprintf("%.1fC", frac),
			fmt.Sprintf("%d", overhead),
			fmt.Sprintf("%d", latency))
	}
	return t
}

// MeasurePollWindow empirically measures the receiver-side overhead and
// message latency of a urpc.Window receive for a message arriving at time t with
// polling window P, validating the analytic model above against the
// simulated implementation.
func MeasurePollWindow(m *topo.Machine, window, arrival sim.Time) (overhead, latency sim.Time) {
	env := NewEnv(m, 4)
	defer env.Close()
	ch := urpc.New(env.Sys, 0, 2, urpc.Options{Home: -1})
	var recvStart, recvEnd, sentAt sim.Time
	env.E.Spawn("recv", func(p *sim.Proc) {
		recvStart = p.Now()
		ch.Recv(p, make([]urpc.Message, 1), urpc.Window(window))
		recvEnd = p.Now()
	})
	env.E.Spawn("send", func(p *sim.Proc) {
		p.Sleep(arrival)
		sentAt = p.Now()
		ch.Send(p, []urpc.Message{{1}}, urpc.Spin)
	})
	env.run()
	return recvEnd - recvStart, recvEnd - sentAt
}
