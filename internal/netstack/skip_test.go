package netstack

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"multikernel/internal/metrics"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// TestDriverSkipMatchesPolling runs a UDP echo through the NIC and its
// driver with no perturb hook, where the driver skips its quiet sweeps up
// to its park point, and with a hook that perturbs nothing, where every
// poll runs and wakes through the queue. Both runs must log the same
// (time, what) sequence and end with the same clock, sequence number,
// metrics and trace bytes.
func TestDriverSkipMatchesPolling(t *testing.T) {
	type outcome struct {
		log   []string
		now   sim.Time
		seq   uint64
		snap  metrics.Snapshot
		trace []byte
	}
	rows := []struct {
		name string
		run  func(e *sim.Engine, d *Driver) // drives the engine
	}{
		{"requests far apart", func(e *sim.Engine, _ *Driver) { e.RunUntil(3_000_000) }},
		{"RunUntil limits inside stretches", func(e *sim.Engine, _ *Driver) {
			for t := sim.Time(150_001); t < 3_000_000; t += 150_001 {
				e.RunUntil(t)
			}
		}},
		{"Kill from a callback", func(e *sim.Engine, d *Driver) {
			e.After(1_234_567, func() { e.Kill(d.proc) })
			e.RunUntil(3_000_000)
		}},
		{"Close inside a stretch", func(e *sim.Engine, _ *Driver) { e.RunUntil(1_250_000) }},
	}
	run := func(hook sim.PerturbFunc, drive func(*sim.Engine, *Driver)) outcome {
		m := topo.Intel2x4()
		e, sys := newSys(m)
		e.SetPerturb(hook)
		rec := trace.NewRecorder()
		e.SetTracer(rec)
		var out outcome
		log := func(s string) { out.log = append(out.log, fmt.Sprintf("t=%d %s", e.Now(), s)) }
		w := NewWire(e, 1, m.ClockGHz)
		nic := NewNIC(e, sys, "e1000", w, true)
		w.Attach(nic, portFunc(func(f Frame) { log(fmt.Sprintf("echo %d bytes", len(f))) }))
		app := NewStack(e, sys, "echo", 3, IP4(192, 168, 1, 1))
		d := NewDriver(e, sys, nic, 2, app)
		sock := app.BindUDP(7)
		e.Spawn("echo-app", func(p *sim.Proc) {
			p.SetDaemon(true)
			for {
				if dg, ok := sock.TryRecv(p); ok {
					sock.SendTo(p, dg.Src, dg.SrcPort, dg.Payload)
					continue
				}
				if !app.PumpReady(p) {
					p.Sleep(40_000)
				}
			}
		})
		for i := 0; i < 8; i++ {
			f := BuildUDPFrame(MAC{0xaa}, app.MAC, IP4(192, 168, 1, 99), app.IP, 5555, 7, bytes.Repeat([]byte{byte(i)}, 64+i))
			e.After(sim.Time(300_000*(i+1)+7*i), func() { w.transmit(false, f) })
		}
		drive(e, d)
		e.Close()
		out.now, out.snap = e.Now(), e.Metrics().Snapshot()
		// A hook installed after the run sees the sequence number the next
		// event takes.
		e.SetPerturb(func(_, _ sim.Time, s uint64) (sim.Time, uint64) { out.seq = s - 1; return 0, 0 })
		e.After(0, func() {})
		var b bytes.Buffer
		if err := trace.WriteJSON(&b, rec); err != nil {
			panic(err)
		}
		out.trace = b.Bytes()
		return out
	}
	zero := func(sim.Time, sim.Time, uint64) (sim.Time, uint64) { return 0, 0 }
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s, ref := run(nil, r.run), run(zero, r.run)
			if len(ref.log) == 0 {
				t.Fatal("scenario logged nothing")
			}
			if !reflect.DeepEqual(s.log, ref.log) {
				t.Errorf("logs differ:\nno hook:   %s\nzero hook: %s", strings.Join(s.log, ", "), strings.Join(ref.log, ", "))
			}
			if s.now != ref.now || s.seq != ref.seq {
				t.Errorf("ends at t=%d seq=%d with no hook, t=%d seq=%d with a zero hook", s.now, s.seq, ref.now, ref.seq)
			}
			if !reflect.DeepEqual(s.snap, ref.snap) {
				t.Errorf("metrics differ:\nno hook:   %v\nzero hook: %v", s.snap, ref.snap)
			}
			if !bytes.Equal(s.trace, ref.trace) {
				t.Errorf("traces differ (%d and %d bytes)", len(s.trace), len(ref.trace))
			}
		})
	}
}
