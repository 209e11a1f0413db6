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

// drvRig is one run of a TestDriverSkipMatchesPolling row: a UDP echo
// application on core 3 behind a NIC whose driver runs on core 2.
type drvRig struct {
	e   *sim.Engine
	w   *Wire
	nic *NIC
	d   *Driver
	log func(string)
}

// frame returns the i-th echo request frame.
func (r *drvRig) frame(i int) Frame {
	return BuildUDPFrame(MAC{0xaa}, MAC{0x02, 0, 0, 0, 0, 3}, IP4(192, 168, 1, 99), IP4(192, 168, 1, 1), 5555, 7, bytes.Repeat([]byte{byte(i)}, 64+i%50))
}

// busy spawns a proc that sleeps steps of d cycles until end: other procs'
// events inside every quiet stretch, so that a skipped stretch cannot wake
// in place.
func (r *drvRig) busy(d, end sim.Time) {
	r.e.Spawn("busy", func(p *sim.Proc) {
		for p.Now() < end {
			p.Sleep(d)
		}
	})
}

// snapEvery logs a registry snapshot every d cycles from d to end: a read
// mid-stretch must find every skipped poll's hits.
func (r *drvRig) snapEvery(d, end sim.Time) {
	for t := d; t <= end; t += d {
		r.e.After(t, func() {
			s := r.e.Metrics().Snapshot()
			r.log(fmt.Sprintf("snap hits=%d recv=%d events=%d", s.Counters["cache.hits"], s.Counters["urpc.received"], s.Counters["sim.events_dispatched"]))
		})
	}
}

// TestDriverSkipMatchesPolling runs a UDP echo through the NIC and its
// driver with no perturb hook, where the engine skips the driver's quiet
// polls up to its park point, and with a hook that perturbs nothing, where
// every poll runs and wakes through the queue, both traced and untraced.
// Both runs must log the same (time, what) sequence and end with the same
// clock, sequence number, metrics and trace bytes.
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
		run  func(r *drvRig) // drives the engine
	}{
		{"requests far apart", func(r *drvRig) { r.e.RunUntil(3_000_000) }},
		{"RunUntil limits inside stretches", func(r *drvRig) {
			for t := sim.Time(150_001); t < 3_000_000; t += 150_001 {
				r.e.RunUntil(t)
			}
		}},
		{"Kill from a callback", func(r *drvRig) {
			r.e.After(1_234_567, func() { r.e.Kill(r.d.proc) })
			r.e.RunUntil(3_000_000)
		}},
		{"Close inside a stretch", func(r *drvRig) { r.e.RunUntil(1_250_000) }},
		{"frames and sends mid-stretch beside a busy proc", func(r *drvRig) {
			// The busy proc's 23-cycle sleeps land inside the driver's
			// 150-cycle gaps; each request is DMA'd, and its echo sent on
			// the transmit link, while the driver's polls are skipped.
			r.busy(23, 3_000_000)
			r.snapEvery(101_009, 3_000_000)
			r.e.RunUntil(3_000_000)
		}},
		{"two frames DMA'd within the DMA latency after the ring wrapped", func(r *drvRig) {
			// Forty frames wrap the 32-descriptor ring, so the driver holds
			// every descriptor line it has read. Then pairs of frames
			// arrive 500 to 671 cycles apart, less than the DMA latency:
			// each claims its own slot on arrival, and the second's
			// descriptor, a line the driver holds from the ring's last
			// lap, is published that long after the first's.
			for i := 0; i < 40; i++ {
				f := r.frame(100 + i)
				r.e.After(sim.Time(3_000_000+30_011*i), func() { r.w.transmit(false, f) })
			}
			for k := sim.Time(0); k < 20; k++ {
				at := 4_300_003 + 60_013*k
				for i, off := range []sim.Time{0, 500 + 9*k} {
					f := r.frame(int(k)*2 + i)
					r.e.After(at+off, func() { r.nic.Deliver(f) })
				}
			}
			r.busy(29, 5_600_000)
			r.snapEvery(250_013, 5_600_000)
			r.e.RunUntil(5_600_000)
		}},
	}
	run := func(hook sim.PerturbFunc, traced bool, drive func(*drvRig)) outcome {
		m := topo.Intel2x4()
		e, sys := newSys(m)
		e.SetPerturb(hook)
		var rec *trace.Recorder
		if traced {
			rec = trace.NewRecorder()
			e.SetTracer(rec)
		}
		var out outcome
		log := func(s string) { out.log = append(out.log, fmt.Sprintf("t=%d %s", e.Now(), s)) }
		w := NewWire(e, 1, m.ClockGHz)
		nic := NewNIC(e, sys, "e1000", w, true)
		w.Attach(nic, portFunc(func(f Frame) { log(fmt.Sprintf("echo %d bytes", len(f))) }))
		app := NewStack(e, sys, "echo", 3, IP4(192, 168, 1, 1))
		d := NewDriver(e, sys, nic, 2, app)
		r := &drvRig{e: e, w: w, nic: nic, d: d, log: log}
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
			f := r.frame(i)
			e.After(sim.Time(300_000*(i+1)+7*i), func() { w.transmit(false, f) })
		}
		drive(r)
		e.Close()
		out.now, out.snap = e.Now(), e.Metrics().Snapshot()
		// A hook installed after the run sees the sequence number the next
		// event takes.
		e.SetPerturb(func(_, _ sim.Time, s uint64) (sim.Time, uint64) { out.seq = s - 1; return 0, 0 })
		e.After(0, func() {})
		if rec != nil {
			var b bytes.Buffer
			if err := trace.WriteJSON(&b, rec); err != nil {
				panic(err)
			}
			out.trace = b.Bytes()
		}
		return out
	}
	zero := func(sim.Time, sim.Time, uint64) (sim.Time, uint64) { return 0, 0 }
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for _, traced := range []bool{true, false} {
				t.Run(map[bool]string{true: "traced", false: "untraced"}[traced], func(t *testing.T) {
					s, ref := run(nil, traced, r.run), run(zero, traced, r.run)
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
		})
	}
}
