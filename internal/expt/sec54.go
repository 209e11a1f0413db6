package expt

import (
	"fmt"

	"multikernel/internal/apps"
	"multikernel/internal/netstack"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// In-kernel network stack costs for the Linux comparator, in cycles.
const (
	// TCP path (per frame): socket layer, TCP state machine, copies.
	kRxPathCost = 11000 // interrupt + softirq + protocol processing + copy to user
	kTxPathCost = 9000  // socket send + copy from user + qdisc + driver
	// UDP fast path (per datagram) — much shorter than TCP.
	kUDPRxCost = 4000
	kUDPTxCost = 3200
)

// UDPEchoBF measures the multikernel's UDP echo throughput in Mbit/s on
// the 2×4-core Intel system: e1000 driver domain on core 2, echo
// application (with its library lwIP stack) on core 3, connected by URPC.
func UDPEchoBF(packets int) float64 {
	return udpEcho(packets, false)
}

// UDPEchoLinux measures the comparator: interrupt-driven in-kernel stack and
// a socket application, all passing through the kernel on one core.
func UDPEchoLinux(packets int) float64 {
	return udpEcho(packets, true)
}

func udpEcho(packets int, kernelStack bool) float64 {
	m := topo.Intel2x4()
	env := NewEnv(m, 5)
	defer env.Close()
	w := netstack.NewWire(env.E, 1, m.ClockGHz) // gigabit Ethernet
	nic := netstack.NewNIC(env.E, env.Sys, "e1000", w, true)

	appIP := netstack.IP4(192, 168, 1, 1)
	app := netstack.NewStack(env.E, env.Sys, "echo", 3, appIP)

	if kernelStack {
		// Merged in-kernel path: the application core takes the interrupt,
		// runs the kernel stack and the socket syscalls.
		const core = 3
		app.SetPoller(func(p *sim.Proc) bool {
			any := false
			for {
				f := nic.Poll(p, core, nil) // a fresh frame, which the stack holds until handled
				if f == nil {
					return any
				}
				p.Sleep(kUDPRxCost)
				env.Kern.Core(core).Syscall(p) // recvfrom
				app.Inject(f)
				any = true
			}
		})
		app.SetOutput(func(p *sim.Proc, f netstack.Frame) {
			env.Kern.Core(core).Syscall(p) // sendto
			p.Sleep(kUDPTxCost)
			if err := nic.Transmit(p, core, f); err != nil {
				_ = err // overload: drop
			}
		})
	} else {
		netstack.NewDriver(env.E, env.Sys, nic, 2, app)
	}

	gen := &apps.UDPEchoGen{
		Wire: w, FromA: false,
		SrcIP: netstack.IP4(192, 168, 1, 99), DstIP: appIP,
		DstMAC: app.MAC, DstPort: 7, Payload: 1000,
	}
	w.Attach(nic, gen)

	sock := app.BindUDP(7)
	env.E.Spawn("echo-app", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			d := sock.Recv(p)
			sock.SendTo(p, d.Src, d.SrcPort, d.Payload)
		}
	})

	// Offer traffic at ~105% of wire rate so the wire (or the slower OS
	// path) is the bottleneck.
	frameBytes := 1000 + netstack.EthHeaderLen + netstack.IPv4HeaderLen + netstack.UDPHeaderLen
	interval := sim.Time(float64(frameBytes) / (1e9 / 8 / (m.ClockGHz * 1e9)) / 1.05)
	gen.Run(env.E, interval, packets)
	deadline := sim.Time(packets+20) * interval * 4
	env.E.RunUntil(deadline)

	// Achieved rate over the actual span of echoed packets: the wire (or the
	// OS path) paces delivery, so the receive span is what saturation means.
	if gen.Received <= 1 {
		return 0
	}
	rxSeconds := float64(gen.LastRx-gen.FirstRx) / (m.ClockGHz * 1e9)
	return float64(gen.Received-1) * 1000 * 8 / rxSeconds / 1e6
}

// WebResult is one §5.4 web-server measurement.
type WebResult struct {
	ReqPerSec float64
	Mbit      float64
}

// WebServerBF measures the multikernel web server on the 2×2-core AMD
// system: driver on core 2, web server on core 3, database (if any) on core
// 1, all connected by URPC, serving an external httperf-style client fleet.
func WebServerBF(db bool, window sim.Time) *WebResult {
	return webServer(db, false, window)
}

// WebServerLinux measures the comparator (lighttpd over the in-kernel
// stack).
func WebServerLinux(window sim.Time) *WebResult {
	return webServer(false, true, window)
}

func webServer(db, kernelStack bool, window sim.Time) *WebResult {
	env, gen := buildWebServer(db, kernelStack)
	defer env.Close()
	// Warm-up, then measure over the window.
	warm := window / 4
	env.E.RunUntil(warm)
	before, beforeBytes := gen.Completed, gen.BytesIn
	env.E.RunUntil(warm + window)
	done := gen.Completed - before
	bytes := gen.BytesIn - beforeBytes
	gen.Stop()
	seconds := float64(window) / (env.M.ClockGHz * 1e9)
	return &WebResult{
		ReqPerSec: float64(done) / seconds,
		Mbit:      float64(bytes) * 8 / seconds / 1e6,
	}
}

// buildWebServer builds webServer's system, its fleet of clients started.
func buildWebServer(db, kernelStack bool) (*Env, *apps.HTTPLoadGen) {
	m := topo.AMD2x2()
	env := NewEnv(m, 6)
	w := netstack.NewWire(env.E, 1, m.ClockGHz)
	nic := netstack.NewNIC(env.E, env.Sys, "e1000", w, true)

	serverIP := netstack.IP4(10, 1, 1, 1)
	app := netstack.NewStack(env.E, env.Sys, "web", 3, serverIP)
	if kernelStack {
		const core = 3
		app.SetPoller(func(p *sim.Proc) bool {
			any := false
			for {
				f := nic.Poll(p, core, nil)
				if f == nil {
					return any
				}
				p.Sleep(kRxPathCost)
				env.Kern.Core(core).Syscall(p)
				app.Inject(f)
				any = true
			}
		})
		app.SetOutput(func(p *sim.Proc, f netstack.Frame) {
			env.Kern.Core(core).Syscall(p)
			p.Sleep(kTxPathCost)
			if err := nic.Transmit(p, core, f); err != nil {
				_ = err
			}
		})
	} else {
		netstack.NewDriver(env.E, env.Sys, nic, 2, app)
	}

	ws := &apps.WebServer{Stack: app, Page: apps.StaticPage()}
	path := "/index.html"
	if db {
		kv := apps.NewKVStore(env.Sys, 1, 10000)
		svc := apps.NewKVService(env.E, kv)
		ws.DB = svc.Connect(3)
		path = "/db/123"
	}
	env.E.Spawn("websrv", func(p *sim.Proc) {
		p.SetDaemon(true)
		ws.Serve(p)
	})

	gen := &apps.HTTPLoadGen{
		Wire: w, FromA: false,
		SrcIP: netstack.IP4(10, 1, 1, 99), DstIP: serverIP,
		DstMAC: app.MAC, Path: path, Concurrency: 24,
	}
	w.Attach(nic, gen)
	gen.Start(env.E)
	return env, gen
}

// Sec54 regenerates the §5.4 I/O results as one table.
func Sec54(packets int, webWindow sim.Time) *table {
	t := &table{
		Title:   "Section 5.4: IO workloads",
		Columns: []string{"Experiment", "Barrelfish", "Linux"},
	}
	t.AddRow("UDP echo throughput (Mbit/s)",
		fmt.Sprintf("%.1f", UDPEchoBF(packets)),
		fmt.Sprintf("%.1f", UDPEchoLinux(packets)))
	bfWeb := WebServerBF(false, webWindow)
	lxWeb := WebServerLinux(webWindow)
	t.AddRow("Static web server (requests/s)",
		fmt.Sprintf("%.0f", bfWeb.ReqPerSec),
		fmt.Sprintf("%.0f", lxWeb.ReqPerSec))
	t.AddRow("Static web server (Mbit/s)",
		fmt.Sprintf("%.1f", bfWeb.Mbit),
		fmt.Sprintf("%.1f", lxWeb.Mbit))
	dbWeb := WebServerBF(true, webWindow)
	t.AddRow("Web + database (requests/s)",
		fmt.Sprintf("%.0f", dbWeb.ReqPerSec), "-")
	return t
}
