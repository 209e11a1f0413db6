// webserver reproduces the §5.4 service pipeline: an e1000 NIC on the
// simulated wire, its driver domain on one core, a web server domain on
// another, and a database service on a third, all connected by URPC — then
// drives it with an external httperf-style client fleet and reports
// sustained request throughput for static and database-backed pages.
package main

import (
	"fmt"

	"multikernel/internal/apps"
	"multikernel/internal/expt"
	"multikernel/internal/netstack"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

func main() {
	m := topo.AMD2x2()
	fmt.Printf("web service pipeline on %v\n", m)
	fmt.Println("placement: NIC driver on core 2, web server on core 3, database on core 1")
	fmt.Println()

	// One illustrative request, end to end.
	demoOneRequest()

	// Sustained throughput, as measured by the experiment harness.
	window := sim.Time(30_000_000)
	static := expt.WebServerBF(false, window)
	linux := expt.WebServerLinux(window)
	db := expt.WebServerBF(true, window)
	fmt.Printf("sustained throughput over a %.0fms window:\n", float64(window)/(m.ClockGHz*1e9)*1e3)
	fmt.Printf("  static 4.1kB page, Barrelfish pipeline: %7.0f requests/s (%.1f Mbit/s)\n", static.ReqPerSec, static.Mbit)
	fmt.Printf("  static 4.1kB page, in-kernel comparator: %6.0f requests/s (%.1f Mbit/s)\n", linux.ReqPerSec, linux.Mbit)
	fmt.Printf("  database-backed page (URPC to core 1):   %6.0f requests/s\n", db.ReqPerSec)
}

func demoOneRequest() {
	m := topo.AMD2x2()
	env := expt.NewEnv(m, 9)
	defer env.Close()

	w := netstack.NewWire(env.E, 1, m.ClockGHz)
	nic := netstack.NewNIC(env.E, env.Sys, "e1000", w, true)
	serverIP := netstack.IP4(10, 1, 1, 1)
	app := netstack.NewStack(env.E, env.Sys, "web", 3, serverIP)
	netstack.NewDriver(env.E, env.Sys, nic, 2, app)

	kv := apps.NewKVStore(env.Sys, 1, 10000)
	svc := apps.NewKVService(env.E, kv)
	ws := &apps.WebServer{Stack: app, Page: apps.StaticPage(), DB: svc.Connect(3)}
	env.E.Spawn("websrv", func(p *sim.Proc) {
		p.SetDaemon(true)
		ws.Serve(p)
	})

	gen := &apps.HTTPLoadGen{
		Wire: w, FromA: false,
		SrcIP: netstack.IP4(10, 1, 1, 99), DstIP: serverIP,
		DstMAC: app.MAC, Path: "/db/4242", Concurrency: 1,
	}
	w.Attach(nic, gen)
	gen.Start(env.E)
	env.E.RunUntil(3_000_000)
	gen.Stop()
	fmt.Printf("demo: served %d database request(s); %d bytes returned to the client\n",
		gen.Completed, gen.BytesIn)
	fmt.Printf("      server handled %d HTTP requests, database ran %d queries\n\n",
		ws.Requests, kv.Queries)
}
