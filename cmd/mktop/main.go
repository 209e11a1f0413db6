// Command mktop prints the topology of each simulated test platform and the
// NUMA-aware multicast trees the system knowledge base derives from it — the
// routes behind Figure 6's best-performing shootdown protocol.
//
// With -metrics, it also boots a multikernel on each machine, drives a burst
// of NUMA-aware coordinated unmaps through it, and renders the per-link
// interconnect traffic as a utilization heat table — showing how the
// multicast trees spread shootdown traffic over the point-to-point fabric.
// By default the table comes from the observability plane's committed
// time-series store (sampled at -obs-interval cycles), so each link also
// reports its peak single-window utilization — the burstiness a whole-run
// average hides. -obs-interval 0 falls back to the original single
// end-of-run registry snapshot.
package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"

	"multikernel"
	"multikernel/internal/memory"
	"multikernel/internal/monitor"
	"multikernel/internal/obs"
	"multikernel/internal/sim"
	"multikernel/internal/skb"
	"multikernel/internal/stats"
	"multikernel/internal/topo"
)

func main() {
	src := flag.Int("source", 0, "multicast tree source core")
	showMetrics := flag.Bool("metrics", false, "run an unmap workload and print per-link utilization heat")
	obsInterval := flag.Uint64("obs-interval", 20_000,
		"sampling interval (cycles) for the observability plane behind -metrics; 0 = single end-of-run snapshot")
	flag.Parse()

	for _, m := range topo.AllMachines() {
		fmt.Printf("%v\n", m)
		fmt.Printf("  links:")
		for _, l := range m.Links {
			fmt.Printf(" %d-%d", l.A, l.B)
		}
		fmt.Printf("\n  diameter: %d hops\n", m.MaxHops())
		for s := 0; s < m.NSockets; s++ {
			fmt.Printf("  socket %d: cores %v\n", s, m.CoresOf(topo.SocketID(s)))
		}

		kb := skb.New(m)
		kb.Discover()
		kb.Measure()
		if *src < m.NumCores() {
			tree := kb.MulticastTree(topo.CoreID(*src), nil)
			fmt.Printf("  multicast tree from core %d (latency-descending):\n", *src)
			for _, g := range tree.Groups {
				fmt.Printf("    agg core %-2d (lat %4d cycles) -> children %v\n", g.Agg, g.Latency, g.Children)
			}
			fmt.Printf("    local children: %v\n", tree.Local)
		}
		if *showMetrics {
			fmt.Print(linkHeat(m, sim.Time(*obsInterval)))
		}
		fmt.Println()
	}
}

// linkHeat boots a multikernel on m, runs one coordinated unmap from every
// socket's first core, and renders per-link traffic as a heat table. With
// interval > 0 the numbers come from the observability plane's committed
// time-series store, which also yields each link's peak single-window
// utilization; with interval 0 it falls back to a single end-of-run registry
// snapshot.
func linkHeat(m *topo.Machine, interval sim.Time) string {
	const linkGBps = 8.0 // nominal HyperTransport-class point-to-point link

	e := multikernel.NewEngine(1)
	defer e.Close()
	sys := multikernel.Boot(e, m)
	var pl *obs.Plane
	if interval > 0 {
		pl = obs.NewPlane(e, sys.Cache, sys.KB, obs.Config{Interval: interval})
		pl.Start()
	}
	var done sim.Time
	e.Spawn("heat", func(p *sim.Proc) {
		for s := 0; s < m.NSockets; s++ {
			init := m.CoresOf(topo.SocketID(s))[0]
			base := memory.Addr(0x100000 + uint64(s)*0x10000)
			sys.Net.Monitor(init).Unmap(p, base, 4096, nil, monitor.NUMAAware)
		}
		done = p.Now()
	})
	if pl != nil {
		// Sampler daemons keep the event queue alive, so run in steps until
		// the workload quiesces, then long enough for its last window to ride
		// up the tree and commit.
		for done == 0 {
			e.RunUntil(e.Now() + 10*interval)
		}
		e.RunUntil(done + 4*interval)
	} else {
		e.Run()
	}
	elapsed := uint64(e.Now())

	type row struct {
		name     string
		dwords   uint64
		util     float64
		peakWin  float64
		haveWins bool
	}
	var rows []row
	var peak float64
	addRow := func(name string, dwords uint64, a, b topo.SocketID, peakDelta int64, haveWins bool) {
		u := sys.Fabric.Utilization(a, b, elapsed, linkGBps)
		// Peak-window utilization from the hottest committed delta: bytes
		// over one interval against the link's nominal rate.
		pw := float64(peakDelta) * 4 * m.ClockGHz / (float64(interval) * linkGBps)
		rows = append(rows, row{name, dwords, u, pw, haveWins})
		if u > peak {
			peak = u
		}
	}
	parseLink := func(name string) (string, topo.SocketID, topo.SocketID, bool) {
		if !strings.HasPrefix(name, "interconnect.link.") {
			return "", 0, 0, false
		}
		link := strings.TrimSuffix(strings.TrimPrefix(name, "interconnect.link."), ".dwords")
		var a, b topo.SocketID
		if _, err := fmt.Sscanf(link, "%d-%d", &a, &b); err != nil {
			return "", 0, 0, false
		}
		return link, a, b, true
	}
	if pl != nil {
		// One committed counter series per link direction; Total is the
		// exact whole-run dword count, the points its window deltas.
		st := pl.Store()
		for _, name := range st.Names() {
			link, a, b, ok := parseLink(name)
			if !ok {
				continue
			}
			s := st.Get(name)
			var peakDelta int64
			for _, p := range s.Points() {
				if p.V > peakDelta {
					peakDelta = p.V
				}
			}
			addRow(link, uint64(s.Total()), a, b, peakDelta, true)
		}
	} else {
		// One registry counter per link direction, read once at the end.
		snap := e.Metrics().Snapshot()
		for _, name := range snap.Names() {
			link, a, b, ok := parseLink(name)
			if !ok {
				continue
			}
			addRow(link, snap.Counters[name], a, b, 0, false)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	src := "registry snapshot"
	if pl != nil {
		src = fmt.Sprintf("obs store, %d-cycle windows", interval)
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("per-link traffic, %d NUMA-aware unmaps, %d cycles (%s)", m.NSockets, elapsed, src),
		Columns: []string{"link", "dwords", "util", "peak win", "heat"},
	}
	for _, r := range rows {
		heat := ""
		if peak > 0 {
			heat = strings.Repeat("#", int(r.util/peak*20+0.5))
		}
		pw := "-"
		if r.haveWins {
			pw = fmt.Sprintf("%.4f%%", r.peakWin*100)
		}
		t.AddRow(r.name, fmt.Sprintf("%d", r.dwords), fmt.Sprintf("%.4f%%", r.util*100), pw, heat)
	}
	return t.Render()
}
