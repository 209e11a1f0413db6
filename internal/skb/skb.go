// Package skb implements the system knowledge base (paper §4.9): a
// repository of facts about the machine, populated from hardware discovery
// (topology), online measurement (pairwise URPC latency) and pre-asserted
// knowledge, with a query interface used to derive policy — most importantly
// the NUMA-aware multicast trees that make TLB shootdown scale (§5.1).
//
// The paper's SKB embeds a constraint-logic-programming system (ECLiPSe);
// this implementation provides a small relational fact store with wildcard
// queries, which is sufficient for every query the evaluation performs.
package skb

import (
	"fmt"
	"sort"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// Wildcard matches any value in a Query pattern.
const Wildcard = int64(-1 << 62)

// KB is a fact store: a set of named relations over integers.
type KB struct {
	mach  *topo.Machine
	facts map[string][][]int64
}

// New returns an empty knowledge base for the machine.
func New(m *topo.Machine) *KB {
	return &KB{mach: m, facts: make(map[string][][]int64)}
}

// Assert adds the fact pred(args...).
func (kb *KB) Assert(pred string, args ...int64) {
	row := make([]int64, len(args))
	copy(row, args)
	kb.facts[pred] = append(kb.facts[pred], row)
}

// Retract removes all facts of pred matching the pattern (Wildcard matches
// anything) and returns the number removed.
func (kb *KB) Retract(pred string, pattern ...int64) int {
	rows := kb.facts[pred]
	var keep [][]int64
	removed := 0
	for _, r := range rows {
		if matches(r, pattern) {
			removed++
		} else {
			keep = append(keep, r)
		}
	}
	kb.facts[pred] = keep
	return removed
}

// Query returns all rows of pred matching the pattern. A nil pattern matches
// every row.
func (kb *KB) Query(pred string, pattern ...int64) [][]int64 {
	var out [][]int64
	for _, r := range kb.facts[pred] {
		if matches(r, pattern) {
			out = append(out, r)
		}
	}
	return out
}

// QueryOne returns the first row of pred matching the pattern, or nil.
func (kb *KB) QueryOne(pred string, pattern ...int64) []int64 {
	for _, r := range kb.facts[pred] {
		if matches(r, pattern) {
			return r
		}
	}
	return nil
}

// Count returns the number of facts of pred.
func (kb *KB) Count(pred string) int { return len(kb.facts[pred]) }

func matches(row, pattern []int64) bool {
	if len(pattern) == 0 {
		return true
	}
	if len(row) != len(pattern) {
		return false
	}
	for i, p := range pattern {
		if p != Wildcard && row[i] != p {
			return false
		}
	}
	return true
}

// Discover populates the KB with hardware-discovery facts: core(id, socket),
// socket(id), link(a, b), hops(a, b, n), iosocket(id) — the ACPI/PCI/CPUID
// equivalent of the paper.
func (kb *KB) Discover() {
	m := kb.mach
	for s := 0; s < m.NSockets; s++ {
		kb.Assert("socket", int64(s))
		for _, c := range m.CoresOf(topo.SocketID(s)) {
			kb.Assert("core", int64(c), int64(s))
		}
	}
	for _, l := range m.Links {
		kb.Assert("link", int64(l.A), int64(l.B))
		kb.Assert("link", int64(l.B), int64(l.A))
	}
	for a := 0; a < m.NSockets; a++ {
		for b := 0; b < m.NSockets; b++ {
			kb.Assert("hops", int64(a), int64(b), int64(m.Hops(topo.SocketID(a), topo.SocketID(b))))
		}
	}
	kb.Assert("iosocket", int64(m.IOSocket))
}

// probeOverhead is the fixed cost, in cycles, that the boot-time latency
// probe adds to a message's two line transfers.
const probeOverhead = 160

// Measure populates pairwise message-latency facts msg_latency(a, b, cycles)
// for every ordered core pair, the analogue of the paper's online URPC
// latency measurement at boot (§4.9). The probe uses the machine model
// directly, standing in for the measurement channels Barrelfish sets up: a
// message from a to b costs two transfers of a line from a to b plus
// probeOverhead.
func (kb *KB) Measure() {
	m := kb.mach
	for a := 0; a < m.NumCores(); a++ {
		for b := 0; b < m.NumCores(); b++ {
			if a == b {
				continue
			}
			lat := 2*m.TransferLat(topo.CoreID(b), topo.CoreID(a)) + probeOverhead
			kb.Assert("msg_latency", int64(a), int64(b), int64(lat))
		}
	}
}

// Latency returns the measured message latency from a to b, or 0 if the KB
// has no measurement.
func (kb *KB) Latency(a, b topo.CoreID) sim.Time {
	if r := kb.QueryOne("msg_latency", int64(a), int64(b), Wildcard); r != nil {
		return sim.Time(r[2])
	}
	return 0
}

// Group is one socket's portion of a multicast tree: an aggregation core
// that receives the message over the interconnect and forwards it to its
// socket-local children through the shared cache.
type Group struct {
	Agg      topo.CoreID
	Children []topo.CoreID
	Latency  sim.Time // measured latency from the tree source to Agg
}

// Tree is a two-level, NUMA-aware multicast tree rooted at a source core
// (§5.1): one aggregation node per socket, ordered by decreasing latency so
// the longest paths are started first, plus the source's own socket-local
// children.
type Tree struct {
	Groups []Group       // remote sockets, decreasing latency order
	Local  []topo.CoreID // cores sharing the source's socket
}

// MulticastTree computes the multicast tree from src covering the given
// cores (pass nil for all cores). The aggregation node of each socket is its
// lowest-numbered participating core; remote groups are ordered by
// decreasing measured latency, falling back to hop counts when the KB has no
// measurements.
func (kb *KB) MulticastTree(src topo.CoreID, cores []topo.CoreID) *Tree {
	m := kb.mach
	if cores == nil {
		for i := 0; i < m.NumCores(); i++ {
			cores = append(cores, topo.CoreID(i))
		}
	}
	bySocket := make(map[topo.SocketID][]topo.CoreID)
	for _, c := range cores {
		if c == src {
			continue
		}
		bySocket[m.Socket(c)] = append(bySocket[m.Socket(c)], c)
	}
	t := &Tree{}
	srcSocket := m.Socket(src)
	for s, cs := range bySocket {
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		if s == srcSocket {
			t.Local = cs
			continue
		}
		g := Group{Agg: cs[0], Children: cs[1:]}
		g.Latency = kb.Latency(src, g.Agg)
		if g.Latency == 0 {
			// No measurement: approximate with hop count so ordering still
			// reflects distance.
			g.Latency = sim.Time(m.Hops(srcSocket, s))
		}
		t.Groups = append(t.Groups, g)
	}
	sort.Slice(t.Groups, func(i, j int) bool {
		if t.Groups[i].Latency != t.Groups[j].Latency {
			return t.Groups[i].Latency > t.Groups[j].Latency
		}
		return t.Groups[i].Agg < t.Groups[j].Agg // deterministic tie-break
	})
	return t
}

// Region is one subtree of a hierarchical multicast tree: a head group whose
// aggregation core both forwards to its own socket-local children and relays
// the message onward to the Subs groups' aggregators.
type Region struct {
	Group         // the head: first (highest-latency) group of the region
	Subs  []Group // remaining socket groups, reached via the head's Agg
}

// HierTree is a three-level multicast tree for large machines: the source
// sends to at most `fanout` region heads; each head forwards to its own
// socket-local children and relays to the aggregators of the region's other
// sockets, which in turn forward to their children. On machines with no more
// than `fanout` remote sockets it degenerates to the flat two-level Tree.
type HierTree struct {
	Regions []Region
	Local   []topo.CoreID
}

// HierMulticastTree computes a hierarchical multicast tree from src covering
// the given cores (nil = all), bounding the source's direct sends to at most
// fanout region heads. Socket groups are formed exactly as in MulticastTree
// and kept in its decreasing-latency order; when they exceed the fanout they
// are split into balanced contiguous runs, so each region's head is its
// farthest group and the relayed groups are nearer ones whose extra hop
// overlaps the head's own forwarding.
func (kb *KB) HierMulticastTree(src topo.CoreID, cores []topo.CoreID, fanout int) *HierTree {
	if fanout < 1 {
		panic("skb: hierarchical multicast fanout must be >= 1")
	}
	flat := kb.MulticastTree(src, cores)
	t := &HierTree{Local: flat.Local}
	n := len(flat.Groups)
	if n == 0 {
		return t
	}
	nregions := fanout
	if n < nregions {
		nregions = n
	}
	for i := 0; i < nregions; i++ {
		// Balanced contiguous chunks: the first n%nregions regions get one
		// extra group.
		lo := i*(n/nregions) + min(i, n%nregions)
		hi := lo + n/nregions
		if i < n%nregions {
			hi++
		}
		chunk := flat.Groups[lo:hi]
		t.Regions = append(t.Regions, Region{Group: chunk[0], Subs: chunk[1:]})
	}
	return t
}

// AllocAdvice returns the socket whose memory a channel or buffer serving
// core c should be allocated from: c's own socket (NUMA-local placement).
func (kb *KB) AllocAdvice(c topo.CoreID) topo.SocketID {
	return kb.mach.Socket(c)
}

// String renders the KB's relations and cardinalities.
func (kb *KB) String() string {
	preds := make([]string, 0, len(kb.facts))
	for p := range kb.facts {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	s := fmt.Sprintf("skb for %s:", kb.mach.Name)
	for _, p := range preds {
		s += fmt.Sprintf(" %s/%d", p, len(kb.facts[p]))
	}
	return s
}
