package skb

import (
	"testing"

	"multikernel/internal/topo"
)

func TestAssertQueryRetract(t *testing.T) {
	kb := New(topo.AMD2x2())
	kb.Assert("f", 1, 2)
	kb.Assert("f", 1, 3)
	kb.Assert("f", 2, 3)
	if got := len(kb.Query("f", 1, Wildcard)); got != 2 {
		t.Fatalf("query matched %d rows, want 2", got)
	}
	if got := len(kb.Query("f")); got != 3 {
		t.Fatalf("open query matched %d rows", got)
	}
	if r := kb.QueryOne("f", 2, Wildcard); r == nil || r[1] != 3 {
		t.Fatalf("QueryOne = %v", r)
	}
	if kb.QueryOne("f", 9, Wildcard) != nil {
		t.Fatal("QueryOne matched nothing but returned a row")
	}
	if n := kb.Retract("f", 1, Wildcard); n != 2 {
		t.Fatalf("retracted %d, want 2", n)
	}
	if kb.Count("f") != 1 {
		t.Fatalf("count=%d", kb.Count("f"))
	}
}

func TestQueryArityMismatchNoMatch(t *testing.T) {
	kb := New(topo.AMD2x2())
	kb.Assert("g", 1, 2, 3)
	if len(kb.Query("g", 1, 2)) != 0 {
		t.Fatal("pattern of wrong arity matched")
	}
}

func TestDiscoverFacts(t *testing.T) {
	m := topo.AMD4x4()
	kb := New(m)
	kb.Discover()
	if kb.Count("core") != 16 {
		t.Fatalf("core facts=%d", kb.Count("core"))
	}
	if kb.Count("socket") != 4 {
		t.Fatalf("socket facts=%d", kb.Count("socket"))
	}
	// core 9 is on socket 2
	if r := kb.QueryOne("core", 9, Wildcard); r == nil || r[1] != 2 {
		t.Fatalf("core(9,S)=%v", r)
	}
	// links are asserted both ways
	if kb.Count("link") != 2*len(m.Links) {
		t.Fatalf("link facts=%d", kb.Count("link"))
	}
	if r := kb.QueryOne("hops", 0, 3, Wildcard); r == nil || r[2] != 2 {
		t.Fatalf("hops(0,3)=%v", r)
	}
}

func TestMeasureAndLatency(t *testing.T) {
	m := topo.AMD2x2()
	kb := New(m)
	kb.Measure()
	if got := kb.Latency(0, 2); got != 2*m.TransferLat(2, 0)+probeOverhead {
		t.Fatalf("latency(0,2)=%d", got)
	}
	if got := kb.Latency(0, 0); got != 0 {
		t.Fatal("self latency should be unmeasured")
	}
}

func TestMulticastTreeStructure(t *testing.T) {
	m := topo.AMD8x4()
	kb := New(m)
	kb.Discover()
	kb.Measure()
	tree := kb.MulticastTree(0, nil)
	if tree.Fanout() != 31 {
		t.Fatalf("fanout=%d, want 31", tree.Fanout())
	}
	if len(tree.Local) != 3 {
		t.Fatalf("local children=%d, want 3", len(tree.Local))
	}
	if len(tree.Groups) != 7 {
		t.Fatalf("remote groups=%d, want 7", len(tree.Groups))
	}
	// One aggregation node per remote socket, each with 3 children.
	seen := map[topo.SocketID]bool{}
	for _, g := range tree.Groups {
		s := m.Socket(g.Agg)
		if seen[s] {
			t.Fatalf("socket %d has two aggregation nodes", s)
		}
		seen[s] = true
		if len(g.Children) != 3 {
			t.Fatalf("group %d has %d children", g.Agg, len(g.Children))
		}
		for _, c := range g.Children {
			if m.Socket(c) != s {
				t.Fatal("child on wrong socket")
			}
		}
	}
	// Groups ordered by decreasing latency.
	for i := 1; i < len(tree.Groups); i++ {
		if tree.Groups[i].Latency > tree.Groups[i-1].Latency {
			t.Fatal("groups not in decreasing latency order")
		}
	}
}

func TestMulticastTreeSubset(t *testing.T) {
	m := topo.AMD8x4()
	kb := New(m)
	kb.Discover()
	cores := []topo.CoreID{0, 1, 2, 4, 5, 8} // sockets 0 (0-3) and 1 (4-7), 2 (8-11)
	tree := kb.MulticastTree(0, cores)
	if tree.Fanout() != 5 {
		t.Fatalf("fanout=%d, want 5", tree.Fanout())
	}
	if len(tree.Local) != 2 { // cores 1, 2
		t.Fatalf("local=%v", tree.Local)
	}
	if len(tree.Groups) != 2 {
		t.Fatalf("groups=%d", len(tree.Groups))
	}
}

// HierMulticastTree on a 16-socket mesh with fanout 4: the source sends to
// 4 region heads; every one of the 15 remote socket groups appears exactly
// once (as a head or a relayed sub), region heads are the farthest groups of
// their chunk, and total coverage matches the flat tree.
func TestHierMulticastTreeStructure(t *testing.T) {
	m := topo.Mesh(4) // 16 sockets x 4 cores
	kb := New(m)
	kb.Discover()
	const fanout = 4
	tree := kb.HierMulticastTree(0, nil, fanout)
	if got, want := tree.Fanout(), m.NumCores()-1; got != want {
		t.Fatalf("fanout=%d, want %d", got, want)
	}
	if len(tree.Regions) != fanout {
		t.Fatalf("regions=%d, want %d", len(tree.Regions), fanout)
	}
	if len(tree.Local) != m.CoresPerSocket-1 {
		t.Fatalf("local=%v", tree.Local)
	}
	seen := map[topo.SocketID]bool{}
	note := func(g Group) {
		s := m.Socket(g.Agg)
		if seen[s] {
			t.Fatalf("socket %d appears twice", s)
		}
		seen[s] = true
	}
	for _, r := range tree.Regions {
		note(r.Group)
		for _, g := range r.Subs {
			note(g)
			// The head is its region's farthest group (flat order is
			// decreasing latency, chunks are contiguous).
			if g.Latency > r.Latency {
				t.Fatalf("sub group %d (lat %d) farther than its head %d (lat %d)",
					g.Agg, g.Latency, r.Agg, r.Latency)
			}
		}
	}
	if len(seen) != m.NSockets-1 {
		t.Fatalf("covered %d remote sockets, want %d", len(seen), m.NSockets-1)
	}
}

// With few remote sockets the hierarchical tree degenerates to the flat one:
// each region is a single group with no subs.
func TestHierMulticastTreeDegenerate(t *testing.T) {
	m := topo.AMD4x4()
	kb := New(m)
	kb.Discover()
	tree := kb.HierMulticastTree(0, nil, 8)
	flat := kb.MulticastTree(0, nil)
	if len(tree.Regions) != len(flat.Groups) {
		t.Fatalf("regions=%d, want %d", len(tree.Regions), len(flat.Groups))
	}
	for i, r := range tree.Regions {
		if len(r.Subs) != 0 {
			t.Fatalf("region %d has %d subs on a small machine", i, len(r.Subs))
		}
		if r.Agg != flat.Groups[i].Agg {
			t.Fatalf("region %d head %d != flat group %d", i, r.Agg, flat.Groups[i].Agg)
		}
	}
	if tree.Fanout() != flat.Fanout() {
		t.Fatalf("hier fanout %d != flat %d", tree.Fanout(), flat.Fanout())
	}
}

// The same seed always produces the same hierarchical tree (map iteration in
// group formation must not leak into region assignment).
func TestHierMulticastTreeDeterministic(t *testing.T) {
	m := topo.Mesh(3)
	kb := New(m)
	kb.Discover()
	a := kb.HierMulticastTree(5, nil, 3)
	for i := 0; i < 10; i++ {
		b := kb.HierMulticastTree(5, nil, 3)
		if len(a.Regions) != len(b.Regions) {
			t.Fatal("region count varies")
		}
		for j := range a.Regions {
			if a.Regions[j].Agg != b.Regions[j].Agg || len(a.Regions[j].Subs) != len(b.Regions[j].Subs) {
				t.Fatalf("region %d differs between runs", j)
			}
			for k := range a.Regions[j].Subs {
				if a.Regions[j].Subs[k].Agg != b.Regions[j].Subs[k].Agg {
					t.Fatalf("region %d sub %d differs between runs", j, k)
				}
			}
		}
	}
}

func TestMulticastTreeWithoutMeasurementsUsesHops(t *testing.T) {
	m := topo.AMD8x4()
	kb := New(m)
	kb.Discover() // no Measure
	tree := kb.MulticastTree(0, nil)
	if len(tree.Groups) != 7 {
		t.Fatalf("groups=%d", len(tree.Groups))
	}
	// Furthest socket from 0 in the Figure 2 grid is 7 (4 hops).
	if got := m.Socket(tree.Groups[0].Agg); got != 7 {
		t.Fatalf("first group socket=%d, want 7 (furthest)", got)
	}
}

func TestMulticastTreeDeterministic(t *testing.T) {
	m := topo.AMD4x4()
	kb := New(m)
	kb.Discover()
	a := kb.MulticastTree(5, nil)
	b := kb.MulticastTree(5, nil)
	if len(a.Groups) != len(b.Groups) {
		t.Fatal("nondeterministic group count")
	}
	for i := range a.Groups {
		if a.Groups[i].Agg != b.Groups[i].Agg {
			t.Fatal("nondeterministic tree")
		}
	}
}

func TestAllocAdvice(t *testing.T) {
	kb := New(topo.AMD4x4())
	if kb.AllocAdvice(9) != 2 {
		t.Fatalf("advice=%d, want 2", kb.AllocAdvice(9))
	}
}
