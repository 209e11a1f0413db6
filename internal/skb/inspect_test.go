package skb

// Fanout counts the cores a multicast tree reaches; only the tests ask.

// Fanout returns the total number of cores the tree reaches (excluding the
// source).
func (t *Tree) Fanout() int {
	n := len(t.Local)
	for _, g := range t.Groups {
		n += 1 + len(g.Children)
	}
	return n
}

// Fanout returns the total number of cores the tree reaches (excluding the
// source).
func (t *HierTree) Fanout() int {
	n := len(t.Local)
	for _, r := range t.Regions {
		n += 1 + len(r.Children)
		for _, g := range r.Subs {
			n += 1 + len(g.Children)
		}
	}
	return n
}
