package memory

// Region geometry and whole-line stores that only the tests use.

// End returns one past the last byte of the region.
func (r Region) End() Addr { return r.Base + Addr(r.Bytes) }

// Lines returns the number of cache lines the region spans.
func (r Region) Lines() int { return int(r.Bytes / LineSize) }

// StoreLine writes the 8 words of the line containing a.
func (mem *Memory) StoreLine(a Addr, vals [WordsPerLine]uint64) {
	base := a.Line().Base()
	pg := mem.pageFor(base, true)
	copy(pg[(base%(1<<pageShift))/8:], vals[:])
}
