package obs

// Inspectors that only the tests use.

// Degraded reports whether any shard is currently below target.
func (h *Health) Degraded() bool {
	for _, d := range h.degraded {
		if d {
			return true
		}
	}
	return false
}

// N returns the number of points ever committed (≥ len(Points()) after the
// ring wraps).
func (s *Series) N() uint64 { return s.n }
