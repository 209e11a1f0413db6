package vm

import "multikernel/internal/topo"

// TLB inspectors that only the tests use.

// Len returns the number of live translations.
func (t *TLB) Len() int { return len(t.entries) }

// TLB returns core c's TLB.
func (m *Manager) TLB(c topo.CoreID) *TLB { return m.tlbs[c] }
