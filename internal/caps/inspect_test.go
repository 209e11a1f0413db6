package caps

import (
	"errors"
	"fmt"
)

// Copy and Mint derive capabilities by duplication, the other way besides
// Retype to grow a derivation tree; only these tests derive that way, to
// check that Revoke and Delete walk every kind of descendant. MustGet and
// HasDescendants are inspectors.

// Errors of Copy and Mint.
var (
	ErrRightsGrow = errors.New("caps: mint may only reduce rights")
	ErrNoGrant    = errors.New("caps: capability lacks grant right")
)

// NilRef is the invalid slot.
const NilRef Ref = 0

// MustGet is Get for slots known to be valid; it panics on a bad ref.
func (cs *CSpace) MustGet(r Ref) Capability {
	c, err := cs.Get(r)
	if err != nil {
		panic(fmt.Sprintf("caps: %v (slot %d in %s)", err, r, cs.owner))
	}
	return c
}

// HasDescendants reports whether slot r has live derived capabilities.
func (cs *CSpace) HasDescendants(r Ref) bool {
	n, ok := cs.slots[r]
	return ok && len(n.children) > 0
}

// Copy duplicates the capability in slot r with identical rights. The source
// must carry the grant right.
func (cs *CSpace) Copy(r Ref) (Ref, error) {
	return cs.Mint(r, 0xff) // 0xff: keep all current rights
}

// Mint duplicates the capability in slot r with reduced rights (a subset of
// the source's). Pass 0xff to keep the source rights unchanged.
func (cs *CSpace) Mint(r Ref, rights Rights) (Ref, error) {
	n, ok := cs.slots[r]
	if !ok {
		return NilRef, ErrBadRef
	}
	if n.cap.Rights&CanGrant == 0 {
		return NilRef, ErrNoGrant
	}
	if rights == 0xff {
		rights = n.cap.Rights
	}
	if rights&^n.cap.Rights != 0 {
		return NilRef, ErrRightsGrow
	}
	child := &node{cap: n.cap, parent: n}
	child.cap.Rights = rights
	n.children = append(n.children, child)
	return cs.insert(child), nil
}
