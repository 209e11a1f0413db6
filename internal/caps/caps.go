// Package caps implements the capability system Barrelfish uses for all
// memory management (paper §4.7), modelled on seL4: every kernel object and
// region of physical memory is referred to by a typed capability, and the
// only way to change the use of memory is to retype or revoke capabilities.
// The CPU driver's sole memory-management duty is checking these operations.
//
// Each core has its own CSpace (a replica); cross-core consistency — the
// guarantee that, say, no core holds a writable Frame over another core's
// page table — is maintained by the monitors' two-phase commit (package
// monitor), and can be audited with ConflictCheck.
package caps

import (
	"errors"
	"fmt"
	"sort"

	"multikernel/internal/memory"
)

// Type classifies a capability.
type Type uint8

// Capability types.
const (
	Null       Type = iota
	RAM             // untyped memory, retypable
	Frame           // mappable user memory
	DevFrame        // device registers / DMA memory, mappable uncached
	PageTable       // a page-table node (Level distinguishes L1..L4)
	CNode           // capability storage
	Dispatcher      // a dispatcher control block
	Endpoint        // an IPC endpoint
	IRQ             // interrupt delivery rights
)

func (t Type) String() string {
	switch t {
	case Null:
		return "Null"
	case RAM:
		return "RAM"
	case Frame:
		return "Frame"
	case DevFrame:
		return "DevFrame"
	case PageTable:
		return "PageTable"
	case CNode:
		return "CNode"
	case Dispatcher:
		return "Dispatcher"
	case Endpoint:
		return "Endpoint"
	case IRQ:
		return "IRQ"
	}
	return "?"
}

// Rights restrict what a capability permits.
type Rights uint8

// Capability rights bits.
const (
	CanRead Rights = 1 << iota
	CanWrite
	CanExec
	CanGrant // may be copied to other domains/cores
)

// AllRights grants everything.
const AllRights = CanRead | CanWrite | CanExec | CanGrant

// Capability describes one typed reference to memory or a kernel object.
type Capability struct {
	Type   Type
	Level  int // page-table level (1 = leaf .. 4 = root); 0 otherwise
	Base   memory.Addr
	Bytes  uint64
	Rights Rights
}

// End returns one past the capability's range.
func (c Capability) End() memory.Addr { return c.Base + memory.Addr(c.Bytes) }

// Overlaps reports whether two capabilities' physical ranges intersect.
func (c Capability) Overlaps(o Capability) bool {
	return c.Base < o.End() && o.Base < c.End()
}

func (c Capability) String() string {
	if c.Type == PageTable {
		return fmt.Sprintf("PageTable/L%d[%#x+%#x]", c.Level, uint64(c.Base), c.Bytes)
	}
	return fmt.Sprintf("%s[%#x+%#x]", c.Type, uint64(c.Base), c.Bytes)
}

// Ref names a slot in a CSpace.
type Ref uint32

// Errors returned by capability operations.
var (
	ErrBadRef       = errors.New("caps: invalid capability reference")
	ErrNotRetypable = errors.New("caps: source capability is not untyped RAM")
	ErrHasChildren  = errors.New("caps: capability has live descendants")
	ErrTooSmall     = errors.New("caps: region too small for requested objects")
	ErrBadObject    = errors.New("caps: invalid object size or type")
)

// node is one entry of the mapping database: the derivation tree of caps.
type node struct {
	cap      Capability
	ref      Ref
	parent   *node
	children []*node
}

// CSpace is one core's capability space.
type CSpace struct {
	owner string
	slots map[Ref]*node
	next  Ref
}

// NewCSpace returns an empty capability space. The owner string is purely
// diagnostic (e.g. "core3").
func NewCSpace(owner string) *CSpace {
	return &CSpace{owner: owner, slots: make(map[Ref]*node), next: 1}
}

// Len returns the number of live capabilities.
func (cs *CSpace) Len() int { return len(cs.slots) }

func (cs *CSpace) insert(n *node) Ref {
	r := cs.next
	cs.next++
	n.ref = r
	cs.slots[r] = n
	return r
}

// AddRoot installs a boot-time capability with no parent (e.g. the initial
// untyped RAM covering a memory region) and returns its slot.
func (cs *CSpace) AddRoot(c Capability) Ref {
	return cs.insert(&node{cap: c})
}

// Get returns the capability in slot r.
func (cs *CSpace) Get(r Ref) (Capability, error) {
	n, ok := cs.slots[r]
	if !ok {
		return Capability{}, ErrBadRef
	}
	return n.cap, nil
}

// objectSpec validates a retype target and returns the required alignment.
func objectSpec(to Type, level int, objBytes uint64) error {
	switch to {
	case Frame, DevFrame, RAM:
		if objBytes == 0 || objBytes%memory.LineSize != 0 {
			return ErrBadObject
		}
	case PageTable:
		if level < 1 || level > 4 || objBytes != 4096 {
			return ErrBadObject
		}
	case CNode:
		if objBytes == 0 || objBytes%memory.LineSize != 0 {
			return ErrBadObject
		}
	case Dispatcher:
		if objBytes != 1024 {
			return ErrBadObject
		}
	case Endpoint:
		if objBytes != memory.LineSize {
			return ErrBadObject
		}
	default:
		return ErrBadObject
	}
	return nil
}

// Retype converts count objects of the given type out of the untyped RAM
// capability in slot r, returning their new slots. Following seL4, a
// capability with live descendants cannot be retyped — this is the local
// check; cross-core agreement is the monitors' job.
func (cs *CSpace) Retype(r Ref, to Type, level int, objBytes uint64, count int) ([]Ref, error) {
	n, ok := cs.slots[r]
	if !ok {
		return nil, ErrBadRef
	}
	if n.cap.Type != RAM {
		return nil, ErrNotRetypable
	}
	if len(n.children) > 0 {
		return nil, ErrHasChildren
	}
	if err := objectSpec(to, level, objBytes); err != nil {
		return nil, err
	}
	if count < 1 || objBytes*uint64(count) > n.cap.Bytes {
		return nil, ErrTooSmall
	}
	refs := make([]Ref, count)
	for i := 0; i < count; i++ {
		child := &node{
			cap: Capability{
				Type:   to,
				Level:  level,
				Base:   n.cap.Base + memory.Addr(uint64(i)*objBytes),
				Bytes:  objBytes,
				Rights: n.cap.Rights,
			},
			parent: n,
		}
		n.children = append(n.children, child)
		refs[i] = cs.insert(child)
	}
	return refs, nil
}

// Delete removes the capability in slot r. Its children (if any) are
// re-parented to r's parent, preserving revocation reachability.
func (cs *CSpace) Delete(r Ref) error {
	n, ok := cs.slots[r]
	if !ok {
		return ErrBadRef
	}
	for _, c := range n.children {
		c.parent = n.parent
		if n.parent != nil {
			n.parent.children = append(n.parent.children, c)
		}
	}
	if n.parent != nil {
		n.parent.children = removeChild(n.parent.children, n)
	}
	delete(cs.slots, r)
	return nil
}

// Revoke deletes every capability derived from slot r (copies and retypes,
// transitively), leaving r itself live. It returns the number removed.
func (cs *CSpace) Revoke(r Ref) (int, error) {
	n, ok := cs.slots[r]
	if !ok {
		return 0, ErrBadRef
	}
	removed := 0
	var kill func(*node)
	kill = func(x *node) {
		for _, c := range x.children {
			kill(c)
		}
		x.children = nil
		delete(cs.slots, x.ref)
		removed++
	}
	for _, c := range n.children {
		kill(c)
	}
	n.children = nil
	return removed, nil
}

// Refs returns the live slot references in ascending order.
func (cs *CSpace) Refs() []Ref {
	out := make([]Ref, 0, len(cs.slots))
	for r := range cs.slots {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// All returns the live capabilities sorted by base address (copies included).
func (cs *CSpace) All() []Capability {
	out := make([]Capability, 0, len(cs.slots))
	for _, n := range cs.slots {
		out = append(out, n.cap)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Base != out[j].Base {
			return out[i].Base < out[j].Base
		}
		return out[i].Type < out[j].Type
	})
	return out
}

func removeChild(list []*node, target *node) []*node {
	for i, c := range list {
		if c == target {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// ConflictCheck audits a set of capability spaces (typically one per core)
// for the cross-core typing hazard of §4.7: a writable Frame overlapping a
// PageTable, Dispatcher or CNode object, or two different-type non-RAM
// capabilities over the same memory. It returns nil when the system is
// consistent.
func ConflictCheck(spaces ...*CSpace) error {
	type entry struct {
		cap   Capability
		owner string
	}
	var all []entry
	for _, cs := range spaces {
		for _, c := range cs.All() {
			if c.Type == Null || c.Type == RAM || c.Type == IRQ {
				continue // untyped and non-memory caps cannot conflict
			}
			all = append(all, entry{c, cs.owner})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].cap.Base < all[j].cap.Base })
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			a, b := all[i], all[j]
			if b.cap.Base >= a.cap.End() {
				break // sorted: no further overlaps with a
			}
			if !a.cap.Overlaps(b.cap) {
				continue
			}
			sameObject := a.cap.Base == b.cap.Base && a.cap.Bytes == b.cap.Bytes && a.cap.Type == b.cap.Type && a.cap.Level == b.cap.Level
			if sameObject {
				continue // replicas/copies of one object are fine
			}
			return fmt.Errorf("caps: %s in %s conflicts with %s in %s",
				a.cap, a.owner, b.cap, b.owner)
		}
	}
	return nil
}
