package vm

import (
	"errors"
	"testing"
	"testing/quick"

	"multikernel/internal/cache"
	"multikernel/internal/caps"
	"multikernel/internal/interconnect"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

type rig struct {
	e   *sim.Engine
	m   *topo.Machine
	sys *cache.System
	mgr *Manager
	cs  *caps.CSpace
	ram caps.Ref
}

func newRig(m *topo.Machine) *rig {
	e := sim.NewEngine(1)
	mem := memory.New(m)
	sys := cache.New(e, m, mem, interconnect.New(m))
	mgr := NewManager(sys, 0)
	cs := caps.NewCSpace("test")
	// Back page tables with a real allocated region.
	reg := mem.Alloc(1<<20, 0)
	ram := cs.AddRoot(caps.Capability{Type: caps.RAM, Base: reg.Base, Bytes: reg.Bytes, Rights: caps.AllRights})
	return &rig{e: e, m: m, sys: sys, mgr: mgr, cs: cs, ram: ram}
}

// frame allocates physical memory and returns a Frame capability for it.
func (r *rig) frame(bytes uint64, rights caps.Rights) caps.Ref {
	reg := r.sys.Memory().Alloc(int(bytes), 0)
	return r.cs.AddRoot(caps.Capability{Type: caps.Frame, Base: reg.Base, Bytes: bytes, Rights: rights})
}

func (r *rig) run(fn func(p *sim.Proc)) {
	r.e.Spawn("t", fn)
	r.e.Run()
}

func TestMapTranslateAccess(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		s, err := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		if err != nil {
			t.Fatal(err)
		}
		f := r.frame(PageSize, caps.AllRights)
		if err := s.Map(p, 0, 0x400000, f, Read|Write); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Access(p, 0, 0x400008, true, 777); err != nil {
			t.Fatal(err)
		}
		v, err := s.Access(p, 0, 0x400008, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v != 777 {
			t.Fatalf("read back %d", v)
		}
	})
}

func TestTranslateUnmappedFails(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		if _, err := s.Translate(p, 0, 0x1000, false); !errors.Is(err, ErrNotMapped) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestMapRequiresFrameCap(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		notFrame := r.cs.AddRoot(caps.Capability{Type: caps.RAM, Base: 0x999000, Bytes: PageSize, Rights: caps.AllRights})
		if err := s.Map(p, 0, 0x400000, notFrame, Read); !errors.Is(err, ErrNotAFrame) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestMapWritableNeedsWriteRight(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		ro := r.frame(PageSize, caps.CanRead|caps.CanGrant)
		if err := s.Map(p, 0, 0x400000, ro, Read|Write); !errors.Is(err, ErrPerms) {
			t.Fatalf("err=%v", err)
		}
		if err := s.Map(p, 0, 0x400000, ro, Read); err != nil {
			t.Fatalf("read-only map failed: %v", err)
		}
	})
}

func TestWriteToReadOnlyMappingFaults(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		f := r.frame(PageSize, caps.AllRights)
		if err := s.Map(p, 0, 0x400000, f, Read); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Access(p, 0, 0x400000, true, 1); !errors.Is(err, ErrPerms) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestTLBHitAvoidsWalk(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		f := r.frame(PageSize, caps.AllRights)
		s.Map(p, 0, 0x400000, f, Read|Write)
		s.Translate(p, 0, 0x400000, false)
		start := p.Now()
		s.Translate(p, 0, 0x400123, false) // same page
		hitCost := p.Now() - start
		if hitCost != 0 {
			t.Fatalf("TLB hit cost %d, want 0 (no memory access)", hitCost)
		}
	})
}

func TestTLBEvictionAtCapacity(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.mgr.tlbs[0] = newTLB(4)
	r.run(func(p *sim.Proc) {
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		f := r.frame(8*PageSize, caps.AllRights)
		for i := 0; i < 8; i++ {
			// Map each page of the frame at consecutive VAs.
			s.Map(p, 0, VAddr(0x400000+i*PageSize), f, Read)
			s.Translate(p, 0, VAddr(0x400000+i*PageSize), false)
		}
		if got := r.mgr.TLB(0).Len(); got != 4 {
			t.Fatalf("TLB holds %d entries, want capacity 4", got)
		}
	})
}

func TestUnmapClearsPTEAndShootsDown(t *testing.T) {
	r := newRig(topo.AMD4x4())
	r.run(func(p *sim.Proc) {
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		f := r.frame(PageSize, caps.AllRights)
		s.Map(p, 0, 0x400000, f, Read|Write)
		// Populate TLBs on several cores.
		for _, c := range []topo.CoreID{0, 5, 10, 15} {
			if _, err := s.Translate(p, c, 0x400000, false); err != nil {
				t.Fatal(err)
			}
		}
		shot := false
		shoot := func(p *sim.Proc, va VAddr, bytes uint64, space uint8) bool {
			shot = true
			// Simulate what the monitors do on every core.
			for c := 0; c < r.m.NumCores(); c++ {
				r.mgr.InvalidateRange(topo.CoreID(c), space, va, bytes)
			}
			return true
		}
		if err := s.Unmap(p, 0, 0x400000, PageSize, shoot); err != nil {
			t.Fatal(err)
		}
		if !shot {
			t.Fatal("shootdown not invoked")
		}
		r.mgr.CheckNoStaleTLB(s.ID, 0x400000, PageSize)
		if _, err := s.Translate(p, 3, 0x400000, false); !errors.Is(err, ErrNotMapped) {
			t.Fatalf("translate after unmap: %v", err)
		}
	})
}

func TestUnmapUnmappedErrors(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		if err := s.Unmap(p, 0, 0x400000, PageSize, nil); !errors.Is(err, ErrNotMapped) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestSetProtDowngrade(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		f := r.frame(PageSize, caps.AllRights)
		s.Map(p, 0, 0x400000, f, Read|Write)
		if !s.SetProt(p, 0, 0x400000, Read) {
			t.Fatal("SetProt found no mapping")
		}
		// TLB still holds the writable entry until shot down; fresh cores see
		// the new permissions.
		if _, err := s.Access(p, 2, 0x400000, true, 1); !errors.Is(err, ErrPerms) {
			t.Fatalf("write after downgrade: %v", err)
		}
	})
}

func TestPageTablesAreRealCapabilities(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		before := r.cs.Len()
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		f := r.frame(PageSize, caps.AllRights)
		s.Map(p, 0, 0x400000, f, Read|Write)
		// Root + 3 intermediate levels = 4 PageTable caps (plus the RAM
		// sub-caps they were carved from).
		pts := 0
		for _, c := range r.cs.All() {
			if c.Type == caps.PageTable {
				pts++
			}
		}
		if pts != 4 {
			t.Fatalf("%d PageTable caps, want 4", pts)
		}
		if r.cs.Len() <= before {
			t.Fatal("no capabilities created")
		}
		if err := caps.ConflictCheck(r.cs); err != nil {
			t.Fatalf("capability conflict: %v", err)
		}
	})
}

func TestSecondMappingReusesTables(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		f := r.frame(2*PageSize, caps.AllRights)
		s.Map(p, 0, 0x400000, f, Read)
		used := s.used
		s.Map(p, 0, 0x401000, f, Read) // same 2MB region: no new tables
		if s.used != used {
			t.Fatalf("second map allocated %d bytes of tables", s.used-used)
		}
	})
}

// Property: after any interleaving of map/translate/unmap (with full
// invalidation), no translate ever returns a mapping that was unmapped, and
// no stale TLB entries survive an unmap.
func TestNoAccessAfterUnmapProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		r := newRig(topo.AMD2x2())
		ok := true
		r.run(func(p *sim.Proc) {
			s, err := r.mgr.NewSpace(p, 0, r.cs, r.ram)
			if err != nil {
				ok = false
				return
			}
			frames := make(map[VAddr]caps.Ref)
			mapped := make(map[VAddr]bool)
			shoot := func(p *sim.Proc, va VAddr, bytes uint64, space uint8) bool {
				for c := 0; c < r.m.NumCores(); c++ {
					r.mgr.InvalidateRange(topo.CoreID(c), space, va, bytes)
				}
				return true
			}
			for _, op := range ops {
				va := VAddr(0x400000 + uint64(op%8)*PageSize)
				core := topo.CoreID(op % 4)
				switch (op >> 3) % 3 {
				case 0: // map
					if !mapped[va] {
						fr, exists := frames[va]
						if !exists {
							fr = r.frame(PageSize, caps.AllRights)
							frames[va] = fr
						}
						if err := s.Map(p, core, va, fr, Read|Write); err != nil {
							ok = false
							return
						}
						mapped[va] = true
					}
				case 1: // access
					_, err := s.Translate(p, core, va, false)
					if mapped[va] && err != nil {
						ok = false
						return
					}
					if !mapped[va] && err == nil {
						ok = false
						return
					}
				case 2: // unmap
					if mapped[va] {
						if err := s.Unmap(p, core, va, PageSize, shoot); err != nil {
							ok = false
							return
						}
						mapped[va] = false
						r.mgr.CheckNoStaleTLB(s.ID, va, PageSize)
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessUnalignedWithinPage(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		f := r.frame(PageSize, caps.AllRights)
		s.Map(p, 0, 0x400000, f, Read|Write)
		// Different offsets within one page keep their own values.
		s.Access(p, 0, 0x400008, true, 11)
		s.Access(p, 0, 0x400010, true, 22)
		v1, _ := s.Access(p, 0, 0x400008, false, 0)
		v2, _ := s.Access(p, 0, 0x400010, false, 0)
		if v1 != 11 || v2 != 22 {
			t.Errorf("offsets clobbered: %d %d", v1, v2)
		}
	})
}

func TestUnmapBadAlignment(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		if err := s.Unmap(p, 0, 0x400004, PageSize, nil); !errors.Is(err, ErrBadAlign) {
			t.Errorf("unaligned va: %v", err)
		}
		if err := s.Unmap(p, 0, 0x400000, 100, nil); !errors.Is(err, ErrBadAlign) {
			t.Errorf("unaligned bytes: %v", err)
		}
	})
}

func TestMapBadAlignment(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		f := r.frame(PageSize, caps.AllRights)
		if err := s.Map(p, 0, 0x400010, f, Read); !errors.Is(err, ErrBadAlign) {
			t.Errorf("err=%v", err)
		}
	})
}

func TestPageTableMemoryExhaustion(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		// A tiny RAM cap: the root table fits, the first intermediate
		// table does not.
		reg := r.sys.Memory().Alloc(PageSize, 0)
		tiny := r.cs.AddRoot(caps.Capability{Type: caps.RAM, Base: reg.Base, Bytes: reg.Bytes, Rights: caps.AllRights})
		s, err := r.mgr.NewSpace(p, 0, r.cs, tiny)
		if err != nil {
			t.Fatal(err)
		}
		f := r.frame(PageSize, caps.AllRights)
		if err := s.Map(p, 0, 0x400000, f, Read); !errors.Is(err, ErrOutOfPTMem) {
			t.Errorf("err=%v, want out of PT memory", err)
		}
	})
}

func TestTLBStatsInvalCounting(t *testing.T) {
	r := newRig(topo.AMD2x2())
	r.run(func(p *sim.Proc) {
		s, _ := r.mgr.NewSpace(p, 0, r.cs, r.ram)
		f := r.frame(2*PageSize, caps.AllRights)
		s.Map(p, 0, 0x400000, f, Read)
		s.Map(p, 0, 0x401000, f, Read)
		s.Translate(p, 0, 0x400000, false)
		s.Translate(p, 0, 0x401000, false)
		n := r.mgr.InvalidateRange(0, s.ID, 0x400000, 2*PageSize)
		if n != 2 {
			t.Errorf("invalidated %d entries, want 2", n)
		}
		// Idempotent.
		if n := r.mgr.InvalidateRange(0, s.ID, 0x400000, 2*PageSize); n != 0 {
			t.Errorf("second invalidate removed %d", n)
		}
	})
}
