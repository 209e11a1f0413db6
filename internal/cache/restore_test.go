package cache_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"multikernel/internal/cache"
	"multikernel/internal/core"
	"multikernel/internal/interconnect"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// bootImage is the cache blob of an AMD2x2 boot checkpoint. Its first line
// record starts at byte 8: the line id, the holder set, the owner, the flags.
// No core is stalled, so it ends with an empty stall table and the mode.
func bootImage(tb testing.TB) []byte {
	e := sim.NewEngine(1)
	defer e.Close()
	sys := core.Boot(e, topo.AMD2x2())
	e.Run()
	var img bytes.Buffer
	if err := sys.Cache.CheckpointState(&img); err != nil {
		tb.Fatal(err)
	}
	return img.Bytes()
}

// corruptImages derives, from a valid image, cache images that once
// over-allocated in RestoreState, were accepted only to fail later as an
// out-of-range index, or restored a state that re-checkpoints to other bytes.
func corruptImages(valid []byte) []struct {
	name string
	img  []byte
} {
	const holders = 16
	owner := holders + 8*len(cache.CoreSet{})
	flags := owner + 8
	patch := func(off int, v uint64) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(b[off:], v)
		return b
	}
	short := bytes.Clone(valid[:len(valid)-16])
	for _, v := range []uint64{1, 7, 0} { // a 1-entry stall table, then the mode
		short = binary.LittleEndian.AppendUint64(short, v)
	}
	// The first line record twice, with the line count raised to match.
	first := valid[8 : flags+8]
	dup := binary.LittleEndian.AppendUint64(nil, binary.LittleEndian.Uint64(valid)+1)
	dup = append(append(dup, first...), valid[8:]...)
	return []struct {
		name string
		img  []byte
	}{
		// The line map took its size hint from the count: about 1 GB.
		{"2^26 lines", binary.LittleEndian.AppendUint64(nil, 1<<26)},
		// Each would have indexed past the machine's 4 cores at run time.
		{"holder beyond the machine", patch(holders, 1<<4)},
		{"owner beyond the machine", patch(owner, 4)},
		{"stall table shorter than the cores", short},
		// Each restored one line less, or one flag less, than it lists.
		{"line record repeated", dup},
		{"unknown line flag bits", patch(flags, 1<<2)},
	}
}

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func newAMD2x2(e *sim.Engine) *cache.System {
	m := topo.AMD2x2()
	return cache.New(e, m, memory.New(m), interconnect.New(m))
}

// TestRestoreStateRejectsCorruptImages: RestoreState grows its line map as
// records arrive and checks every core index against the machine, so each
// corrupt image ends in an error, and a corrupt count costs no more than the
// records the image holds.
func TestRestoreStateRejectsCorruptImages(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	valid := bootImage(t)
	if err := newAMD2x2(e).RestoreState(bytes.NewReader(valid)); err != nil {
		t.Fatalf("boot image: %v", err)
	}
	for _, c := range corruptImages(valid) {
		var err error
		n := allocated(func() { err = newAMD2x2(e).RestoreState(bytes.NewReader(c.img)) })
		if err == nil {
			t.Errorf("%s: restored without error", c.name)
		}
		if n > 4<<20 {
			t.Errorf("%s: restore allocated %d bytes from a %d-byte image", c.name, n, len(c.img))
		}
	}
}

// FuzzCacheRestore feeds arbitrary bytes to RestoreState: it must return an
// error or restore a state, never panic or allocate by a corrupt count. A
// state it restores must re-checkpoint to exactly the bytes it read. The
// seeds are the cache blob of an AMD2x2 boot checkpoint and the images of
// TestRestoreStateRejectsCorruptImages.
func FuzzCacheRestore(f *testing.F) {
	valid := bootImage(f)
	f.Add(valid)
	for _, c := range corruptImages(valid) {
		f.Add(c.img)
	}
	e := sim.NewEngine(1)
	defer e.Close()
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		sys := newAMD2x2(e)
		if sys.RestoreState(r) != nil {
			return
		}
		var again bytes.Buffer
		if err := sys.CheckpointState(&again); err != nil {
			t.Fatalf("checkpoint after restore: %v", err)
		}
		if read := b[:len(b)-r.Len()]; !bytes.Equal(again.Bytes(), read) {
			t.Fatalf("restored %d image bytes; they re-checkpoint to %d other bytes", len(read), again.Len())
		}
	})
}

// TestRestoreStateEmptiesLookaside: lines a core touched before a restore
// sit in the line lookaside. After RestoreState the accesses must see the
// image's directory: a line the image gives to another core, and a line the
// image lacks, are misses for the core that held them.
func TestRestoreStateEmptiesLookaside(t *testing.T) {
	run := func(sys *cache.System, fn func(p *sim.Proc)) {
		sys.Engine().Spawn("t", fn)
		sys.Engine().Run()
	}
	build := func() (*cache.System, memory.Addr, memory.Addr) {
		e := sim.NewEngine(1)
		t.Cleanup(e.Close)
		sys := newAMD2x2(e)
		reg := sys.Memory().AllocLines(2, 0)
		return sys, reg.LineAt(0), reg.LineAt(1)
	}
	// The image: core 1 holds line a, and line b was never touched.
	src, a, b := build()
	run(src, func(p *sim.Proc) { src.Load(p, 1, a) })
	var img bytes.Buffer
	if err := src.CheckpointState(&img); err != nil {
		t.Fatal(err)
	}

	sys, _, _ := build()
	run(sys, func(p *sim.Proc) {
		sys.Load(p, 0, a)
		sys.Load(p, 0, b)
	})
	if err := sys.RestoreState(&img); err != nil {
		t.Fatal(err)
	}
	if _, hit := sys.ProbeHit(0, a); hit {
		t.Error("ProbeHit: core 0 still holds line a; the image gives it to core 1 alone")
	}
	if _, hit := sys.ProbeHit(1, a); !hit {
		t.Error("ProbeHit: core 1 misses line a; the image says it holds it")
	}
	misses := sys.Stats(0).Misses
	run(sys, func(p *sim.Proc) { sys.Load(p, 0, b) })
	if got := sys.Stats(0).Misses - misses; got != 1 {
		t.Errorf("Load of line b, absent from the image: %d misses, want 1", got)
	}
}
