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
// over-allocated in RestoreState or were accepted only to fail later as an
// out-of-range index.
func corruptImages(valid []byte) []struct {
	name string
	img  []byte
} {
	const holders = 16
	owner := holders + 8*len(cache.CoreSet{})
	patch := func(off int, v uint64) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(b[off:], v)
		return b
	}
	short := bytes.Clone(valid[:len(valid)-16])
	for _, v := range []uint64{1, 7, 0} { // a 1-entry stall table, then the mode
		short = binary.LittleEndian.AppendUint64(short, v)
	}
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
// error or restore a state, never panic or allocate by a corrupt count. The
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
		newAMD2x2(e).RestoreState(bytes.NewReader(b))
	})
}
