package memory_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"multikernel/internal/core"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// words encodes an image as little-endian u64 words.
func words(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// corruptImages are memory images that once crashed RestoreState or were
// accepted only to fail later as an out-of-range index.
var corruptImages = []struct {
	name string
	img  []byte
}{
	// The home-run table was sized from the count: makeslice panicked.
	{"2^62 home runs", words(0, 1<<62)},
	// The page map took its size hint from the count: about 1 GB.
	{"2^26 pages", words(0, 0, 1<<26)},
	// Home() would have returned socket 7 on a 2-socket machine.
	{"home socket beyond the machine", words(1<<12, 1, 1, 7, 0)},
	{"home runs out of order", words(1<<12, 2, 8, 1, 4, 0, 0)},
}

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRestoreStateRejectsCorruptImages: RestoreState grows its tables as
// records arrive and checks each home socket against the machine, so every
// corrupt image ends in an error after a small allocation.
func TestRestoreStateRejectsCorruptImages(t *testing.T) {
	for _, c := range corruptImages {
		var err error
		n := allocated(func() { err = memory.New(topo.AMD2x2()).RestoreState(bytes.NewReader(c.img)) })
		if err == nil {
			t.Errorf("%s: restored without error", c.name)
		}
		if n > 1<<20 {
			t.Errorf("%s: restore allocated %d bytes from a %d-byte image", c.name, n, len(c.img))
		}
	}
}

// FuzzMemoryRestore feeds arbitrary bytes to RestoreState: it must return an
// error or restore a state, never panic or allocate by a corrupt count. The
// seeds are the memory blob of an AMD2x2 boot checkpoint and corruptImages.
func FuzzMemoryRestore(f *testing.F) {
	e := sim.NewEngine(1)
	sys := core.Boot(e, topo.AMD2x2())
	e.Run()
	var img bytes.Buffer
	if err := sys.Mem.CheckpointState(&img); err != nil {
		f.Fatal(err)
	}
	e.Close()
	f.Add(img.Bytes())
	for _, c := range corruptImages {
		f.Add(c.img)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		memory.New(topo.AMD2x2()).RestoreState(bytes.NewReader(b))
	})
}
