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

// pages encodes the page records of an image: each key followed by a page
// of zeros.
func pages(keys ...uint64) []byte {
	var b []byte
	for _, k := range keys {
		b = append(b, words(k)...)
		b = append(b, make([]byte, 1<<12)...)
	}
	return b
}

// corruptImages are memory images that once crashed RestoreState, were
// accepted only to fail later as an out-of-range index, or restored a state
// that re-checkpoints to other bytes.
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
	// Page 1 twice restored one page from two records.
	{"page repeated", append(words(2<<12, 0, 2), pages(1, 1)...)},
	{"pages out of order", append(words(3<<12, 0, 2), pages(2, 1)...)},
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
// error or restore a state, never panic or allocate by a corrupt count. A
// state it restores must re-checkpoint to exactly the bytes it read. The
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
		r := bytes.NewReader(b)
		mem := memory.New(topo.AMD2x2())
		if mem.RestoreState(r) != nil {
			return
		}
		var again bytes.Buffer
		if err := mem.CheckpointState(&again); err != nil {
			t.Fatalf("checkpoint after restore: %v", err)
		}
		if read := b[:len(b)-r.Len()]; !bytes.Equal(again.Bytes(), read) {
			t.Fatalf("restored %d image bytes; they re-checkpoint to %d other bytes", len(read), again.Len())
		}
	})
}

// TestRestoreStateEmptiesLookaside: pages read or written before a restore
// sit in the page lookaside, present or absent. After RestoreState, LoadWord
// must see the image. Page 0 is among them: the allocator starts at byte 64,
// so page 0 holds data, and an empty slot must not read as "page 0 absent".
func TestRestoreStateEmptiesLookaside(t *testing.T) {
	const p1, p2 = 1 << 12, 2 << 12
	m := topo.AMD2x2()
	// The image: pages 0 and 2 hold data, page 1 is absent.
	src := memory.New(m)
	src.Alloc(3<<12, 0)
	src.StoreWord(memory.LineSize, 1)
	src.StoreWord(p2, 3)
	var img bytes.Buffer
	if err := src.CheckpointState(&img); err != nil {
		t.Fatal(err)
	}

	mem := memory.New(m)
	mem.Alloc(3<<12, 0)
	mem.LoadWord(memory.LineSize) // page 0 absent
	mem.StoreWord(p1, 5)
	mem.StoreWord(p2, 7)
	if err := mem.RestoreState(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		a    memory.Addr
		want uint64
	}{{memory.LineSize, 1}, {p1, 0}, {p2, 3}} {
		if got := mem.LoadWord(c.a); got != c.want {
			t.Errorf("LoadWord(%#x) = %d after restore, want the image's %d", c.a, got, c.want)
		}
	}
	// A fresh memory's empty slots must not hide the image's page 0 either.
	fresh := memory.New(m)
	if err := fresh.RestoreState(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := fresh.LoadWord(memory.LineSize); got != 1 {
		t.Errorf("fresh memory: LoadWord(%#x) = %d after restore, want 1", memory.LineSize, got)
	}
}
