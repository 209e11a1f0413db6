package memory

import (
	"bytes"
	"testing"
	"testing/quick"

	"multikernel/internal/topo"
)

func TestAllocAlignmentAndHomes(t *testing.T) {
	mem := New(topo.AMD4x4())
	r1 := mem.Alloc(100, 2) // rounds to 2 lines
	if r1.Bytes != 128 {
		t.Fatalf("bytes=%d, want 128", r1.Bytes)
	}
	if r1.Base%LineSize != 0 {
		t.Fatalf("base %#x not line aligned", uint64(r1.Base))
	}
	if mem.Home(r1.Base) != 2 || mem.Home(r1.Base+64) != 2 {
		t.Fatal("home socket not recorded for all lines")
	}
	r2 := mem.Alloc(64, 1)
	if r2.Base < r1.End() {
		t.Fatal("regions overlap")
	}
	if mem.Home(r2.Base) != 1 {
		t.Fatal("second region home wrong")
	}
}

func TestAllocZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(topo.AMD2x2()).Alloc(0, 0)
}

func TestAllocBadHomePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(topo.AMD2x2()).Alloc(64, 5)
}

func TestWordRoundTrip(t *testing.T) {
	mem := New(topo.AMD2x2())
	r := mem.AllocLines(1, 0)
	mem.StoreWord(r.Base+8, 0xdeadbeef)
	if got := mem.LoadWord(r.Base + 8); got != 0xdeadbeef {
		t.Fatalf("got %#x", got)
	}
	if got := mem.LoadWord(r.Base); got != 0 {
		t.Fatalf("unwritten word = %#x, want 0", got)
	}
}

func TestMisalignedAccessPanics(t *testing.T) {
	mem := New(topo.AMD2x2())
	r := mem.AllocLines(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mem.LoadWord(r.Base + 3)
}

func TestLineRoundTrip(t *testing.T) {
	mem := New(topo.AMD2x2())
	r := mem.AllocLines(1, 0)
	var vals [WordsPerLine]uint64
	for i := range vals {
		vals[i] = uint64(i * 7)
	}
	mem.StoreLine(r.Base, vals)
	if got := mem.LoadLine(r.Base); got != vals {
		t.Fatalf("got %v, want %v", got, vals)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	mem := New(topo.AMD2x2())
	r := mem.AllocLines(4, 1)
	msg := []byte("the multikernel treats the machine as a network")
	mem.StoreBytes(r.Base+5, msg) // deliberately unaligned
	if got := loadBytes(mem, r.Base+5, len(msg)); !bytes.Equal(got, msg) {
		t.Fatalf("got %q, want %q", got, msg)
	}
}

func TestBytesWordInterop(t *testing.T) {
	mem := New(topo.AMD2x2())
	r := mem.AllocLines(1, 0)
	mem.StoreWord(r.Base, 0x0807060504030201)
	got := loadBytes(mem, r.Base, 8)
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v, want %v (little-endian view)", got, want)
	}
}

// loadBytes reads n bytes at a through LoadInto into a buffer that holds
// stale bytes, as a reused receive buffer does: every byte must be
// overwritten, zero where no page exists.
func loadBytes(mem *Memory, a Addr, n int) []byte {
	out := bytes.Repeat([]byte{0xa5}, n)
	mem.LoadInto(a, out)
	return out
}

// refStoreBytes and refLoadBytes copy one byte at a time, with a page
// lookup per byte: the reference StoreBytes and LoadInto must match.
func refStoreBytes(mem *Memory, a Addr, b []byte) {
	for i, c := range b {
		addr := a + Addr(i)
		pg := mem.pageFor(addr, true)
		w := &pg[(addr%(1<<pageShift))/8]
		shift := 8 * (addr & 7)
		*w = (*w &^ (uint64(0xff) << shift)) | uint64(c)<<shift
	}
}

func refLoadBytes(mem *Memory, a Addr, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		addr := a + Addr(i)
		if pg := mem.pageFor(addr, false); pg != nil {
			out[i] = byte(pg[(addr%(1<<pageShift))/8] >> (8 * (addr & 7)))
		}
	}
	return out
}

// samePages reports whether two memories hold the same pages with the same
// words.
func samePages(a, b *Memory) bool {
	if len(a.pages) != len(b.pages) {
		return false
	}
	for k, pg := range a.pages {
		if q, ok := b.pages[k]; !ok || *q != *pg {
			return false
		}
	}
	return true
}

// TestBytesRoundTripProperty: byte stores at unaligned starts with lengths
// that straddle words and pages, mixed with word stores, leave the pages
// and words the byte-at-a-time reference leaves, and loads of unaligned
// ranges read what it reads.
func TestBytesRoundTripProperty(t *testing.T) {
	mem, ref := New(topo.AMD4x4()), New(topo.AMD4x4())
	r := mem.AllocLines(256, 0) // four pages
	ref.AllocLines(256, 0)
	f := func(off uint16, data []byte, word uint64, loadOff, loadLen uint16) bool {
		// Starts up to 39 bytes before one of three page boundaries, and
		// every fifth run longer than a page.
		a := (r.Base>>pageShift+1+Addr(off%3))<<pageShift - Addr(off/3%40)
		if loadLen%5 == 0 {
			data = bytes.Repeat(data, 100)
		}
		mem.StoreBytes(a, data)
		refStoreBytes(ref, a, data)
		if !bytes.Equal(loadBytes(mem, a, len(data)), data) {
			return false
		}
		wa := r.Base + Addr(off%2048)*8
		mem.StoreWord(wa, word)
		ref.StoreWord(wa, word)
		la, n := r.Base+Addr(loadOff%8192), int(loadLen%8192)
		return bytes.Equal(loadBytes(mem, la, n), refLoadBytes(ref, la, n)) && samePages(mem, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLineIDMath(t *testing.T) {
	a := Addr(3 * LineSize)
	if a.Line() != 3 {
		t.Fatalf("line=%d", a.Line())
	}
	if a.Line().Base() != a {
		t.Fatal("base round trip failed")
	}
	if (a+63).Line() != 3 || (a+64).Line() != 4 {
		t.Fatal("line boundary math wrong")
	}
}

func TestHomeRunIndex(t *testing.T) {
	mem := New(topo.AMD4x4())
	// Consecutive same-home allocations merge into one run; home changes
	// start new runs.
	r0 := mem.Alloc(4096, 0)
	r1 := mem.Alloc(4096, 0)
	r2 := mem.Alloc(4096, 3)
	r3 := mem.Alloc(64, 1)
	for _, tc := range []struct {
		a    Addr
		want topo.SocketID
	}{
		{r0.Base, 0}, {r0.End() - 1, 0},
		{r1.Base, 0}, {r1.End() - 1, 0},
		{r2.Base, 3}, {r2.Base + 2048, 3}, {r2.End() - 1, 3},
		{r3.Base, 1},
	} {
		if got := mem.Home(tc.a); got != tc.want {
			t.Errorf("Home(%#x) = %d, want %d", uint64(tc.a), got, tc.want)
		}
	}
	// Line 0 is never allocated; addresses past the bump pointer are
	// unallocated. Both are homed on socket 0 by convention.
	if mem.Home(0) != 0 {
		t.Error("null line not homed on 0")
	}
	if mem.Home(1<<30) != 0 {
		t.Error("unallocated high address not homed on 0")
	}
}

func TestStoreToUnallocatedAddress(t *testing.T) {
	// Models (e.g. benchmark scratch regions) store to addresses never
	// handed out by Alloc; the paged store must handle them.
	mem := New(topo.AMD2x2())
	a := Addr(1 << 30)
	mem.StoreWord(a, 99)
	if mem.LoadWord(a) != 99 {
		t.Fatal("high-address store lost")
	}
	// Storing zero into an untouched page must not materialize the page.
	pages := len(mem.pages)
	mem.StoreWord(1<<40, 0)
	if len(mem.pages) != pages {
		t.Fatal("zero store materialized a page")
	}
	if mem.LoadWord(1<<40) != 0 {
		t.Fatal("untouched word not zero")
	}
}

// TestBytesAcrossPageBoundary stores and loads runs at every start from 9
// bytes before a page boundary to 9 after it, with every length up to 20
// and one run across three pages, against the byte-at-a-time reference.
func TestBytesAcrossPageBoundary(t *testing.T) {
	mem, ref := New(topo.AMD2x2()), New(topo.AMD2x2())
	a := Addr(1<<pageShift) - 7 // straddles the first page boundary
	msg := []byte("boundary-crossing payload")
	mem.StoreBytes(a, msg)
	if got := loadBytes(mem, a, len(msg)); !bytes.Equal(got, msg) {
		t.Fatalf("got %q, want %q", got, msg)
	}
	refStoreBytes(ref, a, msg)
	long := bytes.Repeat([]byte("0123456789abcdef"), 600) // 9,600 bytes
	for start := Addr(3<<pageShift) - 9; start <= Addr(3<<pageShift)+9; start++ {
		for n := 0; n <= 20; n++ {
			b := long[int(start)%16 : int(start)%16+n]
			mem.StoreBytes(start, b)
			refStoreBytes(ref, start, b)
			if got, want := loadBytes(mem, start-3, n+6), refLoadBytes(ref, start-3, n+6); !bytes.Equal(got, want) {
				t.Fatalf("%d bytes at %#x: read back %q, want %q", n, uint64(start), got, want)
			}
		}
	}
	mem.StoreBytes(Addr(6<<pageShift)-5, long)
	refStoreBytes(ref, Addr(6<<pageShift)-5, long)
	if got := loadBytes(mem, Addr(6<<pageShift)-13, len(long)+20); !bytes.Equal(got, refLoadBytes(ref, Addr(6<<pageShift)-13, len(long)+20)) {
		t.Fatal("a run across three pages reads back differently")
	}
	if !samePages(mem, ref) {
		t.Fatal("the stores left different pages or words than the byte-at-a-time reference")
	}
}

func TestRegionHelpers(t *testing.T) {
	mem := New(topo.AMD2x2())
	r := mem.AllocLines(3, 1)
	if r.Lines() != 3 {
		t.Fatalf("lines=%d", r.Lines())
	}
	if r.LineAt(2) != r.Base+128 {
		t.Fatal("LineAt wrong")
	}
	if r.End() != r.Base+192 {
		t.Fatal("End wrong")
	}
	if mem.Size() != 192 {
		t.Fatalf("size=%d", mem.Size())
	}
}
