package sim_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"multikernel/internal/core"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// corruptCountImage is a 72-byte checkpoint image: the magic, seven zero
// header words and a proc count of n, with no proc records after it.
func corruptCountImage(n uint64) []byte {
	img := append([]byte("MKCKPT2\n"), make([]byte, 7*8)...)
	return binary.LittleEndian.AppendUint64(img, n)
}

// TestRestoreErrorClosesEngine: a Restore that fails after build has run
// closes the engine it built, releasing the coroutines of the procs build
// spawned. Both images reach build: one carries a monitor flag bit that no
// image has, the other meets a builder that spawns one proc too many.
func TestRestoreErrorClosesEngine(t *testing.T) {
	m := topo.AMD2x2()
	e := sim.NewEngine(1)
	sys := core.Boot(e, m)
	e.Run()
	var img, mon bytes.Buffer
	if err := e.Checkpoint(&img); err != nil {
		t.Fatal(err)
	}
	if err := sys.Net.CheckpointState(&mon); err != nil {
		t.Fatal(err)
	}
	e.Close()
	// Core 0's flags word is the monitor blob's fourth word; bit 3 is no flag.
	off := bytes.Index(img.Bytes(), mon.Bytes())
	if off < 0 {
		t.Fatal("monitor blob not found in the boot image")
	}
	badFlag := bytes.Clone(img.Bytes())
	binary.LittleEndian.PutUint64(badFlag[off+24:], 1<<3)
	cases := []struct {
		name  string
		img   []byte
		build func(*sim.Engine)
	}{
		{"unknown monitor flag bit", badFlag, func(e *sim.Engine) { core.Boot(e, m) }},
		{"one proc too many", img.Bytes(), func(e *sim.Engine) {
			core.Boot(e, m)
			e.Spawn("extra", func(*sim.Proc) {})
		}},
	}
	for _, c := range cases {
		before := runtime.NumGoroutine()
		for range 3 {
			if _, err := sim.Restore(bytes.NewReader(c.img), c.build); err == nil {
				t.Fatalf("%s: restored without error", c.name)
			}
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines after three failed restores, %d before", c.name, after, before)
		}
	}
}

// TestRestoreRejectsTrailingBytes: an image is exactly the bytes up to its
// trailer, so the AMD2x2 boot image with 16 bytes appended is an error that
// names the extra length.
func TestRestoreRejectsTrailingBytes(t *testing.T) {
	m := topo.AMD2x2()
	e := sim.NewEngine(1)
	core.Boot(e, m)
	e.Run()
	var img bytes.Buffer
	if err := e.Checkpoint(&img); err != nil {
		t.Fatal(err)
	}
	e.Close()
	b := append(img.Bytes(), "sixteen bytes!!\n"...)
	_, err := sim.Restore(bytes.NewReader(b), func(e *sim.Engine) { core.Boot(e, m) })
	if err == nil || !strings.Contains(err.Error(), "16 bytes after") {
		t.Fatalf("Restore of an image with 16 trailing bytes returned %v", err)
	}
}

// FuzzRestore feeds arbitrary bytes to sim.Restore with the builder mksim
// -restore uses, core.Boot on the AMD2x2: a malformed image must come back
// as an error, never as a panic or as an allocation sized by a corrupt
// count, and an accepted one must re-checkpoint to its whole input, so
// every component decoder of a boot image is reached and no byte of an
// accepted image goes unread. The seeds
// are an AMD2x2 boot image and the two proc counts that once crashed
// Restore (2^33 ran out of memory, 2^62 panicked).
func FuzzRestore(f *testing.F) {
	m := topo.AMD2x2()
	e := sim.NewEngine(1)
	core.Boot(e, m)
	e.Run()
	var img bytes.Buffer
	if err := e.Checkpoint(&img); err != nil {
		f.Fatal(err)
	}
	e.Close()
	f.Add(img.Bytes())
	f.Add(corruptCountImage(1 << 33))
	f.Add(corruptCountImage(1 << 62))
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := sim.Restore(bytes.NewReader(b), func(e *sim.Engine) { core.Boot(e, m) })
		if err != nil {
			return
		}
		defer e.Close()
		var again bytes.Buffer
		if err := e.Checkpoint(&again); err != nil {
			t.Fatalf("checkpoint after restore: %v", err)
		}
		if !bytes.Equal(again.Bytes(), b) {
			t.Fatalf("restored a %d-byte image; it re-checkpoints to %d other bytes", len(b), again.Len())
		}
	})
}
