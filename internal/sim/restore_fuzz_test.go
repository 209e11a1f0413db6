package sim_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"multikernel/internal/core"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// corruptCountImage is a 72-byte checkpoint image: the magic, seven zero
// header words and a proc count of n, with no proc records after it.
func corruptCountImage(n uint64) []byte {
	img := append([]byte("MKCKPT1\n"), make([]byte, 7*8)...)
	return binary.LittleEndian.AppendUint64(img, n)
}

// FuzzRestore feeds arbitrary bytes to sim.Restore: a malformed image must
// come back as an error, never as a panic or as an allocation sized by a
// corrupt count. The seeds are an AMD2x2 boot image and the two proc counts
// that once crashed Restore (2^33 ran out of memory, 2^62 panicked). The
// builder constructs nothing, so every input ends at Restore's own checks;
// the component decoders behind a real builder are not reached.
func FuzzRestore(f *testing.F) {
	e := sim.NewEngine(1)
	core.Boot(e, topo.AMD2x2())
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
		if e, err := sim.Restore(bytes.NewReader(b), func(*sim.Engine) {}); err == nil {
			e.Close()
		}
	})
}
