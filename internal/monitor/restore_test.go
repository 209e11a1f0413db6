package monitor_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"multikernel/internal/core"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// bootImage is the monitor blob of an AMD2x2 boot checkpoint. The core count
// and the one-word failed set come first, so the failed set's word is at
// byte 16 and core 0's flags word at byte 24. Eleven words of flags,
// sequence number and counters and the one-word view follow, so core 0's
// view word is at byte 120. The 12 mesh channels' records end the blob, 40
// bytes each: four cursors and the flags word.
func bootImage(tb testing.TB) []byte {
	e := sim.NewEngine(1)
	defer e.Close()
	sys := core.Boot(e, topo.AMD2x2())
	e.Run()
	var img bytes.Buffer
	if err := sys.Net.CheckpointState(&img); err != nil {
		tb.Fatal(err)
	}
	return img.Bytes()
}

// corruptImages derives, from a valid image, monitor images that restored
// without error although no run can reach them.
func corruptImages(valid []byte) []struct {
	name string
	img  []byte
} {
	const failed, monFlags, monView = 16, 24, 120
	ch := len(valid) - 12*40 // the first mesh channel, 0->1
	patch := func(off int, vs ...uint64) []byte {
		b := bytes.Clone(valid)
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[off+8*i:], v)
		}
		return b
	}
	return []struct {
		name string
		img  []byte
	}{
		{"unknown monitor flag bit", patch(monFlags, 1<<3)},
		{"the fail-stop flag bit images no longer carry", patch(monFlags, 1<<2)},
		// Each dropped a bit the image re-checkpointed without.
		{"failed core past the core count", patch(failed, 1<<10)},
		{"view member past the core count", patch(monView, binary.LittleEndian.Uint64(valid[monView:])|1<<10)},
		// A message then sent under a Deadline was never received.
		{"channel received more than was sent", patch(ch, 0, 10, 0, 10)},
		{"channel ack view beyond what was published", patch(ch, 6, 5, 5, 4)},
		{"channel published beyond what was received", patch(ch, 6, 4, 4, 5)},
		{"more than a ring in flight", patch(ch, 1<<20, 0, 0, 0)},
		{"unknown channel flag bit", patch(ch+32, 2)},
	}
}

// restore restores img into a freshly booted AMD2x2 network.
func restore(img []byte) error {
	e := sim.NewEngine(1)
	defer e.Close()
	return core.Boot(e, topo.AMD2x2()).Net.RestoreState(bytes.NewReader(img))
}

// TestRestoreStateRejectsCorruptImages: the network checks every monitor's
// flags and every channel's cursors, so each corrupt image is an error.
func TestRestoreStateRejectsCorruptImages(t *testing.T) {
	valid := bootImage(t)
	if err := restore(valid); err != nil {
		t.Fatalf("boot image: %v", err)
	}
	for _, c := range corruptImages(valid) {
		if err := restore(c.img); err == nil {
			t.Errorf("%s: restored without error", c.name)
		}
	}
}

// FuzzMonitorRestore feeds arbitrary bytes to Network.RestoreState: it must
// return an error or restore a state, never panic. A state it restores must
// re-checkpoint to exactly the bytes it read. The seeds are the monitor blob
// of an AMD2x2 boot checkpoint and the images of
// TestRestoreStateRejectsCorruptImages.
func FuzzMonitorRestore(f *testing.F) {
	valid := bootImage(f)
	f.Add(valid)
	for _, c := range corruptImages(valid) {
		f.Add(c.img)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		e := sim.NewEngine(1)
		defer e.Close()
		net := core.Boot(e, topo.AMD2x2()).Net
		r := bytes.NewReader(b)
		if net.RestoreState(r) != nil {
			return
		}
		var again bytes.Buffer
		if err := net.CheckpointState(&again); err != nil {
			t.Fatalf("checkpoint after restore: %v", err)
		}
		if read := b[:len(b)-r.Len()]; !bytes.Equal(again.Bytes(), read) {
			t.Fatalf("restored %d image bytes; they re-checkpoint to %d other bytes", len(read), again.Len())
		}
	})
}
