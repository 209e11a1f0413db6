package metrics_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"multikernel/internal/core"
	"multikernel/internal/metrics"
	"multikernel/internal/sim"
	"multikernel/internal/stats"
	"multikernel/internal/topo"
)

// words encodes little-endian u64 words.
func words(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// name encodes a length-prefixed name.
func name(s string) []byte { return append(words(uint64(len(s))), s...) }

// image concatenates encoded pieces.
func image(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// hist encodes one histogram record with a bucket slice of the given length.
func hist(n string, buckets int) []byte {
	return image(name(n), words(1, 5, 5), words(uint64(buckets)), make([]byte, 8*buckets))
}

// corruptImages are registry images that restored without error although
// they re-checkpoint to other bytes.
var corruptImages = []struct {
	name string
	img  []byte
}{
	// The last value won and the image re-checkpointed one record shorter.
	{"counter repeated", image(words(2), name("a"), words(1), name("a"), words(2), words(0, 0))},
	{"counters out of order", image(words(2), name("b"), words(1), name("a"), words(2), words(0, 0))},
	{"histogram repeated", image(words(0, 2), hist("h", stats.NumBuckets), hist("h", stats.NumBuckets), words(0))},
	{"gauges out of order", image(words(0, 0, 2), name("g2"), words(1), name("g1"), words(2))},
	// SetRaw zero-padded a short slice and dropped the tail of a long one.
	{"3-bucket histogram", image(words(0, 1), hist("h", 3), words(0))},
	{"60-bucket histogram", image(words(0, 1), hist("h", 60), words(0))},
}

// TestRestoreStateRejectsCorruptImages: every section must list its names in
// strictly ascending order, and every histogram must carry exactly
// NumBuckets buckets.
func TestRestoreStateRejectsCorruptImages(t *testing.T) {
	for _, c := range corruptImages {
		if err := metrics.NewRegistry().RestoreState(bytes.NewReader(c.img)); err == nil {
			t.Errorf("%s: restored without error", c.name)
		}
	}
}

// FuzzMetricsRestore feeds arbitrary bytes to RestoreState: it must return
// an error or restore a registry, never panic. A registry it restores must
// re-checkpoint to exactly the bytes it read. The seeds are the registry
// blob of an AMD2x2 boot and corruptImages.
func FuzzMetricsRestore(f *testing.F) {
	e := sim.NewEngine(1)
	core.Boot(e, topo.AMD2x2())
	e.Run()
	var img bytes.Buffer
	if err := e.Metrics().CheckpointState(&img); err != nil {
		f.Fatal(err)
	}
	e.Close()
	f.Add(img.Bytes())
	for _, c := range corruptImages {
		f.Add(c.img)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		reg := metrics.NewRegistry()
		if reg.RestoreState(r) != nil {
			return
		}
		var again bytes.Buffer
		if err := reg.CheckpointState(&again); err != nil {
			t.Fatalf("checkpoint after restore: %v", err)
		}
		if read := b[:len(b)-r.Len()]; !bytes.Equal(again.Bytes(), read) {
			t.Fatalf("restored %d image bytes; they re-checkpoint to %d other bytes", len(read), again.Len())
		}
	})
}
