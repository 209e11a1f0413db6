package expt

import "testing"

// TestEngineBenchIdentical is the CI-enforced half of the engine benchmark:
// wall-clock speedup depends on idle host cores, but byte identity of the
// final engine image across worker counts must hold anywhere.
func TestEngineBenchIdentical(t *testing.T) {
	res := engineBench(300, []int{2, 4, 8})
	rows := res.Tables[0].Rows // workers, events, wall s, events/s, speedup, identical
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows[1:] {
		if r[5] != "true" {
			t.Errorf("workers=%s: final engine image differs from serial reference", r[0])
		}
		if r[1] != rows[0][1] {
			t.Errorf("workers=%s: dispatched %s events, serial dispatched %s", r[0], r[1], rows[0][1])
		}
	}
	if res.Headline["sim.events"] == 0 {
		t.Fatal("benchmark dispatched no events")
	}
}

func TestWarmStartIdentical(t *testing.T) {
	h := warmStart(3, nil).Headline
	if h["sim.warm_identical"] != 1 {
		t.Error("warm-started points disagree with cold-booted points")
	}
	if h["sim.boot_image_bytes"] == 0 {
		t.Error("boot image is empty")
	}
}

// TestWarmStartFromSavedImage covers the mkbench -restore path: a boot image
// produced by an earlier process (here just an earlier BootImage call) warm
// starts the sweep with identical results.
func TestWarmStartFromSavedImage(t *testing.T) {
	img := BootImage(WarmStartMachine())
	h := warmStart(2, img).Headline
	if h["sim.warm_identical"] != 1 {
		t.Error("sweep warm-started from a saved image disagrees with cold boot")
	}
	if got := h["sim.boot_image_bytes"]; got != float64(len(img)) {
		t.Errorf("reported image size %.0f, supplied %d", got, len(img))
	}
}
