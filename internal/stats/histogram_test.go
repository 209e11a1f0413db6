package stats

import "testing"

// N, Max and Merge read and fold a histogram's raw state. Only tests use
// them: Merge is the reference that HistogramSummary.Merge must match.

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.n }

// Max returns the largest observation.
func (h *Histogram) Max() uint64 { return h.max }

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000, 1 << 40} {
		h.Observe(v)
	}
	if h.N() != 7 || h.Max() != 1<<40 {
		t.Fatalf("n=%d max=%d", h.N(), h.Max())
	}
	if h.Sum() != 0+1+2+3+4+1000+1<<40 {
		t.Fatalf("sum=%d", h.Sum())
	}
	s := h.Summary()
	// Log2 buckets: 0 → ≤0, 1 → ≤1, 2..3 → ≤3, 4 → ≤7, 1000 → ≤1023.
	want := map[uint64]uint64{0: 1, 1: 1, 3: 2, 7: 1, 1023: 1, 1<<41 - 1: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets: %+v", s.Buckets)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.Count {
			t.Fatalf("bucket ≤%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
	}
	// Buckets are ordered ascending (JSON determinism).
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].Le <= s.Buckets[i-1].Le {
			t.Fatalf("buckets unsorted: %+v", s.Buckets)
		}
	}
}

func TestHistogramMean(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 {
		t.Fatal("empty mean != 0")
	}
	h.Observe(10)
	h.Observe(20)
	if h.Mean() != 15 {
		t.Fatalf("mean=%v", h.Mean())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(5)
	a.Observe(100)
	b.Observe(7)
	b.Observe(9000)
	a.Merge(&b)
	if a.N() != 4 || a.Sum() != 5+100+7+9000 || a.Max() != 9000 {
		t.Fatalf("merged: n=%d sum=%d max=%d", a.N(), a.Sum(), a.Max())
	}
	// 5 and 7 share the ≤7 bucket after merging.
	for _, bk := range a.Summary().Buckets {
		if bk.Le == 7 && bk.Count != 2 {
			t.Fatalf("≤7 bucket count=%d, want 2", bk.Count)
		}
	}
}

func TestSummaryMergeMatchesHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := uint64(1); i < 200; i += 3 {
		a.Observe(i * i)
	}
	for i := uint64(2); i < 300; i += 7 {
		b.Observe(i * 5)
	}
	sa, sb := a.Summary(), b.Summary()
	sa.Merge(sb)
	a.Merge(&b)
	direct := a.Summary()
	if sa.N != direct.N || sa.Sum != direct.Sum || sa.Max != direct.Max || len(sa.Buckets) != len(direct.Buckets) {
		t.Fatalf("summary merge diverged from histogram merge:\n%+v\n%+v", sa, direct)
	}
	for i := range sa.Buckets {
		if sa.Buckets[i] != direct.Buckets[i] {
			t.Fatalf("bucket %d: %+v vs %+v", i, sa.Buckets[i], direct.Buckets[i])
		}
	}
}

// TestMergeMatchesCombinedStream is the mergeability contract behind every
// parallel fold in the repository: merge(a, b) must be indistinguishable —
// bucket counts, moments, and therefore every quantile — from observing both
// streams into a single histogram.
func TestMergeMatchesCombinedStream(t *testing.T) {
	var a, b, combined Histogram
	seedA := []uint64{0, 1, 3, 9, 81, 6561, 1 << 20, 1<<46 + 5}
	seedB := []uint64{2, 2, 2, 500, 500, 1 << 33}
	for i := uint64(0); i < 400; i++ {
		v := seedA[i%uint64(len(seedA))] + i*i
		a.Observe(v)
		combined.Observe(v)
	}
	for i := uint64(0); i < 300; i++ {
		v := seedB[i%uint64(len(seedB))] * (i + 1)
		b.Observe(v)
		combined.Observe(v)
	}
	a.Merge(&b)
	ac, an, asum, amax := a.Raw()
	cc, cn, csum, cmax := combined.Raw()
	if an != cn || asum != csum || amax != cmax {
		t.Fatalf("moments diverged: n %d/%d sum %d/%d max %d/%d", an, cn, asum, csum, amax, cmax)
	}
	for i := range ac {
		if ac[i] != cc[i] {
			t.Fatalf("bucket %d: merged %d, combined %d", i, ac[i], cc[i])
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := a.Summary().Quantile(q), combined.Summary().Quantile(q); got != want {
			t.Fatalf("q%.3f: merged %d, combined %d", q, got, want)
		}
	}
}

// TestMergeEmptyAndOverflow pins the edge cases: merging with an empty
// histogram is the identity in both directions, and values at or beyond the
// top bucket's range clamp into the overflow bucket on both sides of a merge.
func TestMergeEmptyAndOverflow(t *testing.T) {
	var empty, h Histogram
	h.Observe(42)
	h.Merge(&empty)
	if h.N() != 1 || h.Sum() != 42 || h.Max() != 42 {
		t.Fatalf("merge with empty changed state: n=%d sum=%d max=%d", h.N(), h.Sum(), h.Max())
	}
	empty.Merge(&h)
	if empty.N() != 1 || empty.Summary().Quantile(1) != h.Summary().Quantile(1) {
		t.Fatalf("empty.Merge(h) != h: %+v", empty.Summary())
	}
	var e2 Histogram
	if s := e2.Summary(); s.N != 0 || len(s.Buckets) != 0 || s.Quantile(0.99) != 0 {
		t.Fatalf("empty summary not empty: %+v", s)
	}

	// ^uint64(0) has bit length 64 and 1<<47 has bit length 48: both clamp
	// into the top (overflow) bucket, whose Le is the clamped bound — merges
	// must keep them there rather than inventing new buckets.
	var x, y Histogram
	x.Observe(1 << 47)
	y.Observe(^uint64(0))
	x.Merge(&y)
	s := x.Summary()
	if len(s.Buckets) != 1 {
		t.Fatalf("overflow values split buckets: %+v", s.Buckets)
	}
	if want := bucketLe(NumBuckets - 1); s.Buckets[0].Le != want || s.Buckets[0].Count != 2 {
		t.Fatalf("overflow bucket: got ≤%d count=%d, want ≤%d count=2", s.Buckets[0].Le, s.Buckets[0].Count, want)
	}
	if s.Max != ^uint64(0) {
		t.Fatalf("max lost in overflow merge: %d", s.Max)
	}
}

// TestDeltaSummary drives the windowed-delta path the observability samplers
// use: raw snapshots before and after a burst of observations must reduce to
// exactly the burst's summary, empty windows must come out empty, and the
// overflow bucket must survive the round trip.
func TestDeltaSummary(t *testing.T) {
	var h Histogram
	h.Observe(10)
	h.Observe(1000)
	prevCounts, prevN, prevSum, _ := h.Raw()
	prev := append([]uint64(nil), prevCounts...)

	var window Histogram
	for _, v := range []uint64{3, 70, 70, 1 << 50} {
		h.Observe(v)
		window.Observe(v)
	}
	curCounts, curN, curSum, _ := h.Raw()
	d := DeltaSummary(curCounts, prev, curN-prevN, curSum-prevSum)
	want := window.Summary()
	if d.N != want.N || d.Sum != want.Sum || len(d.Buckets) != len(want.Buckets) {
		t.Fatalf("delta %+v, want %+v", d, want)
	}
	for i := range d.Buckets {
		if d.Buckets[i] != want.Buckets[i] {
			t.Fatalf("delta bucket %d: %+v vs %+v", i, d.Buckets[i], want.Buckets[i])
		}
	}
	// Max degrades to bucket resolution: the overflow bound, not 1<<50.
	if d.Max != bucketLe(NumBuckets-1) {
		t.Fatalf("delta max=%d, want overflow bound", d.Max)
	}
	for _, q := range []float64{0.5, 0.99} {
		if d.Quantile(q) != want.Quantile(q) {
			t.Fatalf("q%.2f: delta %d, window %d", q, d.Quantile(q), want.Quantile(q))
		}
	}

	// An idle window: identical snapshots, zero deltas.
	empty := DeltaSummary(curCounts, curCounts, 0, 0)
	if empty.N != 0 || len(empty.Buckets) != 0 {
		t.Fatalf("idle window not empty: %+v", empty)
	}
	// A fresh cursor: nil prev means the whole histogram is the first window.
	first := DeltaSummary(curCounts, nil, curN, curSum)
	if first.N != h.N() || len(first.Buckets) == 0 {
		t.Fatalf("first window: %+v", first)
	}
}

func TestSummaryQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(100) // bucket ≤127
	}
	h.Observe(100_000) // bucket ≤131071
	s := h.Summary()
	if got := s.Quantile(0.5); got != 127 {
		t.Fatalf("p50=%d, want 127", got)
	}
	if got := s.Quantile(0.99); got != 127 {
		t.Fatalf("p99=%d, want 127 (99th of 100 obs)", got)
	}
	if got := s.Quantile(0.999); got != 131071 {
		t.Fatalf("p999=%d, want 131071", got)
	}
	if got := s.Quantile(1); got != 131071 {
		t.Fatalf("p100=%d, want 131071", got)
	}
}
