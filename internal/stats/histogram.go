package stats

import "math/bits"

// histBuckets is the fixed bucket count of Histogram: bucket b holds values
// of bit length b (i.e. in [2^(b-1), 2^b-1]), so 48 buckets cover any
// realistic cycle latency with no per-observation allocation or rescaling.
const histBuckets = 48

// Histogram is a fixed-bucket log2 histogram of cycle latencies. Observe is
// a few array/scalar updates — cheap enough for coherence-miss and
// message-latency hot paths — and two histograms merge bucket-by-bucket, so
// parallel experiment runs fold deterministically.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
	max    uint64
}

// bucketOf returns the bucket index of v (its bit length, clamped).
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketLe returns the inclusive upper bound of bucket b.
func bucketLe(b int) uint64 {
	if b == 0 {
		return 0
	}
	return 1<<uint(b) - 1
}

// NumBuckets is the fixed bucket count of every Histogram — exported for
// samplers that ship raw bucket deltas and reassemble summaries remotely.
const NumBuckets = histBuckets

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Raw returns the histogram's complete internal state — bucket counts,
// observation count, sum and max — for checkpoint serialization.
func (h *Histogram) Raw() (counts []uint64, n, sum, max uint64) {
	return h.counts[:], h.n, h.sum, h.max
}

// SetRaw restores state previously obtained from Raw. counts must hold
// NumBuckets entries; Registry.RestoreState rejects an image with any other
// length before it calls SetRaw.
func (h *Histogram) SetRaw(counts []uint64, n, sum, max uint64) {
	h.counts = [histBuckets]uint64{}
	copy(h.counts[:], counts)
	h.n, h.sum, h.max = n, sum, max
}

// HistBucket is one non-empty bucket of a summary: Count observations were
// ≤ Le (and greater than the previous bucket's Le).
type HistBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSummary is the JSON-stable snapshot of a Histogram. Buckets is an
// ordered slice (not a map) so encoded output is deterministic.
type HistogramSummary struct {
	N       uint64       `json:"n"`
	Sum     uint64       `json:"sum"`
	Max     uint64       `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Summary snapshots the histogram.
func (h *Histogram) Summary() HistogramSummary {
	s := HistogramSummary{N: h.n, Sum: h.sum, Max: h.max}
	for b, c := range h.counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Le: bucketLe(b), Count: c})
		}
	}
	return s
}

// Merge folds o into s, aligning buckets by upper bound (both sides come
// from the same log2 bucketing, so bounds either match or interleave).
func (s *HistogramSummary) Merge(o HistogramSummary) {
	s.N += o.N
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	merged := make([]HistBucket, 0, len(s.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Le < o.Buckets[j].Le):
			merged = append(merged, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Le < s.Buckets[i].Le:
			merged = append(merged, o.Buckets[j])
			j++
		default:
			merged = append(merged, HistBucket{Le: s.Buckets[i].Le, Count: s.Buckets[i].Count + o.Buckets[j].Count})
			i++
			j++
		}
	}
	s.Buckets = merged
}

// DeltaSummary builds the summary of a sampling window from two raw bucket
// snapshots of the same histogram: cur was taken at the window's end, prev at
// its start (nil or shorter slices are treated as zero — the first window of
// a fresh cursor). n and sum are the window's observation-count and value-sum
// deltas. Because the true per-window maximum is not recoverable from
// monotone state, Max is the upper bound of the highest bucket the window
// touched — the same resolution the quantiles have.
func DeltaSummary(cur, prev []uint64, n, sum uint64) HistogramSummary {
	s := HistogramSummary{N: n, Sum: sum}
	for b, c := range cur {
		var p uint64
		if b < len(prev) {
			p = prev[b]
		}
		if d := c - p; d > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Le: bucketLe(b), Count: d})
			s.Max = bucketLe(b)
		}
	}
	return s
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the Le bound of the bucket holding the ceil(q*N)-th smallest observation.
// Empty summaries report 0. The estimate is exact to within one log2 bucket,
// which is the histogram's resolution everywhere.
func (s HistogramSummary) Quantile(q float64) uint64 {
	if s.N == 0 {
		return 0
	}
	rank := uint64(q * float64(s.N))
	if float64(rank) < q*float64(s.N) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			return b.Le
		}
	}
	return s.Max
}
