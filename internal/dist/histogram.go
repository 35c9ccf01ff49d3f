// Package dist implements the checksum-value distribution analysis at
// the heart of the paper: histograms over the 16-bit checksum space,
// sorted PDF/CDF series (Figures 2 and 3), the convolution-based
// prediction of multi-cell distributions (§4.4), congruence-probability
// estimates (Tables 4–6), and executable forms of the appendix lemmas.
package dist

import (
	"sort"

	"realsum/internal/onescomp"
)

// Histogram counts occurrences of 16-bit checksum values.  Values are
// stored normalized: the ones-complement negative zero 0xFFFF is folded
// onto 0x0000, so congruent sums share a bucket.
type Histogram struct {
	counts []uint64 // len 65536; bucket 0xFFFF stays zero
	total  uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, 65536)}
}

// Add records one observation of v.
func (h *Histogram) Add(v uint16) { h.AddN(v, 1) }

// AddN records n observations of v.
func (h *Histogram) AddN(v uint16, n uint64) {
	h.counts[onescomp.Normalize(v)] += n
	h.total += n
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Merge adds every count of o into h.  Counts are integers, so merging
// any shard partition of the same observations yields identical state
// regardless of partition or order.
func (h *Histogram) Merge(o *Histogram) {
	for v, c := range o.counts {
		if c > 0 {
			h.counts[v] += c
		}
	}
	h.total += o.total
}

// ValueCount pairs a checksum value with its observation count.
type ValueCount struct {
	Value uint16
	Count uint64
}

// TopK returns the k most frequent values, most frequent first.  Ties
// break toward smaller values for determinism.
func (h *Histogram) TopK(k int) []ValueCount {
	all := make([]ValueCount, 0, 1024)
	for v, c := range h.counts {
		if c > 0 {
			all = append(all, ValueCount{uint16(v), c})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Value < all[j].Value
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// PMax returns the most frequent value and its probability (Lemma 1's
// PMax).  An empty histogram returns (0, 0).
func (h *Histogram) PMax() (uint16, float64) {
	if h.total == 0 {
		return 0, 0
	}
	top := h.TopK(1)
	return top[0].Value, float64(top[0].Count) / float64(h.total)
}

// SortedPDF returns the empirical probabilities of all observed values
// in descending order — the x-axis ordering of Figures 2 and 3.
func (h *Histogram) SortedPDF() []float64 {
	var out []float64
	for _, c := range h.counts {
		if c > 0 {
			out = append(out, float64(c)/float64(h.total))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// CDF returns the cumulative form of SortedPDF truncated to the first k
// points — the Figure 2(c) series.
func (h *Histogram) CDF(k int) []float64 {
	pdf := h.SortedPDF()
	if k > len(pdf) {
		k = len(pdf)
	}
	out := make([]float64, k)
	acc := 0.0
	for i := 0; i < k; i++ {
		acc += pdf[i]
		out[i] = acc
	}
	return out
}

// TopShare returns the total probability mass carried by the k most
// common values — the "top 0.1% of values occurred 2.5% of the time"
// measurements of §4.3.
func (h *Histogram) TopShare(k int) float64 {
	cdf := h.CDF(k)
	if len(cdf) == 0 {
		return 0
	}
	return cdf[len(cdf)-1]
}

// CollisionProbability estimates the probability that two independent
// draws from the underlying distribution are congruent, using the
// unbiased pair estimator Σc(c−1)/(N(N−1)) — the naive Σp² is biased
// upward by ≈1/N, which matters at the 2^-16 scales this study works
// at.  Under a uniform 16-bit distribution the true value is ≈2^-16;
// the paper's measured single-cell values run 7–10× higher (§5.2
// reports 0.011% for the TCP sum over smeg:/u1 cells).
func (h *Histogram) CollisionProbability() float64 {
	if h.total < 2 {
		return 0
	}
	var s float64
	for _, c := range h.counts {
		if c > 1 {
			s += float64(c) * float64(c-1)
		}
	}
	return s / (float64(h.total) * float64(h.total-1))
}

// Distinct returns the number of distinct values observed.
func (h *Histogram) Distinct() int {
	n := 0
	for _, c := range h.counts {
		if c > 0 {
			n++
		}
	}
	return n
}
