package model

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Series is a fixed-interval time series of CPU demand samples in
// core-equivalents: a value of 2.5 means the workload wanted two and a half
// cores' worth of CPU during that sample. Using core units (rather than a
// 0..1 fraction) lets the same series describe VMs of different sizes and
// makes aggregation a plain sum.
//
// The zero value is an empty series with no interval; most callers should
// use NewSeries or SeriesFromSamples.
type Series struct {
	interval time.Duration
	samples  []float64
}

// NewSeries returns an empty series with the given sampling interval and
// capacity.
func NewSeries(interval time.Duration, capacity int) *Series {
	if interval <= 0 {
		panic("model: non-positive interval")
	}
	return &Series{interval: interval, samples: make([]float64, 0, capacity)}
}

// SeriesFromSamples wraps the given samples (without copying) in a series.
func SeriesFromSamples(interval time.Duration, samples []float64) *Series {
	if interval <= 0 {
		panic("model: non-positive interval")
	}
	return &Series{interval: interval, samples: samples}
}

// Interval returns the sampling interval.
func (s *Series) Interval() time.Duration { return s.interval }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.samples) }

// Duration returns the time span covered by the series.
func (s *Series) Duration() time.Duration {
	return time.Duration(len(s.samples)) * s.interval
}

// At returns the i-th sample.
func (s *Series) At(i int) float64 { return s.samples[i] }

// Samples returns the underlying sample slice. Callers must not modify it
// unless they own the series.
func (s *Series) Samples() []float64 { return s.samples }

// Append adds samples at the end of the series.
func (s *Series) Append(v ...float64) { s.samples = append(s.samples, v...) }

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	out := make([]float64, len(s.samples))
	copy(out, s.samples)
	return &Series{interval: s.interval, samples: out}
}

// Slice returns a view of samples [from, to). The returned series shares
// storage with s.
func (s *Series) Slice(from, to int) *Series {
	return &Series{interval: s.interval, samples: s.samples[from:to]}
}

// Mean returns the arithmetic mean of the samples, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.samples {
		sum += v
	}
	return sum / float64(len(s.samples))
}

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	max := 0.0
	for i, v := range s.samples {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

// Min returns the smallest sample, or 0 for an empty series.
func (s *Series) Min() float64 {
	min := 0.0
	for i, v := range s.samples {
		if i == 0 || v < min {
			min = v
		}
	}
	return min
}

// Percentile returns the p-th percentile (p in [0,1]) using linear
// interpolation between closest ranks: Max() for any p >= 1 and Min() for
// any p <= 0, so it is also the paper's reference utilization û, the peak
// at p = 1. It returns 0 for an empty series.
//
// The result is the interpolation of a fully sorted copy, but the window
// is read in place and only the two order statistics it needs are found
// (bucketSelect). A window holding NaN or −0, the only values whose bits at
// a rank depend on how a sort breaks ties, or one whose range is infinite
// or too narrow to scale, is sorted in a copy instead.
func (s *Series) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 1 {
		return s.Max()
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	vlo, vhi, ok := bucketSelect(s.samples, lo, hi)
	if !ok {
		vlo, vhi = sortSelect(s.samples, lo, hi)
	}
	if lo == hi {
		return vlo
	}
	frac := rank - float64(lo)
	return vlo*(1-frac) + vhi*frac
}

// Stack buffers of bucketSelect and sortSelect: the most buckets counted,
// the samples of one bucket gathered in the common case, and the longest
// window copied or bucket gathered without allocating (a period at the
// default 5-s sampling is 720 samples).
const (
	buckets     = 256
	stackBucket = 64
	stackWindow = 1024
)

// bucketSelect returns the values a sort of xs would put at ranks lo and
// hi (lo <= hi <= lo+1) without reordering xs, or false if xs holds NaN or
// −0 or its range is infinite or too narrow to scale. One pass finds the
// range and screens the window; a second counts the samples into buckets
// int((v−min)·scale), an index that never decreases as the value grows,
// so the buckets hold the sorted order in runs; a third gathers the
// bucket holding rank lo, which alone is sorted, and the smallest sample
// above it, which is the value at rank hi when hi lies past the bucket.
func bucketSelect(xs []float64, lo, hi int) (vlo, vhi float64, ok bool) {
	mn, mx := xs[0], xs[0]
	for _, v := range xs {
		// −0 is the sign bit alone; a NaN has every exponent bit set and a
		// non-zero mantissa, whatever its sign.
		if b := math.Float64bits(v); b == 1<<63 || b&^(1<<63) > 0x7FF0_0000_0000_0000 {
			return 0, 0, false
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mn == mx {
		return mn, mn, true
	}
	nb := min(len(xs), buckets)
	// An infinite sample or a range past MaxFloat64 makes the scale 0, and
	// a range below nb·2⁻¹⁰²⁴ makes it infinite.
	scale := float64(nb) / (mx - mn)
	if !(scale > 0 && scale <= math.MaxFloat64) {
		return 0, 0, false
	}
	// (mx−mn)·scale is nb give or take a rounding: the top bucket takes
	// the samples that land on nb.
	bucket := func(v float64) int { return min(int((v-mn)*scale), nb-1) }
	var counts [buckets]int
	for _, v := range xs {
		counts[bucket(v)]++
	}
	b, before := 0, 0 // the bucket holding rank lo, and the samples before it
	for before+counts[b] <= lo {
		before += counts[b]
		b++
	}
	// The bucket is gathered on the stack. An array is cleared where it is
	// declared, so the small buffer is cleared on every call and the
	// window-sized one only for a crowded bucket, such as a plateau of
	// equal samples at the rank; a window of up to stackWindow samples
	// never allocates.
	var stack [stackBucket]float64
	in := stack[:0]
	switch {
	case counts[b] <= stackBucket:
	case counts[b] <= stackWindow:
		var crowded [stackWindow]float64
		in = crowded[:0]
	default:
		in = make([]float64, 0, counts[b])
	}
	// Every sample up to lower lies in an earlier bucket than b, and
	// every one from upper on in a later one: bucket never decreases, so
	// one value's bucket bounds those of all the samples on its side. Each
	// cut sits half a bucket clear of b, and is dropped if rounding puts it
	// in or past b anyway.
	lower, upper := mn+(float64(b)-0.5)/scale, mn+(float64(b)+1.5)/scale
	if bucket(lower) >= b {
		lower = math.Inf(-1)
	}
	if bucket(upper) <= b {
		upper = math.Inf(1)
	}
	above := math.Inf(1) // the smallest sample past bucket b
	for _, v := range xs {
		if v <= lower {
			continue
		}
		i := b + 1
		if v < upper {
			i = bucket(v)
		}
		if i == b {
			in = append(in, v)
		} else if i > b && v < above {
			above = v
		}
	}
	slices.Sort(in)
	vlo, vhi = in[lo-before], above
	if hi-before < len(in) {
		vhi = in[hi-before]
	}
	return vlo, vhi, true
}

// sortSelect returns the values at ranks lo and hi of a sorted copy of xs.
func sortSelect(xs []float64, lo, hi int) (vlo, vhi float64) {
	var stack [stackWindow]float64
	buf := stack[:0]
	if len(xs) > len(stack) {
		buf = make([]float64, 0, len(xs))
	}
	buf = append(buf, xs...)
	sort.Float64s(buf)
	return buf[lo], buf[hi]
}

// AggregateSeries returns the element-wise sum of all the given series,
// which must share interval and length. Aggregating zero series is an error.
func AggregateSeries(series ...*Series) (*Series, error) {
	if len(series) == 0 {
		return nil, errors.New("model: aggregate of zero series")
	}
	out := series[0].Clone()
	for _, t := range series[1:] {
		if t.interval != out.interval {
			return nil, fmt.Errorf("model: interval mismatch %v vs %v", t.interval, out.interval)
		}
		if t.Len() != out.Len() {
			return nil, fmt.Errorf("model: length mismatch %d vs %d", t.Len(), out.Len())
		}
		for i, v := range t.samples {
			out.samples[i] += v
		}
	}
	return out, nil
}

// Downsample returns a new series whose interval is factor times coarser,
// with each output sample the mean of factor consecutive input samples.
// A trailing partial window is averaged over the samples it has.
func (s *Series) Downsample(factor int) *Series {
	if factor <= 1 {
		return s.Clone()
	}
	n := (len(s.samples) + factor - 1) / factor
	out := make([]float64, 0, n)
	for i := 0; i < len(s.samples); i += factor {
		end := i + factor
		if end > len(s.samples) {
			end = len(s.samples)
		}
		sum := 0.0
		for _, v := range s.samples[i:end] {
			sum += v
		}
		out = append(out, sum/float64(end-i))
	}
	return &Series{interval: s.interval * time.Duration(factor), samples: out}
}

// Validate reports whether every sample is finite and non-negative — the
// contract demand traces must satisfy before entering a simulation.
func (s *Series) Validate() error {
	for i, v := range s.samples {
		// One range test per sample: NaN fails both comparisons, −0
		// passes. Only a rejected sample is classified.
		if v >= 0 && v <= math.MaxFloat64 {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("model: sample %d is not finite", i)
		}
		return fmt.Errorf("model: sample %d is negative (%v)", i, v)
	}
	return nil
}
