package model

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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
// interpolation between closest ranks. Percentile(1) equals Max().
// It returns 0 for an empty series.
//
// The result is the interpolation of a fully sorted copy, but only the
// two order statistics it needs are selected: a quickselect puts the
// lower rank in place and the upper one is the minimum above it. A
// window holding NaN or −0 is sorted instead, because those are the only
// values whose bits at a rank depend on how the sort breaks ties.
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
	// The copy is fresh per call. A window up to stackWindow samples (a
	// period at the default 5-s sampling is 720) copies onto the stack, so
	// the per-VM, per-period reads allocate nothing.
	var stack [stackWindow]float64
	buf := stack[:0]
	if n > len(stack) {
		buf = make([]float64, 0, n)
	}
	buf = append(buf, s.samples...)
	mustSort := false
	for _, v := range buf {
		// −0 is the sign bit alone; a NaN has every exponent bit set and a
		// non-zero mantissa, whatever its sign.
		if b := math.Float64bits(v); b == 1<<63 || b&^(1<<63) > 0x7FF0_0000_0000_0000 {
			mustSort = true
			break
		}
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	var vlo, vhi float64
	if !mustSort && selectRank(buf, lo) {
		vlo, vhi = buf[lo], buf[lo]
		if hi != lo {
			vhi = minOf(buf[hi:])
		}
	} else {
		sort.Float64s(buf)
		vlo, vhi = buf[lo], buf[hi]
	}
	if lo == hi {
		return vlo
	}
	frac := rank - float64(lo)
	return vlo*(1-frac) + vhi*frac
}

// stackWindow is the longest window Percentile copies onto the stack.
const stackWindow = 1024

// selectRank reorders a so that a[k] holds the value a sort would put
// there, with nothing larger before it and nothing smaller after it. It
// runs Hoare partitions around a median-of-three pivot and reports false,
// leaving a permuted but unsettled, when the rank is still open after
// 2·bits.Len(len(a))+4 rounds, so adversarial input costs a bounded number
// of partitions before the caller sorts. Random windows settle in about two
// passes' worth of partitioning. a must not hold NaN.
func selectRank(a []float64, k int) bool {
	lo, hi := 0, len(a)-1
	for rounds := 2*bits.Len(uint(len(a))) + 4; lo < hi; rounds-- {
		if rounds == 0 {
			return false
		}
		// The three candidates sit at the quartiles rather than the ends,
		// so sorted, reversed and organ-pipe windows split near the middle.
		q := (hi - lo) / 4
		m1, mid, m3 := lo+q, lo+(hi-lo)/2, hi-q
		if a[mid] < a[m1] {
			a[mid], a[m1] = a[m1], a[mid]
		}
		if a[m3] < a[mid] {
			a[m3], a[mid] = a[mid], a[m3]
			if a[mid] < a[m1] {
				a[mid], a[m1] = a[m1], a[mid]
			}
		}
		pivot := a[mid]
		// Afterwards a[lo..j] <= pivot <= a[j+1..hi], with lo <= j < hi
		// because the pivot sits at mid < hi.
		i, j := lo-1, hi+1
		for {
			for i++; a[i] < pivot; i++ {
			}
			for j--; a[j] > pivot; j-- {
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return true
}

// minOf returns the smallest element of a non-empty slice without NaN.
func minOf(a []float64) float64 {
	m := a[0]
	for _, v := range a[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Ref returns the reference utilization û used throughout the paper: the
// peak when pctl >= 1, otherwise the pctl-th percentile.
func (s *Series) Ref(pctl float64) float64 {
	if pctl >= 1 {
		return s.Max()
	}
	return s.Percentile(pctl)
}

// AddSeries returns a new series that is the element-wise sum of s and t.
// Both series must have the same interval and length.
func AddSeries(s, t *Series) (*Series, error) {
	if s.interval != t.interval {
		return nil, fmt.Errorf("model: interval mismatch %v vs %v", s.interval, t.interval)
	}
	if len(s.samples) != len(t.samples) {
		return nil, fmt.Errorf("model: length mismatch %d vs %d", len(s.samples), len(t.samples))
	}
	out := make([]float64, len(s.samples))
	for i := range out {
		out[i] = s.samples[i] + t.samples[i]
	}
	return &Series{interval: s.interval, samples: out}, nil
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
