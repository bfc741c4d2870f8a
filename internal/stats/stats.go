// Package stats provides the streaming statistics the consolidation stack
// relies on: running moments (Welford), streaming Pearson correlation, the
// P² on-line quantile estimator, and small fitting helpers.
//
// Everything here is updatable one sample at a time in O(1) memory, which is
// the property the paper exploits when it argues its correlation cost is
// cheaper to maintain than windowed Pearson correlation.
package stats

import "math"

// Running accumulates count, mean and variance using Welford's algorithm.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the running mean (0 before any observation).
func (r *Running) Mean() float64 { return r.mean }

// SampleVariance returns the Bessel-corrected (n-1) variance, the unbiased
// estimator confidence intervals are built on. It is 0 for fewer than two
// observations.
func (r *Running) SampleVariance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// SampleStdDev returns the Bessel-corrected standard deviation.
func (r *Running) SampleStdDev() float64 { return math.Sqrt(r.SampleVariance()) }

// tCrit95 holds two-sided 95% Student-t critical values for 1..30 degrees
// of freedom; beyond that the normal approximation is within half a percent.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCrit95 returns the two-sided 95% Student-t critical value for the given
// degrees of freedom (1.96, the normal value, beyond the tabulated range).
func TCrit95(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(tCrit95) {
		return tCrit95[df-1]
	}
	return 1.96
}

// MeanCI95 returns the half-width of the 95% confidence interval of the
// mean, using the Student-t critical value for the sample size. It is 0 for
// fewer than two observations (a single replica carries no spread
// information), which keeps single-run sweep cells honest: mean equals the
// observation and the interval collapses.
func (r *Running) MeanCI95() float64 {
	if r.n < 2 {
		return 0
	}
	return TCrit95(r.n-1) * r.SampleStdDev() / math.Sqrt(float64(r.n))
}

// Pearson accumulates the Pearson product-moment correlation of a stream of
// (x, y) pairs in O(1) space. The zero value is ready to use.
//
// This is the metric the paper compares its Eqn-1 cost against: exact
// correlation over the whole interval, as opposed to behaviour at the peaks.
type Pearson struct {
	n          int
	meanX, mX2 float64
	meanY, mY2 float64
	cov        float64
}

// Add incorporates one (x, y) observation.
func (p *Pearson) Add(x, y float64) {
	p.n++
	n := float64(p.n)
	dx := x - p.meanX
	p.meanX += dx / n
	p.mX2 += dx * (x - p.meanX)
	dy := y - p.meanY
	p.meanY += dy / n
	p.mY2 += dy * (y - p.meanY)
	// Co-moment uses the updated meanY and pre-update dx, the standard
	// one-pass covariance recurrence.
	p.cov += dx * (y - p.meanY)
}

// Corr returns the correlation coefficient in [-1, 1]. When either variable
// is constant the correlation is undefined; Corr returns 0 in that case.
func (p *Pearson) Corr() float64 {
	if p.n < 2 {
		return 0
	}
	den := math.Sqrt(p.mX2 * p.mY2)
	if den == 0 {
		return 0
	}
	c := p.cov / den
	// Guard against floating-point excursions outside [-1, 1].
	return math.Max(-1, math.Min(1, c))
}

// PearsonOf computes the Pearson correlation of two equal-length slices.
func PearsonOf(xs, ys []float64) float64 {
	var p Pearson
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	for i := 0; i < n; i++ {
		p.Add(xs[i], ys[i])
	}
	return p.Corr()
}

// Linear is a least-squares straight-line fit y = A + B·x.
type Linear struct {
	A, B float64
	R2   float64
}

// FitLinear fits a line through the given points. At least two points with
// non-zero x variance are required; otherwise a degenerate flat fit through
// the mean is returned.
func FitLinear(xs, ys []float64) Linear {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n == 0 {
		return Linear{}
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Linear{A: my}
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return Linear{A: a, B: b, R2: r2}
}
