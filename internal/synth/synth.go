// Package synth generates the synthetic workloads that stand in for the
// paper's proprietary inputs: the Credit Suisse datacenter utilization
// traces (Setup 2) and the Faban-driven client waves of the CloudSuite web
// search testbed (Setup 1).
//
// Everything is seeded explicitly so that experiments regenerate
// bit-identically. Load makes the datacenter workload: it draws every
// VM's coarse series in index order, then GOMAXPROCS workers refine the
// VMs, each from its own seed, so its traces are the same at every
// GOMAXPROCS; Datacenter is Load without a context. Refinement
// exponentiates with the package's own exp, the FMA path of Go's amd64
// math.Exp, run four values at a time in AVX2 where the CPU has it and in
// Go elsewhere, so a seed draws the same population on any amd64 CPU and
// on 386.
package synth

import (
	"math"
	"math/rand"
	"time"

	"repro/pkg/dcsim/model"
)

// LogNormal draws samples with the given mean and shape parameter sigma
// (the standard deviation of the underlying normal). The location parameter
// is solved so the distribution's mean equals mean exactly:
// mu = ln(mean) - sigma^2/2.
//
// The paper refines its 5-minute datacenter samples into 5-second samples
// with a lognormal generator whose mean matches the coarse sample (citing
// Benson et al. on datacenter traffic); this reproduces that step.
type LogNormal struct {
	Sigma float64
	rng   *rand.Rand
}

// NewLogNormal returns a generator with the given shape and seed.
func NewLogNormal(sigma float64, seed int64) *LogNormal {
	if sigma < 0 {
		panic("synth: negative lognormal sigma")
	}
	return &LogNormal{Sigma: sigma, rng: rand.New(rand.NewSource(seed))}
}

// Sample draws one value with the given mean. A non-positive mean yields 0.
func (l *LogNormal) Sample(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	if l.Sigma == 0 {
		return mean
	}
	return exp(l.arg(l.location(mean)))
}

// location is the underlying normal's location for a positive mean.
func (l *LogNormal) location(mean float64) float64 {
	return math.Log(mean) - l.Sigma*l.Sigma/2
}

// arg draws the normal exponent of one sample around the location mu: the
// only place the generator consumes randomness. The conversion rounds the
// product before the add, so no architecture fuses the two into an FMA.
func (l *LogNormal) arg(mu float64) float64 {
	return mu + float64(l.Sigma*l.rng.NormFloat64())
}

// Refine expands a coarse series into a fine-grained one with factor samples
// per coarse sample, each drawn lognormally around the coarse mean. The
// location is solved once per coarse sample; the draws are exactly the
// ones factor calls to Sample would make. Each coarse sample's factor
// exponents are drawn into the output first and exponentiated there in
// one pass, four at a time where the CPU has the vector kernel.
func (l *LogNormal) Refine(coarse *model.Series, factor int) *model.Series {
	if factor <= 0 {
		panic("synth: non-positive refinement factor")
	}
	out := make([]float64, coarse.Len()*factor)
	for i, mean := range coarse.Samples() {
		fine := out[i*factor : (i+1)*factor]
		if mean <= 0 || l.Sigma == 0 {
			// Degenerate: every fine sample is Sample's constant, and
			// none consumes randomness.
			v := l.Sample(mean)
			for k := range fine {
				fine[k] = v
			}
			continue
		}
		mu := l.location(mean)
		for k := range fine {
			fine[k] = l.arg(mu)
		}
		expInPlace(fine)
	}
	return model.SeriesFromSamples(coarse.Interval()/time.Duration(factor), out)
}

// Wave describes a sinusoidal client population, the shape the paper uses to
// drive its two web-search clusters (sine for Cluster1, cosine for
// Cluster2). Values are client counts in [Min, Max].
type Wave struct {
	Min, Max float64
	Period   time.Duration
	Phase    float64 // radians; 0 = sine, pi/2 = cosine
}

// At returns the client count at elapsed time t.
func (w Wave) At(t time.Duration) float64 {
	mid := (w.Min + w.Max) / 2
	amp := (w.Max - w.Min) / 2
	theta := 2*math.Pi*t.Seconds()/w.Period.Seconds() + w.Phase
	return mid + amp*math.Sin(theta)
}

// Series samples the wave every interval for n samples.
func (w Wave) Series(interval time.Duration, n int) *model.Series {
	s := model.NewSeries(interval, n)
	for i := 0; i < n; i++ {
		s.Append(w.At(time.Duration(i) * interval))
	}
	return s
}

// SineClients and CosineClients return the paper's Setup-1 client waves:
// 0..300 clients with the given period, in sine and cosine form.
func SineClients(period time.Duration) Wave {
	return Wave{Min: 0, Max: 300, Period: period, Phase: 0}
}

// CosineClients returns the cosine counterpart of SineClients.
func CosineClients(period time.Duration) Wave {
	return Wave{Min: 0, Max: 300, Period: period, Phase: math.Pi / 2}
}
