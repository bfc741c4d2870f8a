package stats

import (
	"time"

	"repro/pkg/dcsim/model"
)

// P2Quantile is the Jain & Chlamtac P² on-line quantile estimator: it tracks
// an arbitrary quantile of a stream in O(1) space using five markers whose
// heights are adjusted with a piecewise-parabolic prediction.
//
// The consolidation stack uses it to maintain per-VM and per-pair Nth
// percentile reference utilizations without storing the monitoring window,
// which is exactly the memory/computation-spreading advantage the paper
// claims for its Eqn-1 cost function.
type P2Quantile struct {
	q       float64
	n       int
	heights [5]float64 // marker heights
	pos     [5]float64 // actual marker positions (1-based)
	want    [5]float64 // desired marker positions
	incr    [5]float64 // desired position increments per observation
	initial [5]float64 // first five observations, until initialized
}

// NewP2Quantile returns an estimator for the q-th quantile, q in (0, 1).
func NewP2Quantile(q float64) *P2Quantile {
	if q <= 0 || q >= 1 {
		panic("stats: P² quantile must be in (0, 1)")
	}
	p := &P2Quantile{q: q}
	p.want = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
	p.incr = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// Add incorporates one observation.
func (p *P2Quantile) Add(x float64) {
	if p.n < 5 {
		p.initial[p.n] = x
		p.n++
		if p.n == 5 {
			// Sort the five seed observations into marker heights.
			h := p.initial
			for i := 1; i < 5; i++ {
				for j := i; j > 0 && h[j-1] > h[j]; j-- {
					h[j-1], h[j] = h[j], h[j-1]
				}
			}
			p.heights = h
			p.pos = [5]float64{1, 2, 3, 4, 5}
		}
		return
	}
	p.n++

	// Find the cell k containing x and update extreme heights.
	var k int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		k = 0
	case x >= p.heights[4]:
		p.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < p.heights[k+1] {
				break
			}
		}
	}

	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := range p.want {
		p.want[i] += p.incr[i]
	}

	// Adjust the three interior markers if they drifted off their
	// desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := p.parabolic(i, sign)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, sign)
			}
			p.pos[i] += sign
		}
	}
}

func (p *P2Quantile) parabolic(i int, d float64) float64 {
	hi, h := p.heights, p.pos
	return hi[i] + d/(h[i+1]-h[i-1])*
		((h[i]-h[i-1]+d)*(hi[i+1]-hi[i])/(h[i+1]-h[i])+
			(h[i+1]-h[i]-d)*(hi[i]-hi[i-1])/(h[i]-h[i-1]))
}

func (p *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return p.heights[i] + d*(p.heights[j]-p.heights[i])/(p.pos[j]-p.pos[i])
}

// Value returns the current quantile estimate. Before five observations the
// estimate falls back to the exact quantile of what has been seen.
func (p *P2Quantile) Value() float64 {
	if p.n < 5 {
		return model.SeriesFromSamples(time.Second, p.initial[:p.n]).Percentile(p.q)
	}
	return p.heights[2]
}

// Reset clears the estimator for a new monitoring window.
func (p *P2Quantile) Reset() {
	n := NewP2Quantile(p.q)
	*p = *n
}
