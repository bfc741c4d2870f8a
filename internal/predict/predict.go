// Package predict provides the per-VM workload predictors consolidation
// runs on: given the history of per-period reference utilizations û, predict
// the next period's û. The paper uses a last-value predictor; the others are
// here for the ablation study (A3) and because the paper attributes its QoS
// violations to prediction error.
package predict

import "fmt"

// LastValue predicts the previous period's value — the paper's choice.
type LastValue struct{}

// Predict implements model.Predictor.
func (LastValue) Predict(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	return history[len(history)-1]
}

// Name implements model.Predictor.
func (LastValue) Name() string { return "last-value" }

// MovingAverage predicts the mean of the last K values.
type MovingAverage struct{ K int }

// Predict implements model.Predictor.
func (m MovingAverage) Predict(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	k := m.K
	if k <= 0 {
		k = 1
	}
	if k > len(history) {
		k = len(history)
	}
	sum := 0.0
	for _, v := range history[len(history)-k:] {
		sum += v
	}
	return sum / float64(k)
}

// Name implements model.Predictor.
func (m MovingAverage) Name() string { return fmt.Sprintf("moving-average(%d)", m.K) }

// EWMA predicts an exponentially weighted moving average with smoothing
// factor Alpha in (0, 1]; larger Alpha weighs recent periods more.
type EWMA struct{ Alpha float64 }

// Predict implements model.Predictor.
func (e EWMA) Predict(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.5
	}
	v := history[0]
	for _, x := range history[1:] {
		v = a*x + (1-a)*v
	}
	return v
}

// Name implements model.Predictor.
func (e EWMA) Name() string { return fmt.Sprintf("ewma(%.2f)", e.Alpha) }

// MaxOf predicts the maximum of the last K values — a conservative
// (over-provisioning) forecaster.
type MaxOf struct{ K int }

// Predict implements model.Predictor.
func (m MaxOf) Predict(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	k := m.K
	if k <= 0 {
		k = 1
	}
	if k > len(history) {
		k = len(history)
	}
	max := 0.0
	for i, v := range history[len(history)-k:] {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

// Name implements model.Predictor.
func (m MaxOf) Name() string { return fmt.Sprintf("max-of(%d)", m.K) }
