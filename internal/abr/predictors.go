package abr

import "math"

// Predictor forecasts the next value of a time series (throughput in bps or
// loss rate) from past observations.
type Predictor interface {
	Name() string
	Observe(v float64)
	Predict() float64
	Reset()
}

// EWMA is the exponentially weighted moving average predictor from §6.
type EWMA struct {
	Alpha float64
	val   float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor (0<α≤1).
func NewEWMA(alpha float64) *EWMA { return &EWMA{Alpha: alpha} }

// Name implements Predictor.
func (e *EWMA) Name() string { return "ewma" }

// Observe implements Predictor.
func (e *EWMA) Observe(v float64) {
	if !e.init {
		e.val = v
		e.init = true
		return
	}
	e.val = e.Alpha*v + (1-e.Alpha)*e.val
}

// Predict implements Predictor.
func (e *EWMA) Predict() float64 { return e.val }

// Reset implements Predictor.
func (e *EWMA) Reset() { e.val, e.init = 0, false }

// HoltWinters is Holt's double-exponential smoothing (level + trend), the
// second predictor §6 mentions. With no seasonality it is the standard
// Holt linear method.
type HoltWinters struct {
	Alpha, Beta float64
	level       float64
	trend       float64
	n           int
	prev        float64
}

// NewHoltWinters returns a Holt predictor.
func NewHoltWinters(alpha, beta float64) *HoltWinters {
	return &HoltWinters{Alpha: alpha, Beta: beta}
}

// Name implements Predictor.
func (h *HoltWinters) Name() string { return "holt-winters" }

// Observe implements Predictor.
func (h *HoltWinters) Observe(v float64) {
	switch h.n {
	case 0:
		h.level = v
	case 1:
		h.trend = v - h.prev
		h.level = v
	default:
		prevLevel := h.level
		h.level = h.Alpha*v + (1-h.Alpha)*(h.level+h.trend)
		h.trend = h.Beta*(h.level-prevLevel) + (1-h.Beta)*h.trend
	}
	h.prev = v
	h.n++
}

// Predict implements Predictor.
func (h *HoltWinters) Predict() float64 {
	p := h.level + h.trend
	if p < 0 {
		p = 0
	}
	return p
}

// Reset implements Predictor.
func (h *HoltWinters) Reset() { *h = HoltWinters{Alpha: h.Alpha, Beta: h.Beta} }

// HarmonicMean returns the harmonic mean of the last n samples (all when
// n ≤ 0) — the robust throughput estimator used by MPC.
func HarmonicMean(samples []float64, n int) float64 {
	if len(samples) == 0 {
		return 0
	}
	if n > 0 && len(samples) > n {
		samples = samples[len(samples)-n:]
	}
	var inv float64
	cnt := 0
	for _, s := range samples {
		if s <= 0 {
			continue
		}
		inv += 1 / s
		cnt++
	}
	if cnt == 0 || inv == 0 {
		return 0
	}
	return float64(cnt) / inv
}

// maxPredictionError returns the maximum relative error of past one-step
// predictions — robustMPC's discount factor.
func maxPredictionError(history []float64, window int) float64 {
	if len(history) < 2 {
		return 0
	}
	start := 1
	if window > 0 && len(history) > window+1 {
		start = len(history) - window
	}
	var worst float64
	for i := start; i < len(history); i++ {
		pred := HarmonicMean(history[:i], 5)
		if history[i] <= 0 {
			continue
		}
		err := math.Abs(pred-history[i]) / history[i]
		if err > worst {
			worst = err
		}
	}
	return worst
}
