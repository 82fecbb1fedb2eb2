package abr

import (
	"math"
	"testing"

	"nerve/internal/qoe"
	"nerve/internal/video"
)

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(10)
	if e.Predict() != 10 {
		t.Fatalf("first observation: %v", e.Predict())
	}
	e.Observe(20)
	if e.Predict() != 15 {
		t.Fatalf("after 20: %v", e.Predict())
	}
	e.Reset()
	if e.Predict() != 0 {
		t.Fatal("reset failed")
	}
}

func TestHoltWintersTracksTrend(t *testing.T) {
	h := NewHoltWinters(0.6, 0.4)
	for i := 1; i <= 20; i++ {
		h.Observe(float64(10 * i))
	}
	// A linear ramp: prediction should be near the next value 210.
	if p := h.Predict(); math.Abs(p-210) > 15 {
		t.Fatalf("Holt prediction %v want ≈210", p)
	}
	// EWMA lags behind on a ramp.
	e := NewEWMA(0.3)
	for i := 1; i <= 20; i++ {
		e.Observe(float64(10 * i))
	}
	if e.Predict() >= h.Predict() {
		t.Fatal("EWMA should lag Holt on an increasing ramp")
	}
}

func TestHoltWintersNonNegative(t *testing.T) {
	h := NewHoltWinters(0.8, 0.8)
	h.Observe(100)
	h.Observe(10)
	h.Observe(1)
	if h.Predict() < 0 {
		t.Fatal("negative prediction")
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{2, 2, 2}, 0); math.Abs(got-2) > 1e-12 {
		t.Fatalf("constant: %v", got)
	}
	// Harmonic mean is dominated by small values.
	hm := HarmonicMean([]float64{1, 100}, 0)
	if hm >= 50 {
		t.Fatalf("harmonic mean too high: %v", hm)
	}
	if HarmonicMean(nil, 5) != 0 {
		t.Fatal("empty")
	}
	// Window: only the last 2 samples.
	if got := HarmonicMean([]float64{1, 4, 4}, 2); math.Abs(got-4) > 1e-12 {
		t.Fatalf("windowed: %v", got)
	}
	// Zero samples are skipped.
	if got := HarmonicMean([]float64{0, 3}, 0); math.Abs(got-3) > 1e-12 {
		t.Fatalf("zeros skipped: %v", got)
	}
}

func mkState(bufferSec float64, tput float64, last int) State {
	hist := make([]float64, 8)
	for i := range hist {
		hist[i] = tput
	}
	return State{
		BufferSec:         bufferSec,
		LastRate:          last,
		ThroughputHistory: hist,
		ChunksRemaining:   20,
		ChunkSeconds:      4,
	}
}

func TestRateBasedScalesWithThroughput(t *testing.T) {
	r := NewRateBased()
	low := r.SelectRate(mkState(10, 0.6e6, 0))
	r.Reset()
	high := r.SelectRate(mkState(10, 6e6, 0))
	if low >= high {
		t.Fatalf("rate-based: low-tput rate %d not below high-tput rate %d", low, high)
	}
	if high != len(video.Resolutions())-1 {
		t.Fatalf("6 Mbps should afford the top rung, got %d", high)
	}
}

func TestBufferBasedMap(t *testing.T) {
	b := NewBufferBased()
	if b.SelectRate(mkState(2, 1e6, 0)) != 0 {
		t.Fatal("below reservoir must pick lowest")
	}
	if b.SelectRate(mkState(30, 1e6, 0)) != len(video.Resolutions())-1 {
		t.Fatal("above cushion must pick highest")
	}
	mid := b.SelectRate(mkState(12, 1e6, 0))
	if mid <= 0 || mid >= len(video.Resolutions())-1 {
		t.Fatalf("mid buffer rate %d not interior", mid)
	}
}

func TestMPCAvoidsRebuffering(t *testing.T) {
	m := NewMPC()
	// Thin buffer + low throughput: must pick a low rate.
	r := m.SelectRate(mkState(1, 0.7e6, 4))
	if r > 1 {
		t.Fatalf("MPC picked rate %d with 1 s buffer at 0.7 Mbps", r)
	}
	// Fat buffer + high throughput: should pick a high rate.
	r2 := m.SelectRate(mkState(20, 6e6, 4))
	if r2 < 3 {
		t.Fatalf("MPC picked rate %d with 20 s buffer at 6 Mbps", r2)
	}
}

func TestMPCZeroHistory(t *testing.T) {
	m := NewMPC()
	s := mkState(10, 1e6, 0)
	s.ThroughputHistory = nil
	if got := m.SelectRate(s); got != 0 {
		t.Fatalf("no history must pick lowest, got %d", got)
	}
}

func TestMPCRespectsTightBuffer(t *testing.T) {
	// With a thin buffer and 2 Mbps, sustaining the top rung (4.4 Mbps)
	// would rebuffer within the horizon; MPC must stay below it.
	m := NewMPC()
	s := mkState(3, 2.0e6, 2)
	r := m.SelectRate(s)
	if r >= len(video.Resolutions())-1 {
		t.Fatalf("MPC picked top rung %d with a 3 s buffer at 2 Mbps", r)
	}
}

func testModel() EnhancementModel {
	qmap := qoe.NewQualityMap([]qoe.RateQuality{
		{Mbps: 0.512, PSNR: 30}, {Mbps: 1.024, PSNR: 33}, {Mbps: 1.6, PSNR: 35},
		{Mbps: 2.64, PSNR: 37}, {Mbps: 4.4, PSNR: 39},
	})
	rec := []float64{28, 30.5, 32, 33.5, 35}
	sr := []float64{33, 35.5, 37, 38.5, 39.5}
	return EnhancementModel{
		Delivered: qmap, RecoveredPSNR: rec, SRPSNR: sr,
		RecoveryDecay: 0.05, TRecovery: 0.022, TSR: 0.022,
	}
}

func TestEnhancementAwarePicksValidRate(t *testing.T) {
	e := NewEnhancementAware(testModel())
	for _, tput := range []float64{0.5e6, 1.5e6, 5e6} {
		r := e.SelectRate(mkState(8, tput, 0))
		if r < 0 || r >= len(video.Resolutions()) {
			t.Fatalf("invalid rate %d", r)
		}
	}
}

func TestEnhancementAwareRespondsToThroughput(t *testing.T) {
	e := NewEnhancementAware(testModel())
	low := e.SelectRate(mkState(6, 0.6e6, 0))
	e.Reset()
	high := e.SelectRate(mkState(6, 5e6, 0))
	if low >= high {
		t.Fatalf("low-tput rate %d not below high-tput rate %d", low, high)
	}
}

func TestSRAwarePicksHigherOrEqual(t *testing.T) {
	// With SR, a lower rung is worth more (its quality is uplifted), so
	// the SR-aware ABR can afford to stream lower when bandwidth is
	// tight, and must never do worse than the unaware variant's QoE
	// estimate. We check the decision is sane: SR-aware never picks a
	// *higher* rung than the unaware one under tight bandwidth (it knows
	// the client will upgrade quality for free).
	aware := NewEnhancementAware(testModel())
	unaware := NewEnhancementAware(testModel())
	unaware.SRAware = false
	s := mkState(4, 1.2e6, 2)
	ra := aware.SelectRate(s)
	ru := unaware.SelectRate(s)
	if ra > ru {
		t.Fatalf("SR-aware picked %d above unaware %d under tight bandwidth", ra, ru)
	}
}

func TestRecoveryAwareToleratesLoss(t *testing.T) {
	// Under loss, the recovery-aware ABR should not crater its rate as
	// hard as the unaware one, because recovered frames retain utility.
	aware := NewEnhancementAware(testModel())
	aware.SRAware = false
	unaware := NewEnhancementAware(testModel())
	unaware.RecoveryAware = false
	unaware.SRAware = false
	s := mkState(2, 1.6e6, 3)
	s.PredictedLossRate = 0.05
	ra := aware.SelectRate(s)
	ru := unaware.SelectRate(s)
	if ra < ru {
		t.Fatalf("recovery-aware rate %d below unaware %d under loss", ra, ru)
	}
}

func TestEnhancementAwareNames(t *testing.T) {
	e := NewEnhancementAware(testModel())
	if e.Name() != "nerve-abr" {
		t.Fatalf("name %q", e.Name())
	}
	e.SRAware = false
	if e.Name() != "recovery-aware-abr" {
		t.Fatalf("name %q", e.Name())
	}
	e.RecoveryAware = false
	if e.Name() != "plain-qoe-abr" {
		t.Fatalf("name %q", e.Name())
	}
}

func TestMaxPredictionError(t *testing.T) {
	if maxPredictionError([]float64{5}, 5) != 0 {
		t.Fatal("single sample")
	}
	e := maxPredictionError([]float64{10, 10, 10, 10}, 5)
	if e > 1e-9 {
		t.Fatalf("constant series error %v", e)
	}
	e2 := maxPredictionError([]float64{10, 20, 5, 40}, 5)
	if e2 <= 0 {
		t.Fatal("volatile series must have positive error")
	}
}

func TestBOLABufferMonotone(t *testing.T) {
	b := NewBOLA()
	prev := -1
	for _, buf := range []float64{0, 2, 5, 8, 12, 20, 30} {
		r := b.SelectRate(mkState(buf, 1e6, 0))
		if r < prev {
			t.Fatalf("BOLA rate decreased with buffer: %d after %d at %vs", r, prev, buf)
		}
		prev = r
	}
	if b.SelectRate(mkState(0.5, 1e6, 0)) != 0 {
		t.Fatal("BOLA must pick the lowest rung with an empty buffer")
	}
	if b.SelectRate(mkState(30, 1e6, 0)) != len(video.Resolutions())-1 {
		t.Fatal("BOLA should reach the top rung with a deep buffer")
	}
}

func TestFixedRateClamps(t *testing.T) {
	if (&FixedRate{Index: 2}).SelectRate(mkState(5, 1e6, 0)) != 2 {
		t.Fatal("fixed rate")
	}
	if (&FixedRate{Index: -1}).SelectRate(mkState(5, 1e6, 0)) != 0 {
		t.Fatal("clamp low")
	}
	if (&FixedRate{Index: 9}).SelectRate(mkState(5, 1e6, 0)) != len(video.Resolutions())-1 {
		t.Fatal("clamp high")
	}
}
