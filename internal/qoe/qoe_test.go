package qoe

import (
	"math"
	"testing"
)

func TestQoEFormula(t *testing.T) {
	s := NewSession(Params{RebufferPenalty: 4.3, SmoothnessPenalty: 1})
	s.Add(Chunk{BitrateMbps: 1.0})
	s.Add(Chunk{BitrateMbps: 2.0, RebufferSec: 0.5})
	s.Add(Chunk{BitrateMbps: 1.0})
	// (1+2+1 − 4.3·0.5 − (|2−1|+|1−2|)) / 3 = (4 − 2.15 − 2)/3
	want := (4.0 - 2.15 - 2.0) / 3
	if got := s.QoE(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("QoE=%v want %v", got, want)
	}
}

func TestQoEUsesUtilityWhenSet(t *testing.T) {
	s := NewSession(DefaultParams())
	s.Add(Chunk{BitrateMbps: 1.0, UtilityMbps: 2.5})
	if got := s.QoE(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("QoE=%v want 2.5 (utility overrides bitrate)", got)
	}
}

func TestQoEEmpty(t *testing.T) {
	if got := NewSession(DefaultParams()).QoE(); got != 0 {
		t.Fatalf("empty QoE=%v", got)
	}
}

func TestRebufferHurtsQoE(t *testing.T) {
	base := NewSession(DefaultParams())
	stall := NewSession(DefaultParams())
	for i := 0; i < 5; i++ {
		base.Add(Chunk{BitrateMbps: 2})
		stall.Add(Chunk{BitrateMbps: 2, RebufferSec: 0.2})
	}
	if stall.QoE() >= base.QoE() {
		t.Fatal("rebuffering did not reduce QoE")
	}
	if got := stall.TotalRebuffer(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("TotalRebuffer=%v", got)
	}
}

func TestSmoothnessHurtsQoE(t *testing.T) {
	smooth := NewSession(DefaultParams())
	jumpy := NewSession(DefaultParams())
	rates := []float64{2, 2, 2, 2}
	jumps := []float64{1, 3, 1, 3} // same mean
	for i := range rates {
		smooth.Add(Chunk{BitrateMbps: rates[i]})
		jumpy.Add(Chunk{BitrateMbps: jumps[i]})
	}
	if jumpy.QoE() >= smooth.QoE() {
		t.Fatal("rate oscillation did not reduce QoE")
	}
}

func qualityMap() *QualityMap {
	return NewQualityMap([]RateQuality{
		{Mbps: 0.512, PSNR: 30},
		{Mbps: 1.024, PSNR: 33},
		{Mbps: 1.6, PSNR: 35},
		{Mbps: 2.64, PSNR: 37},
		{Mbps: 4.4, PSNR: 39},
	})
}

func TestQualityMapForward(t *testing.T) {
	m := qualityMap()
	if got := m.PSNRAt(1.024); math.Abs(got-33) > 1e-12 {
		t.Fatalf("exact point: %v", got)
	}
	mid := m.PSNRAt(1.312) // halfway 1.024→1.6
	if math.Abs(mid-34) > 1e-9 {
		t.Fatalf("interpolated: %v", mid)
	}
	if m.PSNRAt(0.1) != 30 || m.PSNRAt(100) != 39 {
		t.Fatal("clamping failed")
	}
}

func TestQualityMapInverse(t *testing.T) {
	m := qualityMap()
	for _, p := range m.Points() {
		if got := m.MbpsForPSNR(p.PSNR); math.Abs(got-p.Mbps) > 1e-9 {
			t.Fatalf("inverse at %v: %v want %v", p.PSNR, got, p.Mbps)
		}
	}
	// Round trip at an interior point.
	rate := 2.0
	if got := m.MbpsForPSNR(m.PSNRAt(rate)); math.Abs(got-rate) > 1e-9 {
		t.Fatalf("round trip: %v", got)
	}
	// Enhanced PSNR above the table caps at the top rate: enhancement
	// cannot claim more utility than the best ladder rung.
	if got := m.MbpsForPSNR(50); got != 4.4 {
		t.Fatalf("cap: %v", got)
	}
}

func TestQualityMapUnsorted(t *testing.T) {
	m := NewQualityMap([]RateQuality{{Mbps: 4, PSNR: 38}, {Mbps: 1, PSNR: 30}})
	if m.PSNRAt(1) != 30 {
		t.Fatal("sorting failed")
	}
}

func TestQualityMapEmpty(t *testing.T) {
	m := NewQualityMap(nil)
	if m.PSNRAt(1) != 0 || m.MbpsForPSNR(30) != 0 {
		t.Fatal("empty map must return zeros")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.RebufferPenalty != 4.3 || p.SmoothnessPenalty != 1 {
		t.Fatalf("defaults %+v", p)
	}
}
