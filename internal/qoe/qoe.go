// Package qoe implements the video quality-of-experience metric from §6:
//
//	QoE = ( Σ R_n − µ·Σ T_n − Σ |R_{n+1} − R_n| ) / N
//
// where R_n is chunk n's (possibly enhancement-adjusted) bitrate utility in
// Mbps, T_n its rebuffering time and µ the rebuffering penalty. It also
// provides the rate↔quality maps (Fig. 4) that let the enhancement-aware
// ABR convert an enhanced PSNR back into an equivalent bitrate utility.
package qoe

import (
	"math"
	"sort"
)

// Params configures the metric.
type Params struct {
	// RebufferPenalty is µ. The MPC literature uses 4.3 for the
	// "linear QoE" variant; the default follows it.
	RebufferPenalty float64
	// SmoothnessPenalty scales the |ΔR| term (1.0 in the paper formula).
	SmoothnessPenalty float64
}

// DefaultParams returns the paper's metric configuration.
func DefaultParams() Params {
	return Params{RebufferPenalty: 4.3, SmoothnessPenalty: 1.0}
}

// Chunk is the per-chunk accounting record.
type Chunk struct {
	Index int
	// BitrateMbps is the ladder rate the chunk was requested at.
	BitrateMbps float64
	// UtilityMbps is the effective quality utility after client-side
	// enhancement, expressed on the bitrate scale (equals BitrateMbps
	// when no enhancement applies).
	UtilityMbps float64
	// RebufferSec is the stall time attributed to this chunk.
	RebufferSec float64
	// Frame accounting (drives Fig. 13b and Table 3).
	FramesTotal     int
	FramesRecovered int
	FramesSR        int
}

// Session accumulates chunks and evaluates QoE.
type Session struct {
	P      Params
	Chunks []Chunk
}

// NewSession returns an empty session with the given parameters.
func NewSession(p Params) *Session { return &Session{P: p} }

// Add appends a chunk record.
func (s *Session) Add(c Chunk) { s.Chunks = append(s.Chunks, c) }

// QoE evaluates the paper's formula over the recorded chunks using the
// utility (enhanced) rates for both the quality and smoothness terms.
func (s *Session) QoE() float64 {
	n := len(s.Chunks)
	if n == 0 {
		return 0
	}
	var rate, rebuf, smooth float64
	for i, c := range s.Chunks {
		u := c.UtilityMbps
		if u == 0 {
			u = c.BitrateMbps
		}
		rate += u
		rebuf += c.RebufferSec
		if i > 0 {
			prev := s.Chunks[i-1].UtilityMbps
			if prev == 0 {
				prev = s.Chunks[i-1].BitrateMbps
			}
			smooth += math.Abs(u - prev)
		}
	}
	return (rate - s.P.RebufferPenalty*rebuf - s.P.SmoothnessPenalty*smooth) / float64(n)
}

// TotalRebuffer returns the summed stall time.
func (s *Session) TotalRebuffer() float64 {
	var t float64
	for _, c := range s.Chunks {
		t += c.RebufferSec
	}
	return t
}

// RateQuality is one (bitrate, PSNR) calibration point.
type RateQuality struct {
	Mbps float64
	PSNR float64
}

// QualityMap is the monotone bitrate↔PSNR mapping of Fig. 4b, built
// offline from the training videos. It supports both directions: the
// forward map predicts delivered quality at a rate; the inverse converts an
// enhanced PSNR into an equivalent bitrate utility.
type QualityMap struct {
	points []RateQuality // ascending Mbps
}

// NewQualityMap builds a map from calibration points (sorted internally).
// At least two points are required for interpolation; fewer points degrade
// to constant extrapolation.
func NewQualityMap(points []RateQuality) *QualityMap {
	ps := append([]RateQuality(nil), points...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Mbps < ps[j].Mbps })
	return &QualityMap{points: ps}
}

// PSNRAt returns the expected delivered PSNR at the given rate.
func (m *QualityMap) PSNRAt(mbps float64) float64 {
	n := len(m.points)
	if n == 0 {
		return 0
	}
	if mbps <= m.points[0].Mbps {
		return m.points[0].PSNR
	}
	if mbps >= m.points[n-1].Mbps {
		return m.points[n-1].PSNR
	}
	i := sort.Search(n, func(i int) bool { return m.points[i].Mbps >= mbps })
	a, b := m.points[i-1], m.points[i]
	f := (mbps - a.Mbps) / (b.Mbps - a.Mbps)
	return a.PSNR + f*(b.PSNR-a.PSNR)
}

// MbpsForPSNR inverts the map: the bitrate whose delivered quality equals
// the given PSNR (clamped to the calibrated range). This is how enhanced
// video quality is expressed as a bitrate utility in the ABR objective.
func (m *QualityMap) MbpsForPSNR(psnr float64) float64 {
	n := len(m.points)
	if n == 0 {
		return 0
	}
	if psnr <= m.points[0].PSNR {
		return m.points[0].Mbps
	}
	if psnr >= m.points[n-1].PSNR {
		return m.points[n-1].Mbps
	}
	for i := 1; i < n; i++ {
		if m.points[i].PSNR >= psnr {
			a, b := m.points[i-1], m.points[i]
			if b.PSNR == a.PSNR {
				return a.Mbps
			}
			f := (psnr - a.PSNR) / (b.PSNR - a.PSNR)
			return a.Mbps + f*(b.Mbps-a.Mbps)
		}
	}
	return m.points[n-1].Mbps
}

// Points returns the calibration points in ascending rate order.
func (m *QualityMap) Points() []RateQuality {
	return append([]RateQuality(nil), m.points...)
}
