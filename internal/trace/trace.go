// Package trace models network traces: time series of throughput, packet
// loss rate and RTT sampled at a fixed interval. Because the paper's
// measured QUIC traces are not available, the package includes a
// Markov-modulated synthetic generator whose per-network-type parameters
// are calibrated to the aggregate statistics the paper reports in Table 2
// (counts, durations, mean throughput, loss rates) and to its qualitative
// observation that 5G traces fluctuate the most (§8.3, Fig. 13a).
package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// NetworkType identifies the access-network family of a trace.
type NetworkType int

const (
	Net3G NetworkType = iota
	Net4G
	Net5G
	NetWiFi
	numNetworkTypes
)

// NetworkTypes returns all network types in presentation order.
func NetworkTypes() []NetworkType { return []NetworkType{Net3G, Net4G, Net5G, NetWiFi} }

func (n NetworkType) String() string {
	switch n {
	case Net3G:
		return "3G"
	case Net4G:
		return "4G"
	case Net5G:
		return "5G"
	case NetWiFi:
		return "WiFi"
	default:
		return fmt.Sprintf("NetworkType(%d)", int(n))
	}
}

// Sample is one measurement point.
type Sample struct {
	ThroughputBps float64 `json:"bps"`
	LossRate      float64 `json:"loss"`
	RTTSeconds    float64 `json:"rtt"`
}

// Trace is a uniformly sampled network time series.
type Trace struct {
	Name     string      `json:"name"`
	Net      NetworkType `json:"net"`
	Interval float64     `json:"interval"` // seconds between samples
	Samples  []Sample    `json:"samples"`
}

// Duration returns the trace length in seconds.
func (t *Trace) Duration() float64 { return float64(len(t.Samples)) * t.Interval }

// index maps time to a sample index, wrapping so that traces can be
// replayed cyclically for sessions longer than the capture.
func (t *Trace) index(at float64) int {
	if len(t.Samples) == 0 {
		return -1
	}
	i := int(at / t.Interval)
	i %= len(t.Samples)
	if i < 0 {
		i += len(t.Samples)
	}
	return i
}

// ThroughputAt returns the available bandwidth at time `at` (step
// interpolation, cyclic).
func (t *Trace) ThroughputAt(at float64) float64 {
	i := t.index(at)
	if i < 0 {
		return 0
	}
	return t.Samples[i].ThroughputBps
}

// LossAt returns the packet loss rate at time `at`.
func (t *Trace) LossAt(at float64) float64 {
	i := t.index(at)
	if i < 0 {
		return 0
	}
	return t.Samples[i].LossRate
}

// RTTAt returns the round-trip time at time `at` in seconds.
func (t *Trace) RTTAt(at float64) float64 {
	i := t.index(at)
	if i < 0 {
		return 0
	}
	return t.Samples[i].RTTSeconds
}

// Stats summarises a trace (or corpus).
type Stats struct {
	Count         int
	AvgDuration   float64 // seconds
	AvgThroughput float64 // bits per second
	AvgLossRate   float64
	ThroughputCV  float64 // coefficient of variation of throughput
	AvgRTT        float64
}

// Stat computes the statistics of a single trace.
func (t *Trace) Stat() Stats {
	s := Stats{Count: 1, AvgDuration: t.Duration()}
	if len(t.Samples) == 0 {
		return s
	}
	var sum, sumSq, loss, rtt float64
	for _, smp := range t.Samples {
		sum += smp.ThroughputBps
		sumSq += smp.ThroughputBps * smp.ThroughputBps
		loss += smp.LossRate
		rtt += smp.RTTSeconds
	}
	n := float64(len(t.Samples))
	mean := sum / n
	s.AvgThroughput = mean
	s.AvgLossRate = loss / n
	s.AvgRTT = rtt / n
	varr := sumSq/n - mean*mean
	if varr > 0 && mean > 0 {
		s.ThroughputCV = math.Sqrt(varr) / mean
	}
	return s
}

// Aggregate combines per-trace statistics into corpus statistics.
func Aggregate(traces []*Trace) Stats {
	var out Stats
	if len(traces) == 0 {
		return out
	}
	for _, t := range traces {
		st := t.Stat()
		out.AvgDuration += st.AvgDuration
		out.AvgThroughput += st.AvgThroughput
		out.AvgLossRate += st.AvgLossRate
		out.ThroughputCV += st.ThroughputCV
		out.AvgRTT += st.AvgRTT
	}
	n := float64(len(traces))
	out.Count = len(traces)
	out.AvgDuration /= n
	out.AvgThroughput /= n
	out.AvgLossRate /= n
	out.ThroughputCV /= n
	out.AvgRTT /= n
	return out
}

// Scale returns a copy of the trace with throughput multiplied by factor.
func (t *Trace) Scale(factor float64) *Trace {
	out := &Trace{Name: t.Name, Net: t.Net, Interval: t.Interval, Samples: make([]Sample, len(t.Samples))}
	copy(out.Samples, t.Samples)
	for i := range out.Samples {
		out.Samples[i].ThroughputBps *= factor
	}
	return out
}

// Downscale rescales the trace so its mean throughput equals targetMeanBps
// and clamps samples into [minBps, maxBps] — the §8.3 procedure that maps
// measured traces into the range spanned by the bitrate ladder. Relative
// fluctuation is preserved up to clamping.
func (t *Trace) Downscale(targetMeanBps, minBps, maxBps float64) *Trace {
	st := t.Stat()
	factor := 1.0
	if st.AvgThroughput > 0 {
		factor = targetMeanBps / st.AvgThroughput
	}
	out := t.Scale(factor)
	for i := range out.Samples {
		v := out.Samples[i].ThroughputBps
		if v < minBps {
			v = minBps
		} else if v > maxBps {
			v = maxBps
		}
		out.Samples[i].ThroughputBps = v
	}
	return out
}

// profile holds the synthetic-generator parameters of one network type.
type profile struct {
	meanMbps   float64 // Table 2 average throughput
	sigma      float64 // log-domain AR(1) innovation (fluctuation)
	phi        float64 // AR(1) mean reversion
	lossMean   float64 // Table 2 average loss rate
	lossBurstP float64 // probability of entering a loss burst per sample
	lossBurstQ float64 // probability of leaving a burst per sample
	burstLoss  float64 // loss rate inside a burst
	rtt        float64 // seconds
	durMean    float64 // Table 2 average duration (seconds)
	count      int     // Table 2 trace count
}

// profiles is calibrated to Table 2: 3G 45×322s 7.5Mbps 0.9%; 4G 62×317s
// 21.6Mbps 1.3%; 5G 53×302s 36.4Mbps 1.6%; WiFi 68×309s 82.3Mbps 0.5%.
// 5G gets the largest sigma (largest fluctuation, §8.3).
var profiles = [numNetworkTypes]profile{
	Net3G:   {meanMbps: 7.5, sigma: 0.18, phi: 0.12, lossMean: 0.009, lossBurstP: 0.010, lossBurstQ: 0.35, burstLoss: 0.08, rtt: 0.120, durMean: 322, count: 45},
	Net4G:   {meanMbps: 21.6, sigma: 0.28, phi: 0.10, lossMean: 0.013, lossBurstP: 0.014, lossBurstQ: 0.30, burstLoss: 0.10, rtt: 0.060, durMean: 317, count: 62},
	Net5G:   {meanMbps: 36.4, sigma: 0.62, phi: 0.06, lossMean: 0.016, lossBurstP: 0.07, lossBurstQ: 0.25, burstLoss: 0.12, rtt: 0.040, durMean: 302, count: 53},
	NetWiFi: {meanMbps: 82.3, sigma: 0.24, phi: 0.10, lossMean: 0.005, lossBurstP: 0.008, lossBurstQ: 0.40, burstLoss: 0.06, rtt: 0.020, durMean: 309, count: 68},
}

// Generate synthesises one trace of the given type and duration (seconds)
// at 1 Hz sampling. The process is AR(1) in the log-throughput domain with
// a two-state Gilbert loss modulator; it is deterministic in seed.
func Generate(n NetworkType, durSeconds float64, seed int64) *Trace {
	p := profiles[n]
	rng := rand.New(rand.NewSource(seed))
	samples := int(durSeconds)
	if samples < 1 {
		samples = 1
	}
	t := &Trace{
		Name:     fmt.Sprintf("%s-%d", n, seed),
		Net:      n,
		Interval: 1,
		Samples:  make([]Sample, samples),
	}
	logMean := math.Log(p.meanMbps * 1e6)
	x := logMean + rng.NormFloat64()*p.sigma
	inBurst := false
	inFade := false
	for i := 0; i < samples; i++ {
		x += p.phi*(logMean-x) + rng.NormFloat64()*p.sigma
		// Deep multi-second fades (handoffs, blockage) — more common and
		// deeper on the networks the paper reports as most variable.
		if inFade {
			if rng.Float64() < 0.4 {
				inFade = false
			}
		} else if rng.Float64() < p.lossBurstP {
			inFade = true
		}
		bw := math.Exp(x)
		if inFade {
			bw *= 0.25
		}
		if inBurst {
			if rng.Float64() < p.lossBurstQ {
				inBurst = false
			}
		} else if rng.Float64() < p.lossBurstP {
			inBurst = true
		}
		loss := p.lossMean * (0.4 + 0.9*rng.Float64())
		if inBurst {
			loss = p.burstLoss * (0.6 + 0.8*rng.Float64())
		}
		rtt := p.rtt * (0.85 + 0.3*rng.Float64())
		if inBurst {
			rtt *= 2 // loss episodes come with latency inflation
		}
		t.Samples[i] = Sample{ThroughputBps: bw, LossRate: loss, RTTSeconds: rtt}
	}
	// Normalise the means to the profile targets so Table 2 reproduces
	// tightly even for short traces.
	st := t.Stat()
	if st.AvgThroughput > 0 {
		f := p.meanMbps * 1e6 / st.AvgThroughput
		for i := range t.Samples {
			t.Samples[i].ThroughputBps *= f
		}
	}
	if st.AvgLossRate > 0 {
		f := p.lossMean / st.AvgLossRate
		for i := range t.Samples {
			t.Samples[i].LossRate *= f
		}
	}
	return t
}

// GenerateCorpus produces the full Table 2 corpus: the paper's per-type
// trace counts with durations jittered around the per-type mean.
func GenerateCorpus(seed int64) map[NetworkType][]*Trace {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[NetworkType][]*Trace, numNetworkTypes)
	for _, n := range NetworkTypes() {
		p := profiles[n]
		traces := make([]*Trace, p.count)
		for i := range traces {
			dur := p.durMean * (0.85 + 0.3*rng.Float64())
			traces[i] = Generate(n, dur, rng.Int63())
		}
		out[n] = traces
	}
	return out
}
