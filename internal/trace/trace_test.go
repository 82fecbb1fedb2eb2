package trace

import (
	"encoding/json"
	"math"
	"testing"
)

func TestNetworkTypeStrings(t *testing.T) {
	want := map[NetworkType]string{Net3G: "3G", Net4G: "4G", Net5G: "5G", NetWiFi: "WiFi"}
	for n, s := range want {
		if n.String() != s {
			t.Errorf("%d → %q want %q", n, n.String(), s)
		}
	}
	if len(NetworkTypes()) != 4 {
		t.Fatal("want 4 network types")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Net5G, 60, 42)
	b := Generate(Net5G, 60, 42)
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("lengths differ")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
	c := Generate(Net5G, 60, 43)
	same := true
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateMatchesProfileMean(t *testing.T) {
	for _, n := range NetworkTypes() {
		tr := Generate(n, 300, 7)
		mean, loss := profiles[n].meanMbps, profiles[n].lossMean
		st := tr.Stat()
		if math.Abs(st.AvgThroughput-mean*1e6) > 1 {
			t.Errorf("%v: mean %v want %v", n, st.AvgThroughput, mean*1e6)
		}
		if st.AvgLossRate < loss*0.3 || st.AvgLossRate > loss*4 {
			t.Errorf("%v: loss %v want ≈%v", n, st.AvgLossRate, loss)
		}
	}
}

func Test5GMostVariable(t *testing.T) {
	cv := map[NetworkType]float64{}
	for _, n := range NetworkTypes() {
		var sum float64
		for s := int64(0); s < 5; s++ {
			sum += Generate(n, 300, 100+s).Stat().ThroughputCV
		}
		cv[n] = sum / 5
	}
	for _, n := range []NetworkType{Net3G, Net4G, NetWiFi} {
		if cv[Net5G] <= cv[n] {
			t.Errorf("5G CV %v not above %v CV %v", cv[Net5G], n, cv[n])
		}
	}
}

func TestCorpusMatchesTable2(t *testing.T) {
	corpus := GenerateCorpus(1)
	wantCounts := map[NetworkType]int{Net3G: 45, Net4G: 62, Net5G: 53, NetWiFi: 68}
	for n, want := range wantCounts {
		if got := len(corpus[n]); got != want {
			t.Errorf("%v count=%d want %d", n, got, want)
		}
		agg := Aggregate(corpus[n])
		meanMbps, dur := profiles[n].meanMbps, profiles[n].durMean
		if math.Abs(agg.AvgDuration-dur) > dur*0.12 {
			t.Errorf("%v duration %v want ≈%v", n, agg.AvgDuration, dur)
		}
		if math.Abs(agg.AvgThroughput-meanMbps*1e6) > meanMbps*1e6*0.05 {
			t.Errorf("%v throughput %v want ≈%v Mbps", n, agg.AvgThroughput/1e6, meanMbps)
		}
	}
	// Loss ordering from Table 2: WiFi < 3G < 4G < 5G.
	loss := func(n NetworkType) float64 { return Aggregate(corpus[n]).AvgLossRate }
	if !(loss(NetWiFi) < loss(Net3G) && loss(Net3G) < loss(Net4G) && loss(Net4G) < loss(Net5G)) {
		t.Errorf("loss ordering wrong: wifi=%v 3g=%v 4g=%v 5g=%v",
			loss(NetWiFi), loss(Net3G), loss(Net4G), loss(Net5G))
	}
}

func TestLookupsAndWrap(t *testing.T) {
	tr := Generate(Net4G, 10, 3)
	if tr.ThroughputAt(0) != tr.Samples[0].ThroughputBps {
		t.Fatal("ThroughputAt(0)")
	}
	if tr.ThroughputAt(10.5) != tr.Samples[0].ThroughputBps {
		t.Fatal("cyclic wrap failed")
	}
	if tr.LossAt(3.2) != tr.Samples[3].LossRate {
		t.Fatal("LossAt")
	}
	if tr.RTTAt(9.9) != tr.Samples[9].RTTSeconds {
		t.Fatal("RTTAt")
	}
	var empty Trace
	if empty.ThroughputAt(1) != 0 || empty.LossAt(1) != 0 || empty.RTTAt(1) != 0 {
		t.Fatal("empty trace lookups must be zero")
	}
}

func TestScale(t *testing.T) {
	tr := Generate(Net3G, 20, 5)
	sc := tr.Scale(0.5)
	for i := range tr.Samples {
		if math.Abs(sc.Samples[i].ThroughputBps-tr.Samples[i].ThroughputBps*0.5) > 1e-6 {
			t.Fatal("scale wrong")
		}
		if sc.Samples[i].LossRate != tr.Samples[i].LossRate {
			t.Fatal("scale must not touch loss")
		}
	}
	// Original unchanged.
	if tr.Samples[0].ThroughputBps == sc.Samples[0].ThroughputBps {
		t.Fatal("Scale must copy")
	}
}

func TestDownscale(t *testing.T) {
	tr := Generate(Net5G, 300, 9)
	ds := tr.Downscale(1.5e6, 0.3e6, 5e6)
	st := ds.Stat()
	if st.AvgThroughput < 0.8e6 || st.AvgThroughput > 2.2e6 {
		t.Fatalf("downscaled mean %v not ≈1.5 Mbps", st.AvgThroughput)
	}
	for _, s := range ds.Samples {
		if s.ThroughputBps < 0.3e6-1 || s.ThroughputBps > 5e6+1 {
			t.Fatalf("sample %v outside clamp", s.ThroughputBps)
		}
	}
	// Fluctuation survives downscaling.
	if st.ThroughputCV < 0.05 {
		t.Fatalf("downscaled trace lost its fluctuation: CV=%v", st.ThroughputCV)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := Generate(NetWiFi, 5, 11)
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || back.Net != tr.Net || len(back.Samples) != len(tr.Samples) {
		t.Fatal("metadata lost in round trip")
	}
	for i := range tr.Samples {
		if back.Samples[i] != tr.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestAggregateEmpty(t *testing.T) {
	if st := Aggregate(nil); st.Count != 0 {
		t.Fatal("empty aggregate")
	}
}

func TestStatCV(t *testing.T) {
	tr := &Trace{Interval: 1, Samples: []Sample{
		{ThroughputBps: 1e6}, {ThroughputBps: 1e6},
	}}
	if cv := tr.Stat().ThroughputCV; cv != 0 {
		t.Fatalf("constant trace CV=%v", cv)
	}
}
