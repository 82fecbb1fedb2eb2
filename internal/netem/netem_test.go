package netem

import (
	"math"
	"math/rand"
	"testing"

	"nerve/internal/trace"
)

func flatTrace(bps, loss, rtt float64, secs int) *trace.Trace {
	tr := &trace.Trace{Name: "flat", Interval: 1, Samples: make([]trace.Sample, secs)}
	for i := range tr.Samples {
		tr.Samples[i] = trace.Sample{ThroughputBps: bps, LossRate: loss, RTTSeconds: rtt}
	}
	return tr
}

// coinLoss drops each packet independently with the target probability.
type coinLoss struct{ rng *rand.Rand }

func (c coinLoss) Drop(_, target float64) bool { return c.rng.Float64() < target }

func newCoinLoss(seed int64) coinLoss { return coinLoss{rand.New(rand.NewSource(seed))} }

func TestClockOrdering(t *testing.T) {
	var c Clock
	var got []int
	c.Schedule(2, func() { got = append(got, 2) })
	c.Schedule(1, func() { got = append(got, 1) })
	c.Schedule(3, func() { got = append(got, 3) })
	c.RunUntilIdle()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order %v", got)
	}
	if c.Now() != 3 {
		t.Fatalf("Now=%v", c.Now())
	}
}

func TestClockFIFOAtSameTime(t *testing.T) {
	var c Clock
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		c.Schedule(1, func() { got = append(got, i) })
	}
	c.RunUntilIdle()
	for i, v := range got {
		if v != i {
			t.Fatalf("not FIFO: %v", got)
		}
	}
}

func TestClockRunUntil(t *testing.T) {
	var c Clock
	ran := 0
	c.Schedule(1, func() { ran++ })
	c.Schedule(5, func() { ran++ })
	c.RunUntil(2)
	if ran != 1 {
		t.Fatalf("ran=%d", ran)
	}
	if c.Now() != 2 {
		t.Fatalf("Now=%v", c.Now())
	}
	c.RunUntilIdle()
	if ran != 2 || c.Now() != 5 {
		t.Fatalf("ran=%d now=%v", ran, c.Now())
	}
}

func TestClockNestedScheduling(t *testing.T) {
	var c Clock
	hits := 0
	c.Schedule(1, func() {
		hits++
		c.Schedule(1, func() { hits++ })
	})
	c.RunUntilIdle()
	if hits != 2 || c.Now() != 2 {
		t.Fatalf("hits=%d now=%v", hits, c.Now())
	}
}

func TestNegativeDelayRunsNow(t *testing.T) {
	var c Clock
	c.Schedule(5, func() {})
	c.Step()
	ran := false
	c.Schedule(-1, func() { ran = true })
	c.Step()
	if !ran || c.Now() != 5 {
		t.Fatalf("ran=%v now=%v", ran, c.Now())
	}
}

func TestLinkSerialisation(t *testing.T) {
	var c Clock
	tr := flatTrace(8000, 0, 0.1, 100) // 1000 B/s, RTT 100 ms
	l := NewLink(&c, tr, nil)
	var arrivals []float64
	for i := 0; i < 3; i++ {
		l.Send(500, func() { arrivals = append(arrivals, c.Now()) })
	}
	c.RunUntilIdle()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals=%d", len(arrivals))
	}
	// 500 B at 1000 B/s = 0.5 s tx each, plus 0.05 s propagation.
	want := []float64{0.55, 1.05, 1.55}
	for i := range want {
		if math.Abs(arrivals[i]-want[i]) > 1e-9 {
			t.Fatalf("arrival %d = %v want %v", i, arrivals[i], want[i])
		}
	}
}

func TestLinkQueueOverflow(t *testing.T) {
	var c Clock
	tr := flatTrace(8000, 0, 0, 100)
	l := NewLink(&c, tr, nil)
	l.MaxQueueDelay = 1
	delivered := 0
	sent := 0
	for i := 0; i < 10; i++ {
		if l.Send(500, func() { delivered++ }) {
			sent++
		}
	}
	c.RunUntilIdle()
	// Each packet takes 0.5 s to serialise; only ~3 fit within 1 s queue.
	if l.QueueDropped == 0 {
		t.Fatal("no queue drops")
	}
	if delivered != sent {
		t.Fatalf("delivered=%d accepted=%d", delivered, sent)
	}
	if delivered >= 10 {
		t.Fatal("queue cap had no effect")
	}
}

func TestGilbertElliottMatchesTarget(t *testing.T) {
	g := NewGilbertElliott(1)
	const n = 200000
	for _, target := range []float64{0.01, 0.05} {
		drops := 0
		for i := 0; i < n; i++ {
			if g.Drop(0, target) {
				drops++
			}
		}
		got := float64(drops) / n
		if got < target*0.6 || got > target*1.6 {
			t.Fatalf("target %v got %v", target, got)
		}
	}
}

func TestGilbertElliottBursty(t *testing.T) {
	// Measure mean run length of drops; must exceed the ≈1 of independent
	// losses.
	g := NewGilbertElliott(2)
	const n = 300000
	runs, runLen, cur := 0, 0, 0
	for i := 0; i < n; i++ {
		if g.Drop(0, 0.03) {
			cur++
		} else if cur > 0 {
			runs++
			runLen += cur
			cur = 0
		}
	}
	if runs == 0 {
		t.Fatal("no loss runs")
	}
	mean := float64(runLen) / float64(runs)
	if mean < 1.5 {
		t.Fatalf("GE losses not bursty: mean run %v", mean)
	}
}

func TestGilbertElliottZeroTarget(t *testing.T) {
	g := NewGilbertElliott(3)
	for i := 0; i < 1000; i++ {
		if g.Drop(0, 0) {
			t.Fatal("dropped at zero loss")
		}
	}
}

func TestLinkLossApplied(t *testing.T) {
	var c Clock
	tr := flatTrace(1e7, 0.5, 0.01, 100)
	l := NewLink(&c, tr, newCoinLoss(5))
	delivered := 0
	for i := 0; i < 2000; i++ {
		l.Send(100, func() { delivered++ })
	}
	c.RunUntilIdle()
	if l.Dropped == 0 {
		t.Fatal("no losses at 50% loss rate")
	}
	frac := float64(delivered) / 2000
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("delivered fraction %v, want ≈0.5", frac)
	}
}

func TestLinkDisableLoss(t *testing.T) {
	var c Clock
	tr := flatTrace(1e7, 0.5, 0.01, 100)
	l := NewLink(&c, tr, newCoinLoss(6))
	l.DisableLoss = true
	delivered := 0
	for i := 0; i < 500; i++ {
		l.Send(100, func() { delivered++ })
	}
	c.RunUntilIdle()
	if delivered != 500 {
		t.Fatalf("delivered=%d with loss disabled", delivered)
	}
}

func TestFluidDownload(t *testing.T) {
	tr := flatTrace(1e6, 0, 0.05, 1000)    // 1 Mbps
	finish := FluidDownload(tr, 0, 125000) // 1 Mbit
	if math.Abs(finish-1.0) > 0.1 {
		t.Fatalf("finish=%v want ≈1 s", finish)
	}
	// Start offset shifts the result.
	finish2 := FluidDownload(tr, 10, 125000)
	if math.Abs(finish2-11.0) > 0.1 {
		t.Fatalf("finish2=%v want ≈11 s", finish2)
	}
}

func TestFluidDownloadVariableRate(t *testing.T) {
	tr := &trace.Trace{Interval: 1, Samples: []trace.Sample{
		{ThroughputBps: 1e6}, {ThroughputBps: 0}, {ThroughputBps: 1e6},
	}}
	// 1 Mbit: ~1 s of transfer but with a 1 s stall in the middle if
	// started mid-first-second.
	finish := FluidDownload(tr, 0.5, 125000)
	if finish < 1.9 {
		t.Fatalf("stall not modelled: finish=%v", finish)
	}
}
