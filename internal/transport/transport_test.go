package transport

import (
	"math"
	"testing"

	"nerve/internal/netem"
	"nerve/internal/trace"
)

func flatTrace(bps, loss, rtt float64, secs int) *trace.Trace {
	tr := &trace.Trace{Name: "flat", Interval: 1, Samples: make([]trace.Sample, secs)}
	for i := range tr.Samples {
		tr.Samples[i] = trace.Sample{ThroughputBps: bps, LossRate: loss, RTTSeconds: rtt}
	}
	return tr
}

// dropAll is a loss model that loses every packet.
type dropAll struct{}

func (dropAll) Drop(_, _ float64) bool { return true }

func newTestConn(bps, loss, rtt float64, seed int64) (*Conn, *netem.Clock) {
	clock := &netem.Clock{}
	fwd := netem.NewLink(clock, flatTrace(bps, loss, rtt, 3600), netem.NewGilbertElliott(seed))
	rev := netem.NewLink(clock, flatTrace(bps, 0, rtt, 3600), nil)
	return NewConn(clock, fwd, rev), clock
}

func TestSendDatagramLossless(t *testing.T) {
	c, clock := newTestConn(1e6, 0, 0.05, 1)
	var at float64 = -1
	c.SendDatagram(1000, func(a float64) { at = a })
	clock.RunUntilIdle()
	if at < 0 {
		t.Fatal("datagram not delivered")
	}
	// tx ≈ (1000+28)*8/1e6 ≈ 8.2 ms + 25 ms propagation.
	if math.Abs(at-0.0332) > 0.005 {
		t.Fatalf("arrival %v, want ≈33 ms", at)
	}
}

func TestSendReliableDeliversDespiteLoss(t *testing.T) {
	c, clock := newTestConn(5e6, 0.3, 0.04, 2)
	delivered := 0
	for i := 0; i < 100; i++ {
		c.SendReliable(1000, func(at float64, ok bool, attempts int) {
			if ok {
				delivered++
			}
		})
	}
	clock.RunUntilIdle()
	if delivered != 100 {
		t.Fatalf("delivered %d/100 at 30%% loss", delivered)
	}
	if c.Retx == 0 {
		t.Fatal("no retransmissions at 30% loss")
	}
}

func TestSendReliableCallbackOnce(t *testing.T) {
	c, clock := newTestConn(5e6, 0.5, 0.02, 3)
	calls := 0
	c.SendReliable(500, func(at float64, ok bool, attempts int) { calls++ })
	clock.RunUntilIdle()
	if calls != 1 {
		t.Fatalf("callback ran %d times", calls)
	}
}

func TestSendReliableGivesUp(t *testing.T) {
	// 100% loss: must report failure after MaxAttempts.
	clock := &netem.Clock{}
	// GE caps at BadLoss; dropAll loses every packet.
	fwd := netem.NewLink(clock, flatTrace(1e6, 1.0, 0.02, 3600), dropAll{})
	rev := netem.NewLink(clock, flatTrace(1e6, 0, 0.02, 3600), nil)
	c := NewConn(clock, fwd, rev)
	c.MaxAttempts = 3
	var gotOK *bool
	c.SendReliable(500, func(at float64, ok bool, attempts int) {
		gotOK = &ok
		if attempts != 3 {
			t.Errorf("attempts=%d want 3", attempts)
		}
	})
	clock.RunUntilIdle()
	if gotOK == nil {
		t.Fatal("callback never ran")
	}
	if *gotOK {
		t.Fatal("reported success under total loss")
	}
}

func TestReliableLatencyAboutOneRTT(t *testing.T) {
	// The binary point code (1 KB) should arrive in ≈½RTT+tx on a clean
	// link — the paper's "within one RTT" side-channel property.
	c, clock := newTestConn(10e6, 0, 0.1, 2)
	var at float64
	c.SendReliable(1024, func(a float64, ok bool, _ int) { at = a })
	clock.RunUntilIdle()
	if at > 0.1 {
		t.Fatalf("side channel took %v, want < 1 RTT", at)
	}
}

func TestTransferAllArrivalsRecorded(t *testing.T) {
	c, clock := newTestConn(2e6, 0.05, 0.04, 5)
	sizes := make([]int, 40)
	for i := range sizes {
		sizes[i] = 1100
	}
	var res *TransferResult
	c.Transfer(sizes, func(r *TransferResult) { res = r })
	clock.RunUntilIdle()
	if res == nil {
		t.Fatal("transfer never completed")
	}
	if !res.Complete() {
		t.Fatalf("failed packets: %d", res.Failed)
	}
	prevDone := 0.0
	lost := 0
	for i, a := range res.Arrival {
		if math.IsInf(a, 1) {
			t.Fatalf("packet %d has no arrival", i)
		}
		if a > res.Done+1e-9 {
			t.Fatalf("arrival %v after done %v", a, res.Done)
		}
		if a > prevDone {
			prevDone = a
		}
		if res.FirstTxLost[i] {
			lost++
		}
	}
	if math.Abs(prevDone-res.Done) > 1e-9 {
		t.Fatalf("Done %v != last arrival %v", res.Done, prevDone)
	}
	if lost == 0 && res.Retransmissions > 0 {
		t.Fatal("retransmissions recorded but no FirstTxLost")
	}
}

func TestTransferThroughputBound(t *testing.T) {
	// 100 KB over a 1 Mbps lossless link must take ≈0.8 s + RTT, and the
	// windowing must keep the link busy (not one-packet-at-a-time).
	c, clock := newTestConn(1e6, 0, 0.05, 10)
	sizes := make([]int, 100)
	for i := range sizes {
		sizes[i] = 1000
	}
	var res *TransferResult
	c.Transfer(sizes, func(r *TransferResult) { res = r })
	clock.RunUntilIdle()
	ideal := float64(100*(1000+HeaderSize)*8) / 1e6
	if res.Done < ideal {
		t.Fatalf("finished faster than the link allows: %v < %v", res.Done, ideal)
	}
	if res.Done > ideal*1.5+0.2 {
		t.Fatalf("windowed transfer too slow: %v vs ideal %v", res.Done, ideal)
	}
}

func TestTransferEmpty(t *testing.T) {
	c, clock := newTestConn(1e6, 0, 0.05, 1)
	done := false
	c.Transfer(nil, func(r *TransferResult) {
		done = true
		if len(r.Arrival) != 0 || !r.Complete() {
			t.Error("empty transfer result malformed")
		}
	})
	clock.RunUntilIdle()
	if !done {
		t.Fatal("empty transfer never completed")
	}
}

func TestTransferFirstTxLostTracksLoss(t *testing.T) {
	c, clock := newTestConn(5e6, 0.2, 0.03, 7)
	sizes := make([]int, 200)
	for i := range sizes {
		sizes[i] = 1100
	}
	var res *TransferResult
	c.Transfer(sizes, func(r *TransferResult) { res = r })
	clock.RunUntilIdle()
	lost := 0
	for _, l := range res.FirstTxLost {
		if l {
			lost++
		}
	}
	frac := float64(lost) / 200
	if frac < 0.05 || frac > 0.5 {
		t.Fatalf("first-tx loss fraction %v not near 20%%", frac)
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	c, clock := newTestConn(1e8, 0, 0.2, 5) // huge bw, long RTT
	c.Window = 4
	sizes := make([]int, 16)
	for i := range sizes {
		sizes[i] = 100
	}
	var res *TransferResult
	c.Transfer(sizes, func(r *TransferResult) { res = r })
	clock.RunUntilIdle()
	// With window 4 and RTT 0.2 s, 16 packets need ≥ 4 round trips of
	// ~0.1 s one-way latency each ≈ 0.4 s; an unlimited window would
	// finish in ~0.1 s.
	if res.Done < 0.35 {
		t.Fatalf("window not enforced: done=%v", res.Done)
	}
}

func TestLocalQueueDropRetriesFast(t *testing.T) {
	// A packet rejected by the local queue-overflow guard must not wait
	// out a full PTO (≈0.19 s here): the drop is known locally, so the
	// retry fires as soon as the backlog drains below the cap.
	clock := &netem.Clock{}
	fwd := netem.NewLink(clock, flatTrace(1e6, 0, 0.1, 3600), nil)
	fwd.MaxQueueDelay = 0.01
	rev := netem.NewLink(clock, flatTrace(1e6, 0, 0.1, 3600), nil)
	c := NewConn(clock, fwd, rev)
	// 2500 B at 1 Mbps = 20 ms of backlog, over the 10 ms cap.
	if !fwd.Send(2500, func() {}) {
		t.Fatal("backlog packet itself dropped")
	}
	var at float64 = -1
	okAttempt := 0
	c.SendReliable(1000, func(a float64, ok bool, attempt int) {
		if !ok {
			t.Fatal("gave up on a lossless link")
		}
		at, okAttempt = a, attempt
	})
	clock.RunUntilIdle()
	if c.LocalDrops != 1 {
		t.Fatalf("LocalDrops=%d want 1", c.LocalDrops)
	}
	if okAttempt != 2 {
		t.Fatalf("delivered on attempt %d, want 2", okAttempt)
	}
	// Queue drains to the cap at 10 ms, retry ≈11 ms, tx ≈8 ms behind the
	// backlog, prop 50 ms → ≈78 ms. The old PTO-driven retry could not
	// deliver before ≈0.24 s.
	if at < 0 || at > 0.15 {
		t.Fatalf("local-drop retry delivered at %v, want well under a PTO", at)
	}
}

func TestLocalDropsCountedSeparatelyFromWireLoss(t *testing.T) {
	// Wire loss (no queue overflow) must not touch LocalDrops.
	c, clock := newTestConn(5e6, 0.3, 0.04, 2)
	for i := 0; i < 50; i++ {
		c.SendReliable(1000, func(float64, bool, int) {})
	}
	clock.RunUntilIdle()
	if c.LocalDrops != 0 {
		t.Fatalf("LocalDrops=%d on an uncongested link", c.LocalDrops)
	}
	if c.Retx == 0 {
		t.Fatal("no wire-loss retransmissions at 30% loss")
	}
}
