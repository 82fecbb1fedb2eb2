package core

import (
	"testing"

	"nerve/internal/codec"
	"nerve/internal/edgecode"
	"nerve/internal/metrics"
	"nerve/internal/netem"
	"nerve/internal/trace"
	"nerve/internal/transport"
	"nerve/internal/video"
)

// TestNetworkedSession streams a clip over the emulated network stack
// (Fig. 5 end to end): slices travel as unreliable datagrams over a lossy
// QUIC-like link, the 1 KB binary point code over the reliable side
// channel, and the client plays frames at their deadlines — recovering
// whatever did not make it.
func TestNetworkedSession(t *testing.T) {
	const (
		w, h      = 160, 96
		numFrames = 30
		deadline  = 1.0 / video.FPS
	)
	srv, err := NewServer(ServerConfig{W: w, H: h, TargetBitrate: 1e6, GOP: 30})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(ClientConfig{W: w, H: h, EnableRecovery: true})
	if err != nil {
		t.Fatal(err)
	}

	// Network: 2 Mbps, 5% bursty loss, 40 ms RTT.
	flat := func(loss float64) *trace.Trace {
		tr := &trace.Trace{Interval: 1, Samples: make([]trace.Sample, 600)}
		for i := range tr.Samples {
			tr.Samples[i] = trace.Sample{ThroughputBps: 2e6, LossRate: loss, RTTSeconds: 0.04}
		}
		return tr
	}
	clock := &netem.Clock{}
	media := netem.NewLink(clock, flat(0.05), netem.NewGilbertElliott(7))
	side := netem.NewLink(clock, flat(0.05), netem.NewGilbertElliott(8))
	rev := netem.NewLink(clock, flat(0), nil)
	conn := transport.NewConn(clock, side, rev)

	g := video.NewGenerator(video.Categories()[2], 9)

	type arrival struct {
		received []bool
		code     *edgecode.Code
	}
	inbox := make([]arrival, numFrames)
	encoded := make([]*codec.EncodedFrame, numFrames)

	// Sender: paced at 30 FPS; each slice is one datagram, the code goes
	// over the reliable channel.
	for i := 0; i < numFrames; i++ {
		i := i
		clock.Schedule(float64(i)*deadline, func() {
			sf, err := srv.Process(g.Render(i, w, h))
			if err != nil {
				t.Errorf("frame %d: %v", i, err)
				return
			}
			encoded[i] = sf.Encoded
			inbox[i].received = make([]bool, len(sf.Encoded.Slices))
			for si := range sf.Encoded.Slices {
				si := si
				size := sf.Encoded.Slices[si].Bytes()
				media.Send(size+transport.HeaderSize, func() {
					inbox[i].received[si] = true
				})
			}
			payload := sf.Code.Compress()
			conn.SendReliable(len(payload), func(at float64, ok bool, _ int) {
				if ok {
					inbox[i].code = sf.Code
				}
			})
		})
	}

	// Receiver: at each playout deadline (plus a small startup delay),
	// consume whatever arrived.
	var quality metrics.Series
	lateOrLost := 0
	for i := 0; i < numFrames; i++ {
		i := i
		playAt := float64(i)*deadline + 0.15 // 150 ms startup buffer
		clock.Schedule(playAt, func() {
			in := Input{}
			if encoded[i] != nil {
				all := true
				any := false
				for _, r := range inbox[i].received {
					all = all && r
					any = any || r
				}
				if any {
					in.Encoded = encoded[i]
					in.Received = inbox[i].received
				}
				if !all {
					lateOrLost++
				}
			} else {
				lateOrLost++
			}
			in.Code = inbox[i].code
			res, err := cli.Next(in)
			if err != nil {
				t.Errorf("frame %d: %v", i, err)
				return
			}
			quality.ObserveFrames(g.Render(i, w, h), res.Frame)
		})
	}

	clock.RunUntilIdle()

	if quality.Len() != numFrames {
		t.Fatalf("played %d of %d frames", quality.Len(), numFrames)
	}
	if lateOrLost == 0 {
		t.Fatal("no losses at 5% bursty loss — network model inert")
	}
	if p := quality.MeanPSNR(); p < 24 {
		t.Fatalf("networked session quality %.2f dB", p)
	}
	t.Logf("networked session: %.2f dB mean PSNR, %d/%d frames impaired, %.0f%% recovered",
		quality.MeanPSNR(), lateOrLost, numFrames, cli.RecoveredFraction()*100)
}

// TestCorruptedSliceDataFailsGracefully ensures a bit-flipped slice payload
// produces a decode error, never a panic.
func TestCorruptedSliceDataFailsGracefully(t *testing.T) {
	srv, err := NewServer(ServerConfig{W: 96, H: 64, TargetBitrate: 800e3})
	if err != nil {
		t.Fatal(err)
	}
	g := video.NewGenerator(video.Categories()[0], 1)
	sf, err := srv.Process(g.Render(0, 96, 64))
	if err != nil {
		t.Fatal(err)
	}
	dec := codec.NewDecoder(codec.Config{W: 96, H: 64})
	// Flip bytes in the first slice.
	for i := range sf.Encoded.Slices[0].Data {
		sf.Encoded.Slices[0].Data[i] ^= 0xA5
	}
	if _, err := dec.Decode(sf.Encoded, nil); err == nil {
		t.Log("corrupted slice happened to parse; acceptable but rare")
	}
}
