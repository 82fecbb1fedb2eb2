package core

import (
	"math/rand"
	"testing"

	"nerve/internal/edgecode"
	"nerve/internal/metrics"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

const (
	tw, th = 160, 96
)

func makeServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(ServerConfig{W: tw, H: th, TargetBitrate: 1200e3, GOP: 30})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sourceFrames(n int) []*vmath.Plane {
	g := video.NewGenerator(video.Categories()[3], 21) // GamePlay: fast motion
	out := make([]*vmath.Plane, n)
	for i := range out {
		out[i] = g.Render(i, tw, th)
	}
	return out
}

func TestCleanPathDecodes(t *testing.T) {
	srv := makeServer(t)
	cli, err := NewClient(ClientConfig{W: tw, H: th})
	if err != nil {
		t.Fatal(err)
	}
	frames := sourceFrames(8)
	var s metrics.Series
	for i, f := range frames {
		sf, err := srv.Process(f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cli.Next(Input{Encoded: sf.Encoded, Code: sf.Code})
		if err != nil {
			t.Fatal(err)
		}
		if res.Class != ClassDecoded {
			t.Fatalf("frame %d class %v", i, res.Class)
		}
		if res.Index != i {
			t.Fatalf("frame %d index %d", i, res.Index)
		}
		if res.ProcessSeconds <= 0 {
			t.Fatal("no device time charged")
		}
		s.ObserveFrames(f, res.Frame)
	}
	if s.MeanPSNR() < 26 {
		t.Fatalf("clean-path quality %.2f dB", s.MeanPSNR())
	}
	if cli.RecoveredFraction() != 0 {
		t.Fatal("clean path reported recoveries")
	}
}

// lossyRun streams frames with a run of consecutive losses (frames k..k+5
// completely lost) and returns mean PSNR of displayed vs source.
func lossyRun(t *testing.T, enableRecovery bool, k int) float64 {
	t.Helper()
	srv := makeServer(t)
	cli, err := NewClient(ClientConfig{W: tw, H: th, EnableRecovery: enableRecovery})
	if err != nil {
		t.Fatal(err)
	}
	frames := sourceFrames(24)
	// Quality is measured over the lost window only: elsewhere both
	// schemes display identical decoded frames.
	var s metrics.Series
	for i, f := range frames {
		sf, err := srv.Process(f)
		if err != nil {
			t.Fatal(err)
		}
		in := Input{Encoded: sf.Encoded, Code: sf.Code}
		lost := i >= k && i < k+6
		if lost {
			in.Encoded = nil // consecutive losses; codes still arrive (TCP)
		}
		res, err := cli.Next(in)
		if err != nil {
			t.Fatal(err)
		}
		if lost {
			s.ObserveFrames(f, res.Frame)
		}
	}
	return s.MeanPSNR()
}

func TestRecoveryBeatsReuseOnLosses(t *testing.T) {
	rec := lossyRun(t, true, 12)
	reuse := lossyRun(t, false, 12)
	t.Logf("with recovery %.2f dB, reuse %.2f dB", rec, reuse)
	if rec <= reuse {
		t.Fatalf("recovery (%.2f) not above reuse (%.2f)", rec, reuse)
	}
}

func TestPartialLossConcealment(t *testing.T) {
	// Small payloads force several slices per frame so slice loss yields
	// genuinely partial frames.
	srv, err := NewServer(ServerConfig{W: tw, H: th, TargetBitrate: 1200e3, GOP: 30, PacketPayload: 250})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(ClientConfig{W: tw, H: th, EnableRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	frames := sourceFrames(6)
	rng := rand.New(rand.NewSource(5))
	sawPartial := false
	var s metrics.Series
	for i, f := range frames {
		sf, err := srv.Process(f)
		if err != nil {
			t.Fatal(err)
		}
		in := Input{Encoded: sf.Encoded, Code: sf.Code}
		if i >= 2 && len(sf.Encoded.Slices) > 1 {
			recv := make([]bool, len(sf.Encoded.Slices))
			for j := range recv {
				recv[j] = rng.Float64() > 0.4
			}
			recv[0] = true // keep at least one slice
			in.Received = recv
			all := true
			for _, r := range recv {
				all = all && r
			}
			if !all {
				sawPartial = true
			}
		}
		res, err := cli.Next(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Frame.W != tw || res.Frame.H != th {
			t.Fatal("geometry")
		}
		s.ObserveFrames(f, res.Frame)
	}
	if !sawPartial {
		t.Skip("no partial frames generated at this payload size")
	}
	if s.MeanPSNR() < 22 {
		t.Fatalf("partial concealment quality %.2f dB", s.MeanPSNR())
	}
}

func TestSRPathUpscales(t *testing.T) {
	srv := makeServer(t)
	cli, err := NewClient(ClientConfig{W: tw, H: th, OutW: tw * 2, OutH: th * 2, EnableSR: true})
	if err != nil {
		t.Fatal(err)
	}
	g := video.NewGenerator(video.Categories()[0], 4)
	for i := 0; i < 3; i++ {
		src := g.Render(i, tw, th)
		sf, err := srv.Process(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cli.Next(Input{Encoded: sf.Encoded, Code: sf.Code})
		if err != nil {
			t.Fatal(err)
		}
		if res.Frame.W != tw*2 || res.Frame.H != th*2 {
			t.Fatalf("SR output %dx%d", res.Frame.W, res.Frame.H)
		}
		if res.Class != ClassSR {
			t.Fatalf("class %v", res.Class)
		}
	}
}

func TestStartupWithNoData(t *testing.T) {
	cli, err := NewClient(ClientConfig{W: tw, H: th, EnableRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cli.Next(Input{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassReused || res.Frame == nil {
		t.Fatalf("startup class %v", res.Class)
	}
}

func TestConsecutiveTotalLossKeepsProducing(t *testing.T) {
	srv := makeServer(t)
	cli, err := NewClient(ClientConfig{W: tw, H: th, EnableRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	frames := sourceFrames(12)
	extOnly := 0
	for i, f := range frames {
		sf, err := srv.Process(f)
		if err != nil {
			t.Fatal(err)
		}
		in := Input{Encoded: sf.Encoded, Code: sf.Code}
		if i >= 4 && i <= 9 {
			in.Encoded = nil
			extOnly++
		}
		res, err := cli.Next(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Frame == nil {
			t.Fatalf("frame %d missing output", i)
		}
		min, max := res.Frame.MinMax()
		if min < 0 || max > 255 {
			t.Fatalf("frame %d out of range", i)
		}
	}
	if frac := cli.RecoveredFraction(); frac < float64(extOnly)/12-0.01 {
		t.Fatalf("recovered fraction %.2f", frac)
	}
}

// TestWrongCodeGeometryIsAnError: a side-channel code whose geometry is not
// the client's, or whose bitmap does not match its geometry, fails the slot
// with an error before any client state moves, instead of panicking inside
// recovery; the next good slot then plays as if the bad one never came.
func TestWrongCodeGeometryIsAnError(t *testing.T) {
	srv := makeServer(t)
	cli, err := NewClient(ClientConfig{W: tw, H: th, EnableRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	frames := sourceFrames(2)
	sf0, err := srv.Process(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Next(Input{Encoded: sf0.Encoded, Code: sf0.Code}); err != nil {
		t.Fatal(err)
	}
	sf1, err := srv.Process(frames[1])
	if err != nil {
		t.Fatal(err)
	}
	short := &edgecode.Code{W: sf1.Code.W, H: sf1.Code.H, Bits: sf1.Code.Bits[:10]}
	for _, bad := range []*edgecode.Code{edgecode.NewCode(8, 4), short} {
		total, idx, prevCode := cli.total, cli.frameIdx, cli.prevCode
		// A lost frame: recovery would run on the bad code.
		if _, err := cli.Next(Input{Code: bad}); err == nil {
			t.Fatalf("%dx%d code with %d bitmap bytes accepted", bad.W, bad.H, len(bad.Bits))
		}
		if cli.total != total || cli.frameIdx != idx || cli.prevCode != prevCode {
			t.Fatalf("rejected %dx%d code moved client state", bad.W, bad.H)
		}
	}
	res, err := cli.Next(Input{Encoded: sf1.Encoded, Code: sf1.Code})
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != 1 || res.Class != ClassDecoded {
		t.Fatalf("good slot after rejected codes: index %d class %v", res.Index, res.Class)
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{W: 0, H: 10}); err == nil {
		t.Fatal("bad server dims accepted")
	}
	srv := makeServer(t)
	if _, err := srv.Process(vmath.NewPlane(10, 10)); err == nil {
		t.Fatal("mismatched frame accepted")
	}
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Fatal("bad client dims accepted")
	}
}

func TestServerCodeIsOneKB(t *testing.T) {
	srv := makeServer(t)
	sf, err := srv.Process(sourceFrames(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if sf.Code.SizeBytes() != 1024 {
		t.Fatalf("code size %d, want 1024", sf.Code.SizeBytes())
	}
}

func TestNearestResolution(t *testing.T) {
	if r := nearestResolution(96); r != video.R240 {
		t.Fatalf("96 → %v", r)
	}
	if r := nearestResolution(1000); r != video.R1080 {
		t.Fatalf("1000 → %v", r)
	}
	if r := nearestResolution(500); r != video.R480 {
		t.Fatalf("500 → %v", r)
	}
}

func TestClassCountsTrackDegradation(t *testing.T) {
	srv := makeServer(t)
	cli, err := NewClient(ClientConfig{W: tw, H: th, EnableRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	frames := sourceFrames(8)
	lost := map[int]bool{3: true, 5: true}
	for i, f := range frames {
		sf, err := srv.Process(f)
		if err != nil {
			t.Fatal(err)
		}
		in := Input{Code: sf.Code}
		if !lost[i] {
			in.Encoded = sf.Encoded
		}
		if _, err := cli.Next(in); err != nil {
			t.Fatal(err)
		}
	}
	counts := cli.ClassCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != len(frames) {
		t.Fatalf("class counts sum to %d, want %d", total, len(frames))
	}
	if counts[ClassDecoded] != 6 || counts[ClassRecovered] != 2 {
		t.Fatalf("counts %v, want 6 decoded / 2 recovered", counts)
	}
	// The returned map is a copy: mutating it must not corrupt the client.
	counts[ClassDecoded] = 99
	if cli.ClassCounts()[ClassDecoded] != 6 {
		t.Fatal("ClassCounts exposes internal state")
	}
}
