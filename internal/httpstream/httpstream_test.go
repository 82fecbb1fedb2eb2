package httpstream

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"nerve/internal/codec"
	"nerve/internal/metrics"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		W: 96, H: 64, ChunkSeconds: 0.5, Chunks: 3,
		Rates:  []int{200, 600},
		Source: video.NewGenerator(video.Categories()[2], 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestManifestEndpoint(t *testing.T) {
	_, ts := testServer(t)
	cli, err := NewClient(ts.URL, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	m := cli.Manifest()
	if m.Width != 96 || m.Height != 64 || m.Chunks != 3 || len(m.RatesKbps) != 2 {
		t.Fatalf("manifest %+v", m)
	}
}

func TestStreamCleanPlayback(t *testing.T) {
	srv, ts := testServer(t)
	cli, err := NewClient(ts.URL, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	gen := video.NewGenerator(video.Categories()[2], 7)
	fpc := srv.framesPerChunk()
	var s metrics.Series
	for n := 0; n < 3; n++ {
		res, err := cli.PlayChunk(n, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Frames) != fpc {
			t.Fatalf("chunk %d: %d frames want %d", n, len(res.Frames), fpc)
		}
		if res.Bytes <= 0 {
			t.Fatalf("chunk %d: no bytes", n)
		}
		for i, f := range res.Frames {
			src := gen.Render(n*fpc+i, 96, 64)
			s.ObserveFrames(src, f)
		}
	}
	if p := s.MeanPSNR(); p < 26 {
		t.Fatalf("HTTP playback quality %.2f dB", p)
	}
}

func TestStreamRecoversLostChunk(t *testing.T) {
	srv, ts := testServer(t)
	recover := func(enable bool) float64 {
		cli, err := NewClient(ts.URL, nil, enable)
		if err != nil {
			t.Fatal(err)
		}
		gen := video.NewGenerator(video.Categories()[2], 7)
		fpc := srv.framesPerChunk()
		var s metrics.Series
		for n := 0; n < 3; n++ {
			res, err := cli.PlayChunk(n, 1, n == 1) // chunk 1 lost
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				continue
			}
			for i, f := range res.Frames {
				s.ObserveFrames(gen.Render(n*fpc+i, 96, 64), f)
			}
		}
		return s.MeanPSNR()
	}
	withRC := recover(true)
	withoutRC := recover(false)
	t.Logf("lost chunk: recovery %.2f dB, reuse %.2f dB", withRC, withoutRC)
	if withRC <= withoutRC-0.5 {
		t.Fatalf("recovery (%.2f) clearly below reuse (%.2f) over HTTP", withRC, withoutRC)
	}
	if withRC < 15 {
		t.Fatalf("recovered chunk unusable: %.2f dB", withRC)
	}
}

func TestRatesDiffer(t *testing.T) {
	_, ts := testServer(t)
	cli, err := NewClient(ts.URL, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	low, err := cli.PlayChunk(0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	cli2, err := NewClient(ts.URL, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	high, err := cli2.PlayChunk(0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if high.Bytes <= low.Bytes {
		t.Fatalf("rate 1 (%d B) not larger than rate 0 (%d B)", high.Bytes, low.Bytes)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []struct {
		path string
		want int
	}{
		// Out-of-range rate/chunk → 404; malformed queries → 400.
		{"/segment?rate=9&n=0", http.StatusNotFound},
		{"/segment?rate=0&n=99", http.StatusNotFound},
		{"/segment?rate=-1&n=0", http.StatusNotFound},
		{"/segment?rate=x&n=0", http.StatusBadRequest},
		{"/codes?n=99", http.StatusNotFound},
		{"/codes?n=x", http.StatusBadRequest},
		{"/nope", http.StatusNotFound},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestInternalErrorsAre500(t *testing.T) {
	srv, ts := testServer(t)
	srv.testErr = fmt.Errorf("injected encode failure")
	for _, path := range []string{"/segment?rate=0&n=0", "/codes?n=0"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s: status %d want 500", path, resp.StatusCode)
		}
	}
	// Internal failures must not poison the cache: clearing the fault
	// makes the same requests succeed.
	srv.testErr = nil
	for _, path := range []string{"/segment?rate=0&n=0", "/codes?n=0"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s after recovery: status %d want 200", path, resp.StatusCode)
		}
	}
}

func TestEncodedFrameWireRoundTrip(t *testing.T) {
	g := video.NewGenerator(video.Categories()[0], 1)
	enc := codec.NewEncoder(codec.Config{W: 96, H: 64, TargetBitrate: 600e3, PacketPayload: 200})
	ef := enc.Encode(g.Render(0, 96, 64))
	wire, err := ef.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back codec.EncodedFrame
	if err := back.UnmarshalBinary(wire); err != nil {
		t.Fatal(err)
	}
	if back.Index != ef.Index || back.Type != ef.Type || back.W != ef.W || back.H != ef.H {
		t.Fatal("header mismatch")
	}
	if len(back.Slices) != len(ef.Slices) {
		t.Fatalf("slices %d vs %d", len(back.Slices), len(ef.Slices))
	}
	// Decoding the deserialised frame must reproduce the reconstruction.
	dec := codec.NewDecoder(codec.Config{W: 96, H: 64})
	res, err := dec.Decode(&back, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := vmath.MAE(res.Frame, ef.Recon); d > 1e-4 {
		t.Fatalf("wire round trip decode mismatch: %v", d)
	}
}

func TestEncodedFrameWireErrors(t *testing.T) {
	var f codec.EncodedFrame
	if err := f.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("short payload accepted")
	}
	if err := f.UnmarshalBinary(make([]byte, 20)); err == nil {
		t.Fatal("bad magic accepted")
	}
	g := video.NewGenerator(video.Categories()[0], 2)
	enc := codec.NewEncoder(codec.Config{W: 64, H: 64, TargetBitrate: 400e3})
	wire, err := enc.Encode(g.Render(0, 64, 64)).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.UnmarshalBinary(wire[:len(wire)-3]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if err := f.UnmarshalBinary(append(wire, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
