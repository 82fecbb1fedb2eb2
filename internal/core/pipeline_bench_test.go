package core

import (
	"testing"

	"nerve/internal/par"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// benchmarkPipeline1080p drives the full client frame graph at the paper's
// headline operating point: 960×540 transmission, 1920×1080 display, one
// complete frame loss in five (recovered from the point code), measured
// per displayed frame. This is the real-time claim of §7 — the gated CI
// budget is the 33 ms frame deadline at 30 FPS on a single core.
func benchmarkPipeline1080p(b *testing.B, workers int) {
	defer par.SetWorkers(workers)()
	const w, h = 960, 540
	srv, err := NewServer(ServerConfig{W: w, H: h, TargetBitrate: 6e6, GOP: 60, PacketPayload: 1200})
	if err != nil {
		b.Fatal(err)
	}
	g := video.NewGenerator(video.Categories()[3], 9)
	const frames = 15
	sfs := make([]*ServerFrame, frames)
	for i := range sfs {
		if sfs[i], err = srv.Process(g.Render(i, w, h)); err != nil {
			b.Fatal(err)
		}
	}
	cli, err := NewClient(ClientConfig{
		W: w, H: h, OutW: 1920, OutH: 1080,
		EnableRecovery: true, EnableSR: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := NewPipeline(cli)
	step := func(i int) {
		in := Input{Encoded: sfs[i%frames].Encoded, Code: sfs[i%frames].Code}
		if i%5 == 2 {
			in.Encoded = nil // complete loss → recovery path
		}
		res, err := p.Push(in)
		if err != nil {
			b.Fatal(err)
		}
		if res != nil {
			vmath.Put(res.Frame)
		}
	}
	// Warm-up covers three losses (slots 2, 7 and 12): the second still
	// misses the plane pool and the third grows recovery's hole table, so
	// a shorter one would time that one-off growth inside a short
	// -benchtime window instead of the steady state.
	const warm = 15
	for i := 0; i < warm; i++ {
		step(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(warm + i)
	}
	b.StopTimer()
	if last := p.Flush(); last != nil {
		vmath.Put(last.Frame)
	}
}

// BenchmarkPipelineFrame1080p is the gated configuration: the byte path
// on a single worker — the whole decode→recover→SR frame as pure
// one-core compute (par.Go degrades to inline, so this is also the
// sequential schedule). CI fails if ns/op exceeds the 33 ms deadline
// (benchjson -ceiling-ms).
func BenchmarkPipelineFrame1080p(b *testing.B) { benchmarkPipeline1080p(b, 1) }

// BenchmarkPipelineFrame1080pOverlap shows the pipelining win: same load
// with two workers, enhance(n) overlapped with ingest(n+1).
func BenchmarkPipelineFrame1080pOverlap(b *testing.B) { benchmarkPipeline1080p(b, 2) }
