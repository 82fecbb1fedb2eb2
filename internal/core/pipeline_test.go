package core

import (
	"runtime"
	"testing"

	"nerve/internal/par"
	"nerve/internal/telemetry"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// pipelineServerFrames encodes a stream whose slot schedule walks all three
// input paths: complete (with SR), complete loss and partial loss.
func pipelineServerFrames(t testing.TB, n int) []*ServerFrame {
	t.Helper()
	srv, err := NewServer(ServerConfig{W: tw, H: th, TargetBitrate: 1200e3, GOP: 60, PacketPayload: 250})
	if err != nil {
		t.Fatal(err)
	}
	g := video.NewGenerator(video.Categories()[3], 9)
	sfs := make([]*ServerFrame, n)
	for i := range sfs {
		if sfs[i], err = srv.Process(g.Render(i, tw, th)); err != nil {
			t.Fatal(err)
		}
	}
	return sfs
}

func pipelineInput(sfs []*ServerFrame, i int) Input {
	sf := sfs[i]
	in := Input{Encoded: sf.Encoded, Code: sf.Code}
	switch i % 5 {
	case 2: // complete loss
		in.Encoded = nil
	case 4: // partial: drop every third slice
		recv := make([]bool, len(sf.Encoded.Slices))
		for j := range recv {
			recv[j] = j%3 != 1
		}
		recv[0] = true
		in.Received = recv
	}
	return in
}

// runSequential drives Client.Next over the schedule; runPipelined drives
// the same schedule through Pipeline.Push/Flush. Both return the displayed
// frames in playout order.
func runSequential(t *testing.T, cfg ClientConfig, sfs []*ServerFrame) []*FrameResult {
	t.Helper()
	cli, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*FrameResult, len(sfs))
	for i := range sfs {
		if out[i], err = cli.Next(pipelineInput(sfs, i)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func runPipelined(t *testing.T, cfg ClientConfig, sfs []*ServerFrame) []*FrameResult {
	t.Helper()
	cli, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(cli)
	var out []*FrameResult
	for i := range sfs {
		res, err := p.Push(pipelineInput(sfs, i))
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			out = append(out, res)
		}
	}
	if last := p.Flush(); last != nil {
		out = append(out, last)
	}
	return out
}

// TestPipelinedMatchesSequential is the correctness contract of the frame
// graph: overlapping enhance(n) with ingest(n+1) must change nothing — every
// displayed frame bit-identical to the sequential client, same classes,
// same indices — for both kernel tiers and for pool sizes 1 (where par.Go
// degrades to inline) and >1 (real overlap).
func TestPipelinedMatchesSequential(t *testing.T) {
	const frames = 14
	sfs := pipelineServerFrames(t, frames)
	for _, tc := range []struct {
		name    string
		tier    Tier
		workers int
	}{
		{"float/1worker", TierFloat, 1},
		{"float/4workers", TierFloat, 4},
		{"fixed/1worker", TierFixed, 1},
		{"fixed/4workers", TierFixed, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer par.SetWorkers(tc.workers)()
			cfg := ClientConfig{
				W: tw, H: th, OutW: tw * 2, OutH: th * 2,
				EnableRecovery: true, EnableSR: true,
				Tier: tc.tier,
			}
			seq := runSequential(t, cfg, sfs)
			pip := runPipelined(t, cfg, sfs)
			if len(pip) != len(seq) {
				t.Fatalf("pipelined produced %d frames, sequential %d", len(pip), len(seq))
			}
			for i := range seq {
				if pip[i].Index != seq[i].Index || pip[i].Class != seq[i].Class {
					t.Fatalf("frame %d: pipelined (idx %d, %v) vs sequential (idx %d, %v)",
						i, pip[i].Index, pip[i].Class, seq[i].Index, seq[i].Class)
				}
				a, b := seq[i].Frame, pip[i].Frame
				if a.W != b.W || a.H != b.H {
					t.Fatalf("frame %d geometry %dx%d vs %dx%d", i, a.W, a.H, b.W, b.H)
				}
				for j := range a.Pix {
					if a.Pix[j] != b.Pix[j] {
						t.Fatalf("frame %d: pixel %d differs (%v vs %v) — pipelined output is not bit-identical",
							i, j, a.Pix[j], b.Pix[j])
					}
				}
			}
		})
	}
}

// TestPipelineFlushIsIdempotent: Flush drains the last frame exactly once.
func TestPipelineFlushIsIdempotent(t *testing.T) {
	sfs := pipelineServerFrames(t, 2)
	cli, err := NewClient(ClientConfig{W: tw, H: th, EnableRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(cli)
	if res, err := p.Push(pipelineInput(sfs, 0)); err != nil || res != nil {
		t.Fatalf("first Push = (%v, %v), want (nil, nil)", res, err)
	}
	if res := p.Flush(); res == nil || res.Index != 0 {
		t.Fatalf("Flush did not return the pending frame: %v", res)
	}
	if res := p.Flush(); res != nil {
		t.Fatalf("second Flush returned %v, want nil", res)
	}
}

// TestPipelineRecordsOneDeadlineFramePerSlot: every completed slot feeds
// the deadline tracker exactly once — N Pushes plus the Flush that drains
// the last frame record N frames (the first Push completes nothing). The
// client runs without SR so it draws no display-size planes from the pool
// the zero-allocation tests below warm.
func TestPipelineRecordsOneDeadlineFramePerSlot(t *testing.T) {
	defer par.SetWorkers(2)()
	const frames = 6
	sfs := pipelineServerFrames(t, frames)
	cli, err := NewClient(ClientConfig{W: tw, H: th, EnableRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	telemetry.Default.Reset()
	telemetry.Enable(true)
	defer func() {
		telemetry.Enable(false)
		telemetry.Default.Reset()
	}()
	p := NewPipeline(cli)
	for i := range sfs {
		res, err := p.Push(pipelineInput(sfs, i))
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			vmath.Put(res.Frame)
		}
	}
	last := p.Flush()
	if last == nil {
		t.Fatal("Flush returned no frame")
	}
	vmath.Put(last.Frame)
	if got := telemetry.Default.Snapshot().Deadline.Frames; got != frames {
		t.Fatalf("deadline tracker recorded %d frames for %d slots", got, frames)
	}
}

// TestPipelinedSteadyStateZeroPlaneAllocs extends the pooled-memory proof
// to the overlapped schedule: with two workers, enhance(n−1) and
// ingest(n) draw planes from the pool concurrently, and a warmed pipeline
// must still allocate no plane backing arrays per frame. Nor may it make
// per-frame heap garbage beyond small headers: the window of sr, partial
// and recovered slots allocates at most maxHeapPerFrame bytes a frame
// (runtime.MemStats.TotalAlloc).
func TestPipelinedSteadyStateZeroPlaneAllocs(t *testing.T) {
	defer par.SetWorkers(2)()

	const frames = 24
	const maxHeapPerFrame = 16 << 10
	sfs := pipelineServerFrames(t, frames)
	cli, err := NewClient(ClientConfig{
		W: tw, H: th, OutW: tw * 2, OutH: th * 2,
		EnableRecovery: true, EnableSR: true, Tier: TierFixed,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The inputs are built up front so the test's own received masks do
	// not count against the client.
	ins := make([]Input, frames)
	for i := range ins {
		ins[i] = pipelineInput(sfs, i)
	}
	p := NewPipeline(cli)
	step := func(i int) {
		res, err := p.Push(ins[i])
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			vmath.Put(res.Frame)
		}
	}
	// The first pass over the schedule warms the pools and sizes every
	// scratch table that grows to the largest frame it has seen (recovery's
	// hole list, for one); the second pass, which restarts at the I frame,
	// is measured.
	for i := range ins {
		step(i)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before, heapBefore := vmath.PlaneAllocs(), ms.TotalAlloc
	for i := range ins {
		step(i)
	}
	runtime.ReadMemStats(&ms)
	if d := vmath.PlaneAllocs() - before; d != 0 {
		t.Fatalf("warm pipelined loop allocated %d plane backing arrays over %d frames, want 0", d, frames)
	}
	per := (ms.TotalAlloc - heapBefore) / frames
	t.Logf("%d heap bytes per frame", per)
	if per > maxHeapPerFrame {
		t.Fatalf("warm pipelined loop allocated %d heap bytes per frame, want at most %d", per, maxHeapPerFrame)
	}
	if last := p.Flush(); last != nil {
		vmath.Put(last.Frame)
	}
}
