package core

import (
	"testing"

	"nerve/internal/par"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// TestSteadyStateZeroPlaneAllocs is the end-to-end proof of the pooled
// memory model: a warmed-up client running the full decode → recover → SR
// pipeline performs zero plane backing-array allocations per frame. Every
// per-frame plane comes from the pool and goes back to it.
//
// The schedule deliberately walks all three input paths (complete, partial,
// complete loss) in both the warm-up and the measured window, so the
// recovery and concealment scratch planes are warm too. The pool's
// buckets are owned free lists that no GC cycle empties, and the worker
// pool is pinned to one goroutine so bucket reuse is deterministic.
func TestSteadyStateZeroPlaneAllocs(t *testing.T) {
	defer par.SetWorkers(1)()

	const frames = 18
	// Small payloads force several slices per frame so dropped slices give
	// genuinely partial frames.
	srv, err := NewServer(ServerConfig{W: tw, H: th, TargetBitrate: 1200e3, GOP: 60, PacketPayload: 250})
	if err != nil {
		t.Fatal(err)
	}
	// Produce all server frames before the measured window: the client is
	// the system under test.
	g := video.NewGenerator(video.Categories()[3], 9)
	sfs := make([]*ServerFrame, frames)
	for i := range sfs {
		if sfs[i], err = srv.Process(g.Render(i, tw, th)); err != nil {
			t.Fatal(err)
		}
	}

	cli, err := NewClient(ClientConfig{
		W: tw, H: th,
		OutW: tw * 2, OutH: th * 2,
		EnableRecovery: true,
		EnableSR:       true,
	})
	if err != nil {
		t.Fatal(err)
	}

	input := func(i int) Input {
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

	step := func(i int) {
		res, err := cli.Next(input(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Frame.W != tw*2 || res.Frame.H != th*2 {
			t.Fatalf("frame %d geometry %dx%d", i, res.Frame.W, res.Frame.H)
		}
		// The displayed frame is caller-owned; returning it keeps the
		// display bucket warm, exactly like a real render loop would.
		vmath.Put(res.Frame)
	}

	const warm = 8 // covers decoded, partial and lost paths at least once
	for i := 0; i < warm; i++ {
		step(i)
	}

	before := vmath.PlaneAllocs()
	for i := warm; i < frames; i++ {
		step(i)
	}
	if d := vmath.PlaneAllocs() - before; d != 0 {
		t.Fatalf("steady-state client loop allocated %d plane backing arrays over %d frames, want 0", d, frames-warm)
	}
}

// TestNoSRFramesAreCallerOwned: a client without SR at equal resolutions
// must still hand out frames the caller owns. A caller that scribbles on
// every frame and Puts it back must see the same pixels as one that keeps
// every frame; a returned plane that is still the decoder's reference
// would corrupt the next decode (and, under -tags poolcheck, is poisoned
// on Put). Both the sequential and the pipelined driver are checked.
func TestNoSRFramesAreCallerOwned(t *testing.T) {
	const frames = 16
	sfs := pipelineServerFrames(t, frames)
	cfg := ClientConfig{W: tw, H: th, EnableRecovery: true}
	for _, pipelined := range []bool{false, true} {
		run := func(recycle bool) [][]float32 {
			cli, err := NewClient(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var out [][]float32
			keep := func(res *FrameResult) {
				if res == nil {
					return
				}
				out = append(out, append([]float32(nil), res.Frame.Pix...))
				if recycle {
					res.Frame.Fill(-7)
					vmath.Put(res.Frame)
				}
			}
			p := NewPipeline(cli)
			for i := range sfs {
				var res *FrameResult
				if pipelined {
					res, err = p.Push(pipelineInput(sfs, i))
				} else {
					res, err = cli.Next(pipelineInput(sfs, i))
				}
				if err != nil {
					t.Fatal(err)
				}
				keep(res)
			}
			keep(p.Flush())
			return out
		}
		kept, recycled := run(false), run(true)
		if len(kept) != frames || len(recycled) != frames {
			t.Fatalf("pipelined=%v: %d and %d frames, want %d", pipelined, len(kept), len(recycled), frames)
		}
		for i := range kept {
			for j := range kept[i] {
				if kept[i][j] != recycled[i][j] {
					t.Fatalf("pipelined=%v frame %d pixel %d: %v when the caller Puts its frames, %v when it keeps them",
						pipelined, i, j, recycled[i][j], kept[i][j])
				}
			}
		}
	}
}
