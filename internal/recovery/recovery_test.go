package recovery

import (
	"math"
	"math/rand"
	"testing"

	"nerve/internal/edgecode"
	"nerve/internal/metrics"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

const (
	tw = 160
	th = 96
)

// chainQuality runs an n-step recovery chain starting at frame start and
// returns the mean PSNR/SSIM of the predictions vs ground truth.
// mode: "hinted", "nocode", "reuse".
func chainQuality(t *testing.T, cat video.Category, seed int64, start, steps int, mode string) (float64, float64) {
	t.Helper()
	g := video.NewGenerator(cat, seed)
	ext := edgecode.NewExtractor(0, 0)
	r := New(Config{OutW: tw, OutH: th})

	prevPrev := g.Render(start-2, tw, th)
	prev := g.Render(start-1, tw, th)
	prevCode := ext.Extract(g.Render(start-1, tw, th))

	var s metrics.Series
	for k := 0; k < steps; k++ {
		truth := g.Render(start+k, tw, th)
		var out *vmath.Plane
		switch mode {
		case "hinted":
			curCode := ext.Extract(truth)
			out = r.Recover(Input{Prev: prev, PrevPrev: prevPrev, PrevCode: prevCode, CurCode: curCode})
			prevCode = curCode
		case "nocode":
			out = r.Recover(Input{Prev: prev, PrevPrev: prevPrev})
		case "reuse":
			out = r.Reuse(prev)
		default:
			t.Fatalf("bad mode %q", mode)
		}
		s.ObserveFrames(truth, out)
		prevPrev = prev
		prev = out
	}
	return s.MeanPSNR(), s.MeanSSIM()
}

func TestHintedBeatsNoCodeBeatsReuse(t *testing.T) {
	cat := video.Categories()[2] // Vlogs: moderate motion
	hinted, hintedS := chainQuality(t, cat, 11, 40, 10, "hinted")
	nocode, nocodeS := chainQuality(t, cat, 11, 40, 10, "nocode")
	reuse, reuseS := chainQuality(t, cat, 11, 40, 10, "reuse")
	t.Logf("PSNR hinted=%.2f nocode=%.2f reuse=%.2f", hinted, nocode, reuse)
	t.Logf("SSIM hinted=%.3f nocode=%.3f reuse=%.3f", hintedS, nocodeS, reuseS)
	if hinted <= nocode {
		t.Errorf("hinted (%.2f dB) not above no-code (%.2f dB)", hinted, nocode)
	}
	if nocode <= reuse {
		t.Errorf("no-code (%.2f dB) not above reuse (%.2f dB)", nocode, reuse)
	}
	if hinted < reuse+1 {
		t.Errorf("hinted gain over reuse too small: %.2f vs %.2f", hinted, reuse)
	}
}

func TestGracefulDegradation(t *testing.T) {
	cat := video.Categories()[0]
	q5, _ := chainQuality(t, cat, 5, 30, 5, "hinted")
	q20, _ := chainQuality(t, cat, 5, 30, 20, "hinted")
	t.Logf("hinted 5-step %.2f dB, 20-step %.2f dB", q5, q20)
	if q20 >= q5 {
		t.Errorf("no degradation with horizon: %v vs %v", q20, q5)
	}
	if q20 < 15 {
		t.Errorf("20-step quality collapsed: %.2f dB", q20)
	}
}

func TestPartialRecoveryBeatsFullLoss(t *testing.T) {
	cat := video.Categories()[2]
	g := video.NewGenerator(cat, 13)
	ext := edgecode.NewExtractor(0, 0)

	prev := g.Render(49, tw, th)
	truth := g.Render(50, tw, th)
	prevCode := ext.Extract(prev)
	curCode := ext.Extract(truth)

	// Partial frame: top half received.
	part := vmath.NewPlane(tw, th)
	mask := vmath.NewPlane(tw, th)
	for y := 0; y < th/2; y++ {
		for x := 0; x < tw; x++ {
			part.Set(x, y, truth.At(x, y))
			mask.Set(x, y, 1)
		}
	}

	rFull := New(Config{OutW: tw, OutH: th})
	full := rFull.Recover(Input{Prev: prev, PrevCode: prevCode, CurCode: curCode})
	rPart := New(Config{OutW: tw, OutH: th})
	partial := rPart.Recover(Input{Prev: prev, PrevCode: prevCode, CurCode: curCode, Part: part, PartMask: mask})

	pFull := metrics.PSNR(truth, full)
	pPart := metrics.PSNR(truth, partial)
	t.Logf("full-loss %.2f dB, partial %.2f dB", pFull, pPart)
	if pPart <= pFull {
		t.Errorf("partial recovery (%.2f) not above full-loss recovery (%.2f)", pPart, pFull)
	}
	// Received region must match the truth exactly (override).
	for y := 2; y < th/2-2; y++ {
		for x := 0; x < tw; x++ {
			if partial.At(x, y) != truth.At(x, y) {
				t.Fatalf("received region altered at (%d,%d)", x, y)
			}
		}
	}
}

func TestRecoverDispatch(t *testing.T) {
	g := video.NewGenerator(video.Categories()[0], 1)
	prev := g.Render(10, tw, th)
	r := New(Config{OutW: tw, OutH: th})
	// No codes, no prevPrev → reuse.
	out := r.Recover(Input{Prev: prev})
	if p := metrics.PSNR(prev, out); p < 40 {
		t.Fatalf("reuse dispatch output differs from prev: %.2f dB", p)
	}
}

func TestRecoverPanicsWithoutPrev(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{OutW: 8, OutH: 8}).Recover(Input{})
}

func TestConfigDefaults(t *testing.T) {
	r := New(Config{OutW: 1920, OutH: 1080})
	cfg := r.Config()
	if cfg.WorkH != 270 {
		t.Fatalf("1080p work height %d, want 270 (paper §7)", cfg.WorkH)
	}
	if cfg.WorkW != 480 {
		t.Fatalf("work width %d, want 480", cfg.WorkW)
	}
	r2 := New(Config{OutW: 160, OutH: 96})
	if c := r2.Config(); c.WorkW != 160 || c.WorkH != 96 {
		t.Fatalf("small frames must keep native work res, got %dx%d", c.WorkW, c.WorkH)
	}
}

// TestOutputInRange: Recover's output stays in [0, 255] on both tiers and
// in every mode, even when Prev, PrevPrev and Part carry pixels outside
// that range. The fixed tier has no full-frame clamp: its finish makes
// bytes, and only the pasted Part pixels and the reuse resize are clamped.
func TestOutputInRange(t *testing.T) {
	g := video.NewGenerator(video.Categories()[3], 9)
	ext := edgecode.NewExtractor(0, 0)
	// wild pushes every 7th pixel of a render far outside [0, 255].
	wild := func(p *vmath.Plane) *vmath.Plane {
		for i := range p.Pix {
			switch i % 7 {
			case 0:
				p.Pix[i] = -300
			case 3:
				p.Pix[i] = 900
			}
		}
		return p
	}
	prevPrev := wild(g.Render(19, tw, th))
	prev := wild(g.Render(20, tw, th))
	cur := g.Render(21, tw, th)
	part := wild(g.Render(21, tw, th))
	mask := goldenPartMask(tw, th)
	prevCode, curCode := ext.Extract(g.Render(20, tw, th)), ext.Extract(cur)
	modes := map[string]Input{
		"first":                {Prev: prev, PrevCode: prevCode, CurCode: curCode},
		"hinted":               {Prev: prev, PrevPrev: prevPrev, PrevCode: prevCode, CurCode: curCode},
		"hinted-partial":       {Prev: prev, PrevPrev: prevPrev, PrevCode: prevCode, CurCode: curCode, Part: part, PartMask: mask},
		"extrapolated":         {Prev: prev, PrevPrev: prevPrev},
		"extrapolated-partial": {Prev: prev, PrevPrev: prevPrev, Part: part, PartMask: mask},
		"reuse":                {Prev: prev},
		"reuse-partial":        {Prev: prev, Part: part, PartMask: mask},
	}
	for _, fixed := range []bool{false, true} {
		for name, in := range modes {
			r := New(Config{OutW: tw, OutH: th})
			r.SetFixedPoint(fixed)
			for k := 0; k < 2; k++ { // the second call also blends the history
				out := r.Recover(in)
				if min, max := out.MinMax(); min < 0 || max > 255 {
					t.Fatalf("fixed=%v %s call %d: output out of range: %v..%v", fixed, name, k, min, max)
				}
				if out.W != tw || out.H != th {
					t.Fatalf("fixed=%v %s: geometry %dx%d", fixed, name, out.W, out.H)
				}
			}
		}
	}
}

func TestResetClearsHistory(t *testing.T) {
	g := video.NewGenerator(video.Categories()[0], 2)
	ext := edgecode.NewExtractor(0, 0)
	r := New(Config{OutW: tw, OutH: th})
	prev := g.Render(5, tw, th)
	in := Input{Prev: prev, PrevCode: ext.Extract(prev), CurCode: ext.Extract(g.Render(6, tw, th))}
	a := r.Recover(in)
	r.Reset()
	ext2 := edgecode.NewExtractor(0, 0)
	in2 := Input{Prev: prev, PrevCode: ext2.Extract(prev), CurCode: ext2.Extract(g.Render(6, tw, th))}
	b := New(Config{OutW: tw, OutH: th}).Recover(in2)
	// A reset recoverer must behave like a fresh one (codes from fresh
	// extractors too).
	r2out := r.Recover(in2)
	if d := vmath.MAE(r2out, b); d > 1e-4 {
		t.Fatalf("reset recoverer differs from fresh: %v", d)
	}
	_ = a
}

func TestInpaintRespectsGuide(t *testing.T) {
	// Left half bright, right half dark, hole across the boundary.
	// With a guide edge along the boundary, diffusion should not bleed
	// the bright side into the dark side as much as without a guide.
	w, h := 40, 20
	img := vmath.NewPlane(w, h)
	valid := vmath.NewPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			switch {
			case x < 14:
				img.Set(x, y, 220)
				valid.Set(x, y, 1)
			case x >= 26:
				img.Set(x, y, 30)
				valid.Set(x, y, 1)
			default:
				img.Set(x, y, 125) // stale warped content in the hole
			}
		}
	}
	guide := vmath.NewPlane(w, h)
	for y := 0; y < h; y++ {
		guide.Set(20, y, 1)
		guide.Set(19, y, 0.8)
		guide.Set(21, y, 0.8)
	}
	r := New(Config{OutW: w, OutH: h})
	guided := r.inpaint(img, valid, guide, 60)
	unguided := r.inpaint(img, valid, nil, 60)
	// Just right of the edge, the guided fill should be darker (closer
	// to the dark side) than the unguided fill.
	gv := guided.At(23, 10)
	uv := unguided.At(23, 10)
	if gv >= uv {
		t.Fatalf("guide had no effect: guided=%v unguided=%v", gv, uv)
	}
	// Known pixels are untouched.
	if guided.At(5, 5) != 220 || guided.At(35, 5) != 30 {
		t.Fatal("inpaint altered valid pixels")
	}
}

func TestInpaintNoHolesIsIdentity(t *testing.T) {
	img := vmath.NewPlane(8, 8)
	img.Fill(57)
	valid := vmath.NewPlane(8, 8)
	valid.Fill(1)
	out := New(Config{OutW: 8, OutH: 8}).inpaint(img, valid, nil, 10)
	if d := vmath.MAE(img, out); d != 0 {
		t.Fatalf("identity inpaint changed pixels: %v", d)
	}
}

func BenchmarkRecoverHinted(b *testing.B) {
	g := video.NewGenerator(video.Categories()[2], 1)
	ext := edgecode.NewExtractor(0, 0)
	prev := g.Render(10, 480, 270)
	cur := g.Render(11, 480, 270)
	pc := ext.Extract(prev)
	cc := ext.Extract(cur)
	r := New(Config{OutW: 480, OutH: 270})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Recover(Input{Prev: prev, PrevCode: pc, CurCode: cc})
	}
}

// inpaintRef is inpaint's reference formulation: every iteration
// recomputes each hole's neighbour weights, skipping out-of-frame
// neighbours, and copies the holes back from a second plane.
func inpaintRef(img, valid, guide *vmath.Plane, iters int) *vmath.Plane {
	w, h := img.W, img.H
	out := img.Clone()
	var holes []int
	for i := range out.Pix {
		if valid.Pix[i] < 0.5 {
			holes = append(holes, i)
		}
	}
	const selfWeight = 0.8
	next := vmath.NewPlane(w, h)
	for it := 0; it < iters; it++ {
		for _, i := range holes {
			x, y := i%w, i/w
			acc := selfWeight * img.Pix[i]
			wsum := float32(selfWeight)
			add := func(nx, ny int) {
				if nx < 0 || ny < 0 || nx >= w || ny >= h {
					return
				}
				j := ny*w + nx
				wgt := float32(1)
				if guide != nil {
					wgt = 1 - 0.85*guide.Pix[j]
					if wgt < 0.05 {
						wgt = 0.05
					}
				}
				if valid.Pix[j] >= 0.5 {
					wgt *= 2
				}
				acc += wgt * out.Pix[j]
				wsum += wgt
			}
			add(x-1, y)
			add(x+1, y)
			add(x, y-1)
			add(x, y+1)
			if wsum > 0 {
				next.Pix[i] = acc / wsum
			}
		}
		for _, i := range holes {
			out.Pix[i] = next.Pix[i]
		}
	}
	return out
}

// TestInpaintMatchesRef holds inpaint's once-computed stencils to the
// per-iteration formulation bit for bit: holes along all four borders and
// in every corner, with and without a guide, every pixel a hole, single
// rows and columns, and odd and even iteration counts. One Recoverer runs
// every case, so its stencil scratch is reused across sizes.
func TestInpaintMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	r := New(Config{OutW: 8, OutH: 8})
	for _, c := range []struct {
		w, h  int
		holes float32 // fraction of interior pixels that are holes
		all   bool    // every pixel a hole
	}{
		{23, 17, 0.4, false}, {23, 17, 0, true}, {1, 9, 0.5, false}, {9, 1, 0.5, false},
		{1, 1, 0, true}, {2, 2, 0, true}, {40, 30, 0.2, false},
	} {
		img := vmath.NewPlane(c.w, c.h)
		valid := vmath.NewPlane(c.w, c.h)
		guide := vmath.NewPlane(c.w, c.h)
		for i := range img.Pix {
			x, y := i%c.w, i/c.w
			img.Pix[i] = rng.Float32() * 255
			guide.Pix[i] = rng.Float32() * 1.2
			border := x == 0 || y == 0 || x == c.w-1 || y == c.h-1
			if !c.all && !border && rng.Float32() >= c.holes {
				valid.Pix[i] = 1
			}
		}
		for _, g := range []*vmath.Plane{guide, nil} {
			for _, iters := range []int{1, 2, 7, inpaintIters} {
				want := inpaintRef(img, valid, g, iters)
				got := r.inpaint(img, valid, g, iters)
				for i := range want.Pix {
					if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
						t.Fatalf("%dx%d guide=%v iters=%d: pixel %d is %v, want %v",
							c.w, c.h, g != nil, iters, i, got.Pix[i], want.Pix[i])
					}
				}
				vmath.Put(got)
			}
		}
	}
}
