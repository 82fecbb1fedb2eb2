// Package edgecode implements the binary point code of §4: a compact
// (64×128 = 1 KB) binary map extracted from each video frame on the server
// and shipped reliably to the client as the recovery hint. The paper uses a
// PidiNet edge network fine-tuned end-to-end; this implementation uses a
// pixel-difference gradient detector with non-maximum thinning and an
// adaptive (target-density) binariser, plus the temporal history state He
// that stabilises the code across frames.
package edgecode

import (
	"math"
	"math/bits"

	"nerve/internal/par"
	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// Default code geometry: 64 rows × 128 columns = 8192 bits = 1 KB.
const (
	DefaultW = 128
	DefaultH = 64
)

// Code is one frame's binary point code.
type Code struct {
	W, H int
	Bits []byte // row-major bitmap, 8 pixels per byte, MSB first
}

// NewCode allocates an all-zero code.
func NewCode(w, h int) *Code {
	return &Code{W: w, H: h, Bits: make([]byte, (w*h+7)/8)}
}

// Get returns the bit at (x, y).
func (c *Code) Get(x, y int) bool {
	i := y*c.W + x
	return c.Bits[i>>3]>>(7-uint(i&7))&1 == 1
}

// Set sets the bit at (x, y) to v.
func (c *Code) Set(x, y int, v bool) {
	i := y*c.W + x
	mask := byte(1) << (7 - uint(i&7))
	if v {
		c.Bits[i>>3] |= mask
	} else {
		c.Bits[i>>3] &^= mask
	}
}

// Ones returns the number of set bits.
func (c *Code) Ones() int {
	n := 0
	for _, b := range c.Bits {
		n += bits.OnesCount8(b)
	}
	return n
}

// Density returns the fraction of set bits.
func (c *Code) Density() float64 {
	if c.W*c.H == 0 {
		return 0
	}
	return float64(c.Ones()) / float64(c.W*c.H)
}

// SizeBytes returns the wire size of the code payload.
func (c *Code) SizeBytes() int { return len(c.Bits) }

// Plane renders the code as a float plane with set bits at 255, for flow
// estimation and visualisation. The plane comes from the plane pool and is
// owned by the caller (vmath.Put it when done, or let the GC have it).
func (c *Code) Plane() *vmath.Plane {
	p := vmath.GetZeroed(c.W, c.H)
	for y := 0; y < c.H; y++ {
		for x := 0; x < c.W; x++ {
			if c.Get(x, y) {
				p.Set(x, y, 255)
			}
		}
	}
	return p
}

// SoftPlane renders the code blurred, which makes block-matching between
// codes better conditioned than on raw binary dots. The plane is
// pool-backed and caller-owned, like Plane.
func (c *Code) SoftPlane() *vmath.Plane {
	p := c.Plane()
	// In-place blur: ConvolveSeparableInto materialises the horizontal
	// pass into pooled scratch first, so dst may alias src.
	return vmath.GaussianBlurInto(p, p, 0.8)
}

// Extractor is the server-side encoder. It keeps the temporal history state
// He (an exponential moving average of the gradient field) that the paper's
// encoder RNN maintains, which suppresses flicker in the code. The zero
// value is not ready; use NewExtractor.
type Extractor struct {
	W, H int
	// TargetDensity is the fraction of bits the binariser aims to set
	// (adaptive threshold at the corresponding gradient percentile).
	TargetDensity float64
	// HistoryWeight blends the previous gradient state into the current
	// one (0 = stateless).
	HistoryWeight float64

	history *vmath.Plane // He; persistent pooled plane, refreshed in place

	selScratch []float32 // percentile scratch, reused across frames
}

// NewExtractor returns an extractor producing w×h codes. Zero w/h select
// the default 128×64 (1 KB) geometry.
func NewExtractor(w, h int) *Extractor {
	if w <= 0 {
		w = DefaultW
	}
	if h <= 0 {
		h = DefaultH
	}
	return &Extractor{W: w, H: h, TargetDensity: 0.14, HistoryWeight: 0.25}
}

// Reset clears the temporal history (use at scene cuts / stream start).
func (e *Extractor) Reset() {
	vmath.Put(e.history)
	e.history = nil
}

// Extract computes the binary point code of a frame. The frame may be any
// resolution; it is analysed at twice the code resolution and thinned.
func (e *Extractor) Extract(frame *vmath.Plane) *Code {
	defer telemetry.Start(telemetry.StageCode).Stop()
	// Work at 2× code resolution for crisper edges, then pool down. All
	// intermediates live in pooled planes for the duration of the call.
	ww, wh := e.W*2, e.H*2
	work := vmath.ResizeBilinearInto(vmath.Get(ww, wh), frame)
	grad := vmath.GradientMagnitudeInto(vmath.Get(ww, wh), work)

	// Non-maximum thinning: keep a pixel only if it is the maximum of its
	// 3×3 neighbourhood along the dominant gradient axis (cheap variant:
	// max of horizontal/vertical neighbours); every other pixel is 0.
	thin := vmath.Get(ww, wh)
	par.ForRows(wh, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < ww; x++ {
				g := grad.At(x, y)
				if !(g >= grad.AtClamp(x-1, y) && g >= grad.AtClamp(x+1, y) ||
					g >= grad.AtClamp(x, y-1) && g >= grad.AtClamp(x, y+1)) {
					g = 0
				}
				thin.Set(x, y, g)
			}
		}
	})

	// Pool 2×2 max down to code resolution (every pixel written).
	pooled := vmath.Get(e.W, e.H)
	par.ForRows(e.H, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < e.W; x++ {
				m := thin.At(2*x, 2*y)
				if v := thin.At(2*x+1, 2*y); v > m {
					m = v
				}
				if v := thin.At(2*x, 2*y+1); v > m {
					m = v
				}
				if v := thin.At(2*x+1, 2*y+1); v > m {
					m = v
				}
				pooled.Set(x, y, m)
			}
		}
	})

	// Temporal history He: blend with the previous gradient field so the
	// code carries motion-stable contours. Lerp is elementwise, so dst may
	// alias its first operand; the history plane is persistent pooled
	// state refreshed in place instead of recloned every frame.
	if e.history != nil && e.HistoryWeight > 0 {
		vmath.Lerp(pooled, pooled, e.history, float32(e.HistoryWeight))
	}
	if e.history == nil || e.history.W != e.W || e.history.H != e.H {
		vmath.Put(e.history)
		e.history = vmath.Get(e.W, e.H)
	}
	e.history.CopyFrom(pooled)

	// Adaptive threshold at the (1-TargetDensity) percentile.
	thresh := e.percentile(pooled.Pix, 1-e.TargetDensity)
	if thresh < 1e-3 {
		thresh = 1e-3
	}
	code := NewCode(e.W, e.H)
	for y := 0; y < e.H; y++ {
		for x := 0; x < e.W; x++ {
			if pooled.At(x, y) >= thresh {
				code.Set(x, y, true)
			}
		}
	}
	vmath.Put(work)
	vmath.Put(grad)
	vmath.Put(thin)
	vmath.Put(pooled)
	return code
}

// percentile returns the value a sorted copy of pix would hold at index
// int(p·(n−1)), selected in a scratch buffer kept on the extractor.
func (e *Extractor) percentile(pix []float32, p float64) float32 {
	if len(pix) == 0 {
		return 0
	}
	if cap(e.selScratch) < len(pix) {
		e.selScratch = make([]float32, len(pix))
	}
	tmp := e.selScratch[:len(pix)]
	copy(tmp, pix)
	return selectKth(tmp, rankIndex(p, len(tmp)))
}

// rankIndex is int(p·(n−1)) clamped to [0, n), the index the extractor
// reads its threshold from.
func rankIndex(p float64, n int) int {
	return min(max(int(p*float64(n-1)), 0), n-1)
}

// EdgeGuide upsamples the code to w×h and blurs it into a soft [0,1] edge
// map used by the recovery model's inpainting branch (diffusion is damped
// across edges). The result is pool-backed and caller-owned, like Plane.
func (c *Code) EdgeGuide(w, h int) *vmath.Plane {
	cp := c.Plane()
	soft := vmath.ResizeBilinearInto(vmath.Get(w, h), cp)
	vmath.Put(cp)
	vmath.GaussianBlurInto(soft, soft, 1.0)
	par.ForRows(h, func(y0, y1 int) {
		pix := soft.Pix[y0*w : y1*w]
		for i, v := range pix {
			g := float64(v) / 255
			if g > 1 {
				g = 1
			}
			pix[i] = float32(math.Sqrt(g)) // expand faint edges
		}
	})
	return soft
}
