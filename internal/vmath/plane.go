// Package vmath provides the dense 2-D float32 image ("plane") type and the
// numerical kernels shared by every image-processing module in NERVE:
// resampling, separable convolution, gradients and error metrics.
//
// Planes store pixels in row-major order in the nominal 8-bit range
// [0, 255], but nothing in the package enforces that range; intermediate
// results (residuals, gradients, flow fields) routinely leave it.
//
// Hot kernels take a destination: the "Into" forms (ResizeBilinearInto,
// ConvolveSeparableInto, …) write into a caller-supplied plane, usually
// one obtained from the plane Pool (Get/Put), and allocate nothing — what
// the per-frame pipeline uses to reach a zero-allocation steady state. An
// allocating form exists only where a cold path calls it. Unless a
// kernel's doc comment says otherwise, dst must not alias src.
package vmath

import (
	"fmt"
	"math"
)

// Plane is a dense 2-D float32 image. The zero value is an empty plane.
// Pix has length W*H and is stored row-major: Pix[y*W+x].
type Plane struct {
	W, H int
	Pix  []float32
}

// NewPlane allocates a zeroed W×H plane. It panics if either dimension is
// negative; a zero dimension yields an empty, usable plane.
func NewPlane(w, h int) *Plane {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("vmath: invalid plane size %dx%d", w, h))
	}
	planeAllocs.Add(1)
	return &Plane{W: w, H: h, Pix: make([]float32, w*h)}
}

// FromSlice wraps pix (length w*h, row-major) in a Plane without copying.
func FromSlice(w, h int, pix []float32) *Plane {
	if len(pix) != w*h {
		panic(fmt.Sprintf("vmath: FromSlice length %d != %d*%d", len(pix), w, h))
	}
	return &Plane{W: w, H: h, Pix: pix}
}

// Clone returns a deep copy of p.
func (p *Plane) Clone() *Plane {
	q := NewPlane(p.W, p.H)
	copy(q.Pix, p.Pix)
	return q
}

// CopyFrom copies src's pixels into p without allocating. Both planes must
// share dimensions. It returns p for chaining. This is the Into form of
// Clone: persistent state (SR history, extractor history) holds a pooled
// plane and refreshes it with CopyFrom each frame.
func (p *Plane) CopyFrom(src *Plane) *Plane {
	checkSameSize(p, src)
	copy(p.Pix, src.Pix)
	return p
}

// At returns the pixel at (x, y). It does not bounds-check; use AtClamp for
// coordinates that may fall outside the plane.
func (p *Plane) At(x, y int) float32 { return p.Pix[y*p.W+x] }

// Set stores v at (x, y).
func (p *Plane) Set(x, y int, v float32) { p.Pix[y*p.W+x] = v }

// AtClamp returns the pixel at (x, y) with coordinates clamped to the plane
// boundary (replicate padding).
func (p *Plane) AtClamp(x, y int) float32 {
	if x < 0 {
		x = 0
	} else if x >= p.W {
		x = p.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= p.H {
		y = p.H - 1
	}
	return p.Pix[y*p.W+x]
}

// Fill sets every pixel to v.
func (p *Plane) Fill(v float32) {
	for i := range p.Pix {
		p.Pix[i] = v
	}
}

// Clamp255 clamps every pixel into the displayable [0, 255] range in place
// and returns p for chaining.
func (p *Plane) Clamp255() *Plane {
	for i, v := range p.Pix {
		if v < 0 {
			p.Pix[i] = 0
		} else if v > 255 {
			p.Pix[i] = 255
		}
	}
	return p
}

// Sub stores a-b into dst (allocating when dst is nil) and returns dst.
// All three planes must share dimensions. Sub and Lerp are purely
// elementwise, so dst MAY alias any operand.
func Sub(dst, a, b *Plane) *Plane {
	checkSameSize(a, b)
	dst = ensure(dst, a.W, a.H)
	for i := range a.Pix {
		dst.Pix[i] = a.Pix[i] - b.Pix[i]
	}
	return dst
}

// AddScaled adds s*q to p in place (p += s*q) and returns p.
func (p *Plane) AddScaled(q *Plane, s float32) *Plane {
	checkSameSize(p, q)
	for i := range p.Pix {
		p.Pix[i] += s * q.Pix[i]
	}
	return p
}

// Lerp blends a and b with per-plane weight w (dst = (1-w)*a + w*b).
func Lerp(dst, a, b *Plane, w float32) *Plane {
	checkSameSize(a, b)
	dst = ensure(dst, a.W, a.H)
	for i := range a.Pix {
		dst.Pix[i] = a.Pix[i] + w*(b.Pix[i]-a.Pix[i])
	}
	return dst
}

// Mean returns the average pixel value, or 0 for an empty plane.
func (p *Plane) Mean() float64 {
	if len(p.Pix) == 0 {
		return 0
	}
	var s float64
	for _, v := range p.Pix {
		s += float64(v)
	}
	return s / float64(len(p.Pix))
}

// MinMax returns the smallest and largest pixel values. For an empty plane
// it returns (0, 0).
func (p *Plane) MinMax() (min, max float32) {
	if len(p.Pix) == 0 {
		return 0, 0
	}
	min, max = p.Pix[0], p.Pix[0]
	for _, v := range p.Pix[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// MSE returns the mean squared error between a and b.
func MSE(a, b *Plane) float64 {
	checkSameSize(a, b)
	if len(a.Pix) == 0 {
		return 0
	}
	var s float64
	for i := range a.Pix {
		d := float64(a.Pix[i] - b.Pix[i])
		s += d * d
	}
	return s / float64(len(a.Pix))
}

// MAE returns the mean absolute error between a and b.
func MAE(a, b *Plane) float64 {
	checkSameSize(a, b)
	if len(a.Pix) == 0 {
		return 0
	}
	var s float64
	for i := range a.Pix {
		s += math.Abs(float64(a.Pix[i] - b.Pix[i]))
	}
	return s / float64(len(a.Pix))
}

// SampleBilinear samples p at the continuous coordinate (x, y) with bilinear
// interpolation and replicate padding at the border.
func (p *Plane) SampleBilinear(x, y float32) float32 {
	x0 := int(math.Floor(float64(x)))
	y0 := int(math.Floor(float64(y)))
	fx := x - float32(x0)
	fy := y - float32(y0)
	v00 := p.AtClamp(x0, y0)
	v10 := p.AtClamp(x0+1, y0)
	v01 := p.AtClamp(x0, y0+1)
	v11 := p.AtClamp(x0+1, y0+1)
	top := v00 + fx*(v10-v00)
	bot := v01 + fx*(v11-v01)
	return top + fy*(bot-top)
}

func ensure(dst *Plane, w, h int) *Plane {
	if dst == nil {
		return NewPlane(w, h)
	}
	if dst.W != w || dst.H != h {
		panic(fmt.Sprintf("vmath: dst size %dx%d != %dx%d", dst.W, dst.H, w, h))
	}
	return dst
}

func checkSameSize(a, b *Plane) {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("vmath: size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
}
