package vmath

import (
	"math"
	"sync"

	"nerve/internal/par"
)

// ConvolveSeparableInto applies a separable filter — the horizontal tap
// vector kx, then the vertical tap vector ky (both odd length), replicate
// padding — writing into dst (same size as p). The intermediate comes from
// the plane pool and is returned to it, so the steady-state cost is zero
// allocations. dst MAY alias p: the source is fully consumed into the
// intermediate before dst is written. Both passes parallelise over row
// bands; the vertical pass reads the fully written horizontal
// intermediate, which the pool's completion barrier guarantees.
//
// Only outputs whose taps reach past the border read through AtClamp;
// interior outputs read the row slices directly. Every output sums its
// taps in the same order either way, so the two paths agree bit for bit.
func ConvolveSeparableInto(dst, p *Plane, kx, ky []float32) *Plane {
	if len(kx)%2 == 0 || len(ky)%2 == 0 {
		panic("vmath: ConvolveSeparable needs odd tap vectors")
	}
	dst = ensure(dst, p.W, p.H)
	w, h := p.W, p.H
	rx := len(kx) / 2
	// Columns [x0, x1) have every horizontal tap inside the row.
	x0, x1 := interiorSpan(w, rx)
	tmp := Get(w, h)
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			row := p.Pix[y*w : y*w+w]
			out := tmp.Pix[y*w : y*w+w]
			for x := range out {
				var s float32
				if x < x0 || x >= x1 {
					for i, wt := range kx {
						s += wt * p.AtClamp(x+i-rx, y)
					}
				} else {
					win := row[x-rx : x-rx+len(kx)]
					for i, wt := range kx {
						s += wt * win[i]
					}
				}
				out[x] = s
			}
		}
	})
	ry := len(ky) / 2
	// Rows [iy0, iy1) have every vertical tap inside the plane.
	iy0, iy1 := interiorSpan(h, ry)
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			out := dst.Pix[y*w : y*w+w]
			if y < iy0 || y >= iy1 {
				for x := range out {
					var s float32
					for j, wt := range ky {
						s += wt * tmp.AtClamp(x, y+j-ry)
					}
					out[x] = s
				}
				continue
			}
			top := (y - ry) * w
			for x := range out {
				var s float32
				for j, wt := range ky {
					s += wt * tmp.Pix[top+j*w+x]
				}
				out[x] = s
			}
		}
	})
	Put(tmp)
	return dst
}

// interiorSpan returns the range [lo, hi) of the n positions whose radius-r
// neighbourhood lies inside [0, n); it is empty (lo == hi) when n ≤ 2r.
func interiorSpan(n, r int) (lo, hi int) {
	lo, hi = r, n-r
	if hi < lo {
		lo, hi = n, n
	}
	return lo, hi
}

// ConvolveSeparable applies a separable filter: first the horizontal tap
// vector kx, then the vertical tap vector ky (both odd length), with
// replicate padding. This is the fast path used by blurs.
func ConvolveSeparable(p *Plane, kx, ky []float32) *Plane {
	return ConvolveSeparableInto(NewPlane(p.W, p.H), p, kx, ky)
}

// GaussianKernel1D returns normalised Gaussian taps for the given sigma.
// The radius is ceil(3*sigma), clamped to at least 1.
func GaussianKernel1D(sigma float64) []float32 {
	if sigma <= 0 {
		return []float32{1}
	}
	r := int(math.Ceil(3 * sigma))
	if r < 1 {
		r = 1
	}
	taps := make([]float32, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		taps[i+r] = float32(v)
		sum += v
	}
	for i := range taps {
		taps[i] = float32(float64(taps[i]) / sum)
	}
	return taps
}

// GaussianBlurInto blurs p into dst with an isotropic Gaussian of the given
// sigma. dst may alias p (see ConvolveSeparableInto). Per-frame callers
// should cache GaussianKernel1D taps and call ConvolveSeparableInto
// directly to avoid recomputing them.
func GaussianBlurInto(dst, p *Plane, sigma float64) *Plane {
	taps := gaussianTaps(sigma)
	return ConvolveSeparableInto(dst, p, taps, taps)
}

// gaussTaps caches Gaussian tap vectors per sigma: the pipeline blurs with
// a handful of fixed sigmas every frame, and caching keeps the warm
// GaussianBlurInto path allocation-free. Cached slices are shared and must
// never be mutated.
var gaussTaps struct {
	sync.RWMutex
	m map[float64][]float32
}

func gaussianTaps(sigma float64) []float32 {
	gaussTaps.RLock()
	t := gaussTaps.m[sigma]
	gaussTaps.RUnlock()
	if t != nil {
		return t
	}
	t = GaussianKernel1D(sigma)
	gaussTaps.Lock()
	if gaussTaps.m == nil {
		gaussTaps.m = make(map[float64][]float32)
	}
	gaussTaps.m[sigma] = t
	gaussTaps.Unlock()
	return t
}

// GaussianBlur blurs p with an isotropic Gaussian of the given sigma.
func GaussianBlur(p *Plane, sigma float64) *Plane {
	return GaussianBlurInto(NewPlane(p.W, p.H), p, sigma)
}

// GradientsInto computes both Sobel gradients of p in a single pass,
// writing the horizontal response into gx and the vertical into gy (both
// sized like p). Neither destination may alias p. Rows 1…H−2 read three
// row slices directly and only the border pixels read through AtClamp;
// both paths run the same operations in the same order.
func GradientsInto(gx, gy, p *Plane) *Plane {
	gx = ensure(gx, p.W, p.H)
	gy = ensure(gy, p.W, p.H)
	w, h := p.W, p.H
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			if y == 0 || y == h-1 || w < 3 {
				for x := 0; x < w; x++ {
					sobelClamp(gx, gy, p, x, y)
				}
				continue
			}
			up := p.Pix[(y-1)*w : y*w]
			mid := p.Pix[y*w : (y+1)*w]
			dn := p.Pix[(y+1)*w : (y+2)*w]
			ox := gx.Pix[y*w : (y+1)*w]
			oy := gy.Pix[y*w : (y+1)*w]
			sobelClamp(gx, gy, p, 0, y)
			for x := 1; x < w-1; x++ {
				v00, v10, v20 := up[x-1], up[x], up[x+1]
				v01, v21 := mid[x-1], mid[x+1]
				v02, v12, v22 := dn[x-1], dn[x], dn[x+1]
				ox[x], oy[x] = sobel(v00, v10, v20, v01, v21, v02, v12, v22)
			}
			sobelClamp(gx, gy, p, w-1, y)
		}
	})
	return gx
}

// sobelClamp writes the Sobel responses at (x, y) with replicate padding.
func sobelClamp(gx, gy, p *Plane, x, y int) {
	gx.Pix[y*p.W+x], gy.Pix[y*p.W+x] = sobel(
		p.AtClamp(x-1, y-1), p.AtClamp(x, y-1), p.AtClamp(x+1, y-1),
		p.AtClamp(x-1, y), p.AtClamp(x+1, y),
		p.AtClamp(x-1, y+1), p.AtClamp(x, y+1), p.AtClamp(x+1, y+1))
}

// sobel combines the eight neighbours of a pixel (row by row, the centre
// left out) into the horizontal and vertical Sobel responses.
func sobel(v00, v10, v20, v01, v21, v02, v12, v22 float32) (sx, sy float32) {
	sx += -v00
	sx += v20
	sx += -2 * v01
	sx += 2 * v21
	sx += -v02
	sx += v22
	sy += -v00
	sy += -2 * v10
	sy += -v20
	sy += v02
	sy += 2 * v12
	sy += v22
	return sx, sy
}

// GradientMagnitudeInto computes sqrt(gx²+gy²) of the Sobel gradients of p
// in one fused pass, with pooled scratch for the two gradient planes. dst
// must not alias p.
func GradientMagnitudeInto(dst, p *Plane) *Plane {
	dst = ensure(dst, p.W, p.H)
	gx := Get(p.W, p.H)
	gy := Get(p.W, p.H)
	GradientsInto(gx, gy, p)
	for i := range dst.Pix {
		dst.Pix[i] = float32(math.Hypot(float64(gx.Pix[i]), float64(gy.Pix[i])))
	}
	Put(gx)
	Put(gy)
	return dst
}

// UnsharpMaskInto sharpens p into dst by amount·(p − blur(p, sigma)),
// clamping nothing. The blur is materialised into pooled scratch first, so
// dst MAY alias p.
func UnsharpMaskInto(dst, p *Plane, sigma, amount float64) *Plane {
	dst = ensure(dst, p.W, p.H)
	blur := Get(p.W, p.H)
	GaussianBlurInto(blur, p, sigma)
	a := float32(amount)
	for i := range dst.Pix {
		dst.Pix[i] = p.Pix[i] + a*(p.Pix[i]-blur.Pix[i])
	}
	Put(blur)
	return dst
}
