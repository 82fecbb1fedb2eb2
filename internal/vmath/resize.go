package vmath

import (
	"math"
	"sync"

	"nerve/internal/par"
)

// Every resampler below parallelises over output-row bands on the shared
// worker pool (internal/par). Each output pixel is a pure function of the
// source plane and its own coordinates — no accumulation crosses rows — so
// the result is bit-identical for any pool size.
//
// Each resampler has an Into form that writes into a caller-supplied dst
// (whose W×H is the output geometry) and allocates nothing, plus the
// original allocating form as a thin wrapper. Into forms write every output
// pixel, so dst may come dirty from the pool; dst must not alias p.

// ResizeNearestInto resamples p to dst's size with nearest-neighbour
// sampling. dst must not alias p.
func ResizeNearestInto(dst, p *Plane) *Plane {
	w, h := dst.W, dst.H
	if w == 0 || h == 0 {
		return dst
	}
	if p.W == 0 || p.H == 0 {
		dst.Fill(0)
		return dst
	}
	sx := float64(p.W) / float64(w)
	sy := float64(p.H) / float64(h)
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			srcY := int((float64(y) + 0.5) * sy)
			if srcY >= p.H {
				srcY = p.H - 1
			}
			row := p.Pix[srcY*p.W:]
			for x := 0; x < w; x++ {
				srcX := int((float64(x) + 0.5) * sx)
				if srcX >= p.W {
					srcX = p.W - 1
				}
				dst.Pix[y*w+x] = row[srcX]
			}
		}
	})
	return dst
}

// ResizeNearest resamples p to w×h with nearest-neighbour sampling.
func ResizeNearest(p *Plane, w, h int) *Plane {
	return ResizeNearestInto(NewPlane(w, h), p)
}

// lerpTap is one axis sample of the pixel-centre bilinear lattice: two
// clamped source indices and the float32 fraction between them — exactly
// the values SampleBilinear would derive per pixel, hoisted out of the
// inner loop. Border taps carry i0 == i1, which makes the lerp collapse to
// the replicated sample for any fraction, reproducing AtClamp bit-for-bit.
type lerpTap struct {
	i0, i1 int32
	f      float32
}

// lerpTapCache caches per-axis bilinear taps keyed by (src, dst) extent —
// same idiom as the separable-convolution tap cache. Resize geometries are
// static per stream, so steady state never recomputes (or allocates) taps.
var lerpTapCache = struct {
	sync.RWMutex
	m map[[2]int][]lerpTap
}{m: map[[2]int][]lerpTap{}}

func lerpTapsFor(src, dst int) []lerpTap {
	key := [2]int{src, dst}
	lerpTapCache.RLock()
	t := lerpTapCache.m[key]
	lerpTapCache.RUnlock()
	if t != nil {
		return t
	}
	t = make([]lerpTap, dst)
	s := float64(src) / float64(dst)
	for i := 0; i < dst; i++ {
		// The same float32 position SampleBilinear receives, floored and
		// fractioned exactly as it would.
		f := float32((float64(i)+0.5)*s - 0.5)
		i0 := int(math.Floor(float64(f)))
		fr := f - float32(i0)
		j0, j1 := i0, i0+1
		if j0 < 0 {
			j0 = 0
		} else if j0 >= src {
			j0 = src - 1
		}
		if j1 < 0 {
			j1 = 0
		} else if j1 >= src {
			j1 = src - 1
		}
		t[i] = lerpTap{i0: int32(j0), i1: int32(j1), f: fr}
	}
	lerpTapCache.Lock()
	lerpTapCache.m[key] = t
	lerpTapCache.Unlock()
	return t
}

// ResizeBilinearInto resamples p to dst's size with bilinear interpolation
// using pixel-centre alignment. dst must not alias p. Sample positions and
// lerp arithmetic are identical to per-pixel SampleBilinear calls (the
// taps are precomputed, the float32 operations are not reordered), so
// outputs are bit-identical to the historical formulation.
func ResizeBilinearInto(dst, p *Plane) *Plane {
	w, h := dst.W, dst.H
	if w == 0 || h == 0 {
		return dst
	}
	if p.W == 0 || p.H == 0 {
		dst.Fill(0)
		return dst
	}
	xt := lerpTapsFor(p.W, w)
	yt := lerpTapsFor(p.H, h)
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			ty := yt[y]
			row0 := p.Pix[int(ty.i0)*p.W : int(ty.i0)*p.W+p.W]
			row1 := p.Pix[int(ty.i1)*p.W : int(ty.i1)*p.W+p.W]
			fy := ty.f
			drow := dst.Pix[y*w : y*w+w]
			for x := 0; x < w; x++ {
				tx := xt[x]
				v00 := row0[tx.i0]
				v10 := row0[tx.i1]
				v01 := row1[tx.i0]
				v11 := row1[tx.i1]
				top := v00 + tx.f*(v10-v00)
				bot := v01 + tx.f*(v11-v01)
				drow[x] = top + fy*(bot-top)
			}
		}
	})
	return dst
}

// ResizeBilinear resamples p to w×h with bilinear interpolation using
// pixel-centre alignment (the convention used by video scalers).
func ResizeBilinear(p *Plane, w, h int) *Plane {
	return ResizeBilinearInto(NewPlane(w, h), p)
}

// cubicWeight is the Catmull-Rom (a = -0.5) cubic convolution kernel.
func cubicWeight(t float64) float64 {
	const a = -0.5
	t = math.Abs(t)
	switch {
	case t <= 1:
		return (a+2)*t*t*t - (a+3)*t*t + 1
	case t < 2:
		return a*t*t*t - 5*a*t*t + 8*a*t - 4*a
	default:
		return 0
	}
}

// ResizeBicubicInto resamples p to dst's size with Catmull-Rom bicubic
// interpolation. dst must not alias p.
func ResizeBicubicInto(dst, p *Plane) *Plane {
	w, h := dst.W, dst.H
	if w == 0 || h == 0 {
		return dst
	}
	if p.W == 0 || p.H == 0 {
		dst.Fill(0)
		return dst
	}
	sx := float64(p.W) / float64(w)
	sy := float64(p.H) / float64(h)
	par.ForRows(h, func(yb0, yb1 int) {
		for y := yb0; y < yb1; y++ {
			fy := (float64(y)+0.5)*sy - 0.5
			y0 := int(math.Floor(fy))
			dy := fy - float64(y0)
			var wy [4]float64
			for j := 0; j < 4; j++ {
				wy[j] = cubicWeight(float64(j-1) - dy)
			}
			for x := 0; x < w; x++ {
				fx := (float64(x)+0.5)*sx - 0.5
				x0 := int(math.Floor(fx))
				dx := fx - float64(x0)
				var wx [4]float64
				for i := 0; i < 4; i++ {
					wx[i] = cubicWeight(float64(i-1) - dx)
				}
				var acc, wsum float64
				for j := 0; j < 4; j++ {
					for i := 0; i < 4; i++ {
						wgt := wx[i] * wy[j]
						acc += wgt * float64(p.AtClamp(x0+i-1, y0+j-1))
						wsum += wgt
					}
				}
				if wsum != 0 {
					acc /= wsum
				}
				dst.Pix[y*w+x] = float32(acc)
			}
		}
	})
	return dst
}

// ResizeBicubic resamples p to w×h with Catmull-Rom bicubic interpolation.
// This is the "Bicubic" upsampling baseline used in the SR comparisons.
func ResizeBicubic(p *Plane, w, h int) *Plane {
	return ResizeBicubicInto(NewPlane(w, h), p)
}

// DownsampleInto box-averages p by an integer factor in each dimension into
// dst, whose size must be exactly (p.W/fx)×(p.H/fy). dst must not alias p.
func DownsampleInto(dst, p *Plane, fx, fy int) *Plane {
	if fx < 1 || fy < 1 {
		panic("vmath: Downsample factor must be >= 1")
	}
	w := p.W / fx
	h := p.H / fy
	dst = ensure(dst, w, h)
	inv := 1.0 / float32(fx*fy)
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < w; x++ {
				var s float32
				for j := 0; j < fy; j++ {
					row := p.Pix[(y*fy+j)*p.W+x*fx:]
					for i := 0; i < fx; i++ {
						s += row[i]
					}
				}
				dst.Pix[y*w+x] = s * inv
			}
		}
	})
	return dst
}
