package vmath

// Byte-domain Sobel gradients — the integer twin of GradientsInto /
// GradientMagnitudeInto for the fixed-point tier. On integer-valued
// pixels the Sobel sums here are exactly the float kernel's (float32
// holds ±1020 exactly), so the squared variant is not an approximation:
// it is the float magnitude seen through the strictly monotone map
// m ↦ m². Replicate border padding, identical tap geometry to
// GradientsInto. The inner loops stay scalar: per-pixel squaring of
// clamped 3×3 taps leaves no contiguous 8-lane byte stream for the
// SAD8-style SWAR tricks to feed on, and the gradient is < 4% of the
// fixed tier's frame budget.

// GradientSquaredBytesInto writes gx²+gy² per pixel (max 2·1020² =
// 2 080 800, well inside int32). dst is grown as needed and returned
// with len src.W·src.H. Because the map from squared to true magnitude
// is strictly monotone, any comparison, max or rank statistic computed
// on these values agrees bit-for-bit with the same computation on the
// float magnitudes — this is what lets the byte edge-code path match the
// float extractor exactly without ever taking a square root per pixel.
func GradientSquaredBytesInto(dst []int32, src *BytePlane) []int32 {
	w, h := src.W, src.H
	if cap(dst) < w*h {
		dst = make([]int32, w*h)
	}
	dst = dst[:w*h]
	for y := 0; y < h; y++ {
		ym, yp := y-1, y+1
		if ym < 0 {
			ym = 0
		}
		if yp >= h {
			yp = h - 1
		}
		r0 := src.Pix[ym*w : ym*w+w]
		r1 := src.Pix[y*w : y*w+w]
		r2 := src.Pix[yp*w : yp*w+w]
		out := dst[y*w : y*w+w]
		for x := 0; x < w; x++ {
			xm, xp := x-1, x+1
			if xm < 0 {
				xm = 0
			}
			if xp >= w {
				xp = w - 1
			}
			v00, v20 := int32(r0[xm]), int32(r0[xp])
			v01, v21 := int32(r1[xm]), int32(r1[xp])
			v02, v22 := int32(r2[xm]), int32(r2[xp])
			gx := v20 - v00 + 2*(v21-v01) + v22 - v02
			gy := v02 - v00 + 2*(int32(r2[x])-int32(r0[x])) + v22 - v20
			out[x] = gx*gx + gy*gy
		}
	}
	return dst
}
