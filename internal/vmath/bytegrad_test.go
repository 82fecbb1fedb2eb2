package vmath

import (
	"math/rand"
	"testing"
)

// The squared byte gradient must equal gx²+gy² of the float Sobel
// gradients exactly on integer-valued planes — this exactness is what
// the byte edge-code path's bit-identity with the float extractor
// rests on.
func TestGradientSquaredBytesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bp := NewBytePlane(97, 53) // odd dims exercise the clamped borders
	for i := range bp.Pix {
		bp.Pix[i] = uint8(rng.Intn(256))
	}
	fp := bp.ToPlane(NewPlane(bp.W, bp.H))
	gx, gy := NewPlane(bp.W, bp.H), NewPlane(bp.W, bp.H)
	GradientsInto(gx, gy, fp)

	got := GradientSquaredBytesInto(nil, bp)
	for i := range got {
		fx, fy := int32(gx.Pix[i]), int32(gy.Pix[i])
		if want := fx*fx + fy*fy; got[i] != want {
			t.Fatalf("pixel %d: squared gradient %d, float Sobel gives %d", i, got[i], want)
		}
	}
}

// The kernel reuses a caller-grown buffer without reallocating.
func TestGradientBytesIntoReuse(t *testing.T) {
	bp := NewBytePlane(32, 16)
	sq := make([]int32, 0, 32*16)
	if got := GradientSquaredBytesInto(sq, bp); cap(got) != cap(sq) {
		t.Fatal("squared kernel reallocated a sufficient buffer")
	}
}

func BenchmarkGradientSquaredBytes(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	bp := NewBytePlane(256, 128)
	for i := range bp.Pix {
		bp.Pix[i] = uint8(rng.Intn(256))
	}
	dst := make([]int32, bp.W*bp.H)
	b.SetBytes(int64(bp.W * bp.H))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GradientSquaredBytesInto(dst, bp)
	}
}
