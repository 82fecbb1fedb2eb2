package vmath

import "testing"

func TestPixelByteRounding(t *testing.T) {
	cases := []struct {
		in   float32
		want uint8
	}{
		{-10, 0}, {-0.001, 0}, {0, 0}, {0.49, 0}, {0.5, 1},
		{127.4, 127}, {127.5, 128}, {254.4, 254}, {254.5, 255},
		{255, 255}, {300, 255},
	}
	for _, c := range cases {
		if got := PixelByte(c.in); got != c.want {
			t.Fatalf("PixelByte(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestBytePlaneFromPlane(t *testing.T) {
	src := NewPlane(5, 3)
	for i := range src.Pix {
		src.Pix[i] = float32(i) * 20.4
	}
	src.Pix[0] = -7
	src.Pix[1] = 300
	b := NewBytePlane(5, 3).FromPlane(src)
	for i, v := range src.Pix {
		if b.Pix[i] != PixelByte(v) {
			t.Fatalf("pixel %d: %d, want %d", i, b.Pix[i], PixelByte(v))
		}
	}
	if b.Pix[1] != 255 || b.AtClamp(-3, 99) != b.Pix[2*b.W] {
		t.Fatal("AtClamp disagrees with layout")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	NewBytePlane(4, 3).FromPlane(src)
}

func TestBytePoolBucketReuse(t *testing.T) {
	var p BytePool
	a := p.Get(20, 10)
	aPix := &a.Pix[:1][0]
	p.Put(a)
	// Same bucket (200 → 256): must reuse the same backing array.
	b := p.Get(16, 16)
	if &b.Pix[:1][0] != aPix {
		t.Fatal("bucket did not reuse the freed backing array")
	}
	if b.W != 16 || b.H != 16 || len(b.Pix) != 256 {
		t.Fatalf("reused plane geometry %dx%d len %d", b.W, b.H, len(b.Pix))
	}
	p.Put(b)
}

// TestBytePoolBucketBound: the byte pool bounds its buckets like Pool.
func TestBytePoolBucketBound(t *testing.T) {
	var p BytePool
	for i := 0; i < freeListMax+2; i++ {
		p.Put(NewBytePlane(8, 8))
	}
	if s := p.Stats(); s.Puts != freeListMax || s.Drops != 2 {
		t.Fatalf("after %d Puts: %+v, want %d puts 2 drops", freeListMax+2, s, freeListMax)
	}
}

func TestBytePoolStats(t *testing.T) {
	var p BytePool
	a := p.Get(8, 8) // exact 64-byte bucket
	if s := p.Stats(); s.Misses != 1 || s.BytesLive != 64 {
		t.Fatalf("after Get: %+v", s)
	}
	p.Put(a)
	if s := p.Stats(); s.Puts != 1 || s.BytesLive != 0 {
		t.Fatalf("after Put: %+v", s)
	}
	// Foreign plane with non-bucket capacity is dropped.
	p.Put(&BytePlane{W: 3, H: 3, Pix: make([]uint8, 9)})
	if s := p.Stats(); s.Drops != 1 {
		t.Fatalf("foreign Put not dropped: %+v", s)
	}
}

func TestBytePoolMissCountsPlaneAlloc(t *testing.T) {
	var p BytePool
	before := PlaneAllocs()
	pl := p.Get(32, 32)
	if d := PlaneAllocs() - before; d != 1 {
		t.Fatalf("pool miss moved PlaneAllocs by %d, want 1", d)
	}
	p.Put(pl)
	before = PlaneAllocs()
	pl = p.Get(32, 32)
	if d := PlaneAllocs() - before; d != 0 {
		t.Fatalf("pool hit moved PlaneAllocs by %d, want 0", d)
	}
	p.Put(pl)
}
