package edgecode

import (
	"bytes"
	"testing"
)

// FuzzDecompress checks the side channel's code decoder against arbitrary
// payloads: Decompress must never panic, any code it accepts must be
// internally consistent (bitmap sized to the header geometry, geometry
// within maxCodeBits, pad bits clear), and compressing the accepted code
// must decode back to the same code.
func FuzzDecompress(f *testing.F) {
	f.Add(NewCode(DefaultW, DefaultH).Compress())
	f.Add(NewCode(8, 4).Compress())
	f.Add([]byte{})
	f.Add([]byte{0, 32, 0, 16, 0})              // body shorter than its terminator
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x80}) // 65535×65535 header
	f.Add([]byte{0, 0, 0, 0, 0x80})             // zero geometry
	exact := NewCode(8, 1)
	exact.Bits[0] = 0xAA
	f.Add(exact.Compress())

	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := Decompress(b)
		if err != nil {
			return
		}
		n := c.W * c.H
		if n > maxCodeBits {
			t.Fatalf("accepted %dx%d code, over the %d-bit bound", c.W, c.H, maxCodeBits)
		}
		if got, want := len(c.Bits), (n+7)/8; got != want {
			t.Fatalf("accepted %dx%d code with %d bitmap bytes, want %d", c.W, c.H, got, want)
		}
		if n%8 != 0 && c.Bits[len(c.Bits)-1]<<(n%8) != 0 {
			t.Fatalf("accepted %dx%d code with pad bits set", c.W, c.H)
		}
		back, err := Decompress(c.Compress())
		if err != nil {
			t.Fatalf("accepted code fails to decode after Compress: %v", err)
		}
		if back.W != c.W || back.H != c.H || !bytes.Equal(back.Bits, c.Bits) {
			t.Fatalf("Compress/Decompress changed a %dx%d code", c.W, c.H)
		}
	})
}
