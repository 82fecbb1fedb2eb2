package edgecode

import (
	"fmt"

	"nerve/internal/bits"
)

// Compress packs the code with run-length Exp-Golomb coding of the gaps
// between set bits. Binary point codes are sparse (≈14% density) and
// spatially clustered, so this typically cuts the side-channel payload well
// below the raw 1 KB bitmap — an extension beyond the paper, which sends
// the bitmap raw. The encoding is lossless.
func (c *Code) Compress() []byte {
	var w bits.Writer
	w.WriteBits(uint64(c.W), 16)
	w.WriteBits(uint64(c.H), 16)
	// Gap coding: distance from the previous set bit (first gap from -1).
	prev := -1
	n := c.W * c.H
	for i := 0; i < n; i++ {
		if c.Bits[i>>3]>>(7-uint(i&7))&1 == 1 {
			w.WriteUE(uint32(i - prev - 1))
			prev = i
		}
	}
	// Terminator: gap past the end marks "no more bits".
	w.WriteUE(uint32(n - prev))
	return w.Bytes()
}

// maxCodeBits bounds the W·H a compressed header may declare, so a short
// hostile payload cannot make Decompress allocate a huge bitmap. It is 32×
// the largest code geometry in use (256×128).
const maxCodeBits = 1 << 20

// Decompress reconstructs a code packed by Compress.
func Decompress(data []byte) (*Code, error) {
	r := bits.NewReader(data)
	wv, err := r.ReadBits(16)
	if err != nil {
		return nil, fmt.Errorf("edgecode: short compressed header: %w", err)
	}
	hv, err := r.ReadBits(16)
	if err != nil {
		return nil, fmt.Errorf("edgecode: short compressed header: %w", err)
	}
	if wv*hv > maxCodeBits {
		return nil, fmt.Errorf("edgecode: compressed code is %dx%d, over %d bits", wv, hv, maxCodeBits)
	}
	c := NewCode(int(wv), int(hv))
	n := c.W * c.H
	pos := -1
	for {
		gap, err := r.ReadUE()
		if err != nil {
			return nil, fmt.Errorf("edgecode: truncated compressed code: %w", err)
		}
		// A gap that reaches n or past it is the terminator. The test is
		// made before the add: on a 32-bit platform int(gap) can wrap pos
		// negative.
		if gap >= uint32(n-pos-1) {
			break
		}
		pos += int(gap) + 1
		c.Bits[pos>>3] |= 1 << (7 - uint(pos&7))
	}
	return c, nil
}
