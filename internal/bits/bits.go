// Package bits provides the bit-level I/O primitives used by the video
// codec's entropy coder: an MSB-first bit writer/reader and Exp-Golomb
// (universal) codes for unsigned and signed integers, the same family of
// codes H.264/H.265 use for header and residual syntax elements.
package bits

import (
	"errors"
	"math"
	"math/bits"
)

// ErrOutOfData is returned when a read runs past the end of the stream.
var ErrOutOfData = errors.New("bits: out of data")

// Writer accumulates bits MSB-first into a byte slice. The zero value is
// ready to use.
type Writer struct {
	buf  []byte
	cur  byte
	nCur uint // bits currently held in cur (0..7)
}

// WriteBit appends a single bit (any non-zero b writes 1).
func (w *Writer) WriteBit(b int) {
	w.cur <<= 1
	if b != 0 {
		w.cur |= 1
	}
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic("bits: WriteBits n > 64")
	}
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(int(v >> uint(i) & 1))
	}
}

// WriteUE writes v with the unsigned Exp-Golomb code: ⌊log2(v+1)⌋ zero bits,
// then the binary of v+1.
func (w *Writer) WriteUE(v uint32) {
	x := uint64(v) + 1
	n := uint(bits.Len64(x)) // total bits of x
	w.WriteBits(0, n-1)
	w.WriteBits(x, n)
}

// WriteSE writes v with the signed Exp-Golomb mapping
// (0, 1, -1, 2, -2, …) → (0, 1, 2, 3, 4, …). The mapping covers
// [-MaxInt32, MaxInt32], what ReadSE can return; v = math.MinInt32 has no
// code and panics rather than wrapping to the code for 0.
func (w *Writer) WriteSE(v int32) {
	if v == math.MinInt32 {
		panic("bits: WriteSE(math.MinInt32) has no signed Exp-Golomb code")
	}
	var u uint32
	if v > 0 {
		u = uint32(v)*2 - 1
	} else {
		u = uint32(-v) * 2
	}
	w.WriteUE(u)
}

// Append appends the full bit content of other — including any partial
// final byte — to w, exactly as if other's bits had been written to w
// directly. other is not modified. This is what lets independently encoded
// bitstream fragments (e.g. macroblock rows encoded in parallel) be joined
// into a stream bit-identical to sequential encoding.
func (w *Writer) Append(other *Writer) {
	if w.nCur == 0 {
		w.buf = append(w.buf, other.buf...)
	} else {
		for _, b := range other.buf {
			w.WriteBits(uint64(b), 8)
		}
	}
	if other.nCur > 0 {
		w.WriteBits(uint64(other.cur), other.nCur)
	}
}

// Len returns the number of complete bytes written so far (excluding any
// partial final byte).
func (w *Writer) Len() int { return len(w.buf) }

// BitLen returns the total number of bits written.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.nCur) }

// Bytes flushes any partial byte (zero-padded on the right) and returns the
// encoded buffer. The writer may continue to be used afterwards, but the
// padding bits become part of the stream.
func (w *Writer) Bytes() []byte {
	if w.nCur > 0 {
		w.cur <<= 8 - w.nCur
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos uint // bit position
}

// NewReader returns a reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBit returns the next bit.
func (r *Reader) ReadBit() (int, error) {
	if r.pos >= uint(len(r.buf))*8 {
		return 0, ErrOutOfData
	}
	b := r.buf[r.pos>>3] >> (7 - r.pos&7) & 1
	r.pos++
	return int(b), nil
}

// ReadBits returns the next n bits as an unsigned integer, MSB first.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic("bits: ReadBits n > 64")
	}
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// ReadUE decodes an unsigned Exp-Golomb value.
func (r *Reader) ReadUE() (uint32, error) {
	var zeros uint
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 32 {
			return 0, errors.New("bits: malformed Exp-Golomb code")
		}
	}
	rest, err := r.ReadBits(zeros)
	if err != nil {
		return 0, err
	}
	v := uint64(1)<<zeros + rest - 1
	if v > math.MaxUint32 {
		return 0, errors.New("bits: Exp-Golomb value exceeds 32 bits")
	}
	return uint32(v), nil
}

// ReadSE decodes a signed Exp-Golomb value.
func (r *Reader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		if u == math.MaxUint32 {
			// Maps to 2^31, one past math.MaxInt32.
			return 0, errors.New("bits: signed Exp-Golomb value exceeds int32")
		}
		return int32(u/2 + 1), nil
	}
	return -int32(u / 2), nil
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return len(r.buf)*8 - int(r.pos) }
