package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire format of an encoded frame (big-endian):
//
//	u32 magic 'NRVF' | u32 index | u8 type | u16 w | u16 h | u16 nSlices
//	per slice: u16 rowStart | u16 rowCount | u32 qBits | u32 len | bytes
//
// The encoder-side reconstruction (Recon) is local state and is not
// transmitted.
const frameMagic = 0x4E525646 // "NRVF"

// MarshalBinary serialises the frame for transmission.
func (f *EncodedFrame) MarshalBinary() ([]byte, error) {
	if f.W < 0 || f.W > 0xFFFF || f.H < 0 || f.H > 0xFFFF {
		return nil, fmt.Errorf("codec: dimensions %dx%d out of wire range", f.W, f.H)
	}
	if len(f.Slices) > 0xFFFF {
		return nil, fmt.Errorf("codec: %d slices exceed wire range", len(f.Slices))
	}
	size := 4 + 4 + 1 + 2 + 2 + 2
	for i := range f.Slices {
		size += 2 + 2 + 4 + 4 + len(f.Slices[i].Data)
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint32(out, frameMagic)
	out = binary.BigEndian.AppendUint32(out, uint32(f.Index))
	out = append(out, byte(f.Type))
	out = binary.BigEndian.AppendUint16(out, uint16(f.W))
	out = binary.BigEndian.AppendUint16(out, uint16(f.H))
	out = binary.BigEndian.AppendUint16(out, uint16(len(f.Slices)))
	for i := range f.Slices {
		s := &f.Slices[i]
		if s.MBRowStart < 0 || s.MBRowStart > 0xFFFF || s.MBRowCount < 0 || s.MBRowCount > 0xFFFF {
			return nil, fmt.Errorf("codec: slice rows %d+%d out of wire range", s.MBRowStart, s.MBRowCount)
		}
		out = binary.BigEndian.AppendUint16(out, uint16(s.MBRowStart))
		out = binary.BigEndian.AppendUint16(out, uint16(s.MBRowCount))
		out = binary.BigEndian.AppendUint32(out, math.Float32bits(s.Q))
		out = binary.BigEndian.AppendUint32(out, uint32(len(s.Data)))
		out = append(out, s.Data...)
	}
	return out, nil
}

// UnmarshalBinary parses a MarshalBinary payload. Recon is left nil.
func (f *EncodedFrame) UnmarshalBinary(data []byte) error {
	if len(data) < 15 {
		return fmt.Errorf("codec: frame payload too short (%d bytes)", len(data))
	}
	if binary.BigEndian.Uint32(data) != frameMagic {
		return fmt.Errorf("codec: bad frame magic %#x", binary.BigEndian.Uint32(data))
	}
	f.Index = int(binary.BigEndian.Uint32(data[4:]))
	f.Type = FrameType(data[8])
	if f.Type != FrameI && f.Type != FrameP {
		return fmt.Errorf("codec: bad frame type %d", f.Type)
	}
	f.W = int(binary.BigEndian.Uint16(data[9:]))
	f.H = int(binary.BigEndian.Uint16(data[11:]))
	n := int(binary.BigEndian.Uint16(data[13:]))
	// Every slice takes at least its 12-byte header, so a count the payload
	// cannot hold is rejected before it sizes the slice list.
	if n > (len(data)-15)/12 {
		return fmt.Errorf("codec: %d slices in a %d-byte payload", n, len(data))
	}
	f.Recon = nil
	f.Slices = make([]Slice, 0, n)
	off := 15
	for i := 0; i < n; i++ {
		if len(data)-off < 12 {
			return fmt.Errorf("codec: truncated slice header %d", i)
		}
		var s Slice
		s.FrameIndex = f.Index
		s.Type = f.Type
		s.MBRowStart = int(binary.BigEndian.Uint16(data[off:]))
		s.MBRowCount = int(binary.BigEndian.Uint16(data[off+2:]))
		s.Q = math.Float32frombits(binary.BigEndian.Uint32(data[off+4:]))
		dlen := int(binary.BigEndian.Uint32(data[off+8:]))
		off += 12
		if dlen < 0 || len(data)-off < dlen {
			return fmt.Errorf("codec: truncated slice data %d (%d bytes)", i, dlen)
		}
		s.Data = append([]byte(nil), data[off:off+dlen]...)
		off += dlen
		f.Slices = append(f.Slices, s)
	}
	if off != len(data) {
		return fmt.Errorf("codec: %d trailing bytes", len(data)-off)
	}
	return nil
}
