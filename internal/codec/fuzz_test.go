package codec

import (
	"testing"

	"nerve/internal/video"
	"nerve/internal/vmath"
)

// FuzzDecode feeds arbitrary bytes through the client's wire path: the
// frame is unmarshalled, then decoded against a warm reference with the
// slices that keep's bits select (bit i for slice i, all of them past 64).
// The decoder must never panic, count no more rows than the frame has,
// return a mask exactly when a row is missing, and write only displayable
// pixels.
//
//	go test -run='^$' -fuzz=FuzzDecode -fuzztime=10s ./internal/codec/
func FuzzDecode(f *testing.F) {
	// A small frame keeps the seeds under 1 KB, so the
	// fuzzer's minimisation of each new input stays short.
	cfg := Config{W: 48, H: 32, GOP: 60, TargetBitrate: 200e3, PacketPayload: 100}
	enc := NewEncoder(cfg)
	g := video.NewGenerator(video.Categories()[3], 3)
	efs := make([]*EncodedFrame, 3)
	for i := range efs {
		efs[i] = enc.Encode(g.Render(i, cfg.W, cfg.H))
	}
	for _, ef := range []*EncodedFrame{efs[0], efs[2]} { // an I frame and a P frame
		wire, err := ef.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire, ^uint64(0))
		f.Add(wire, uint64(0b10))
	}
	dec := NewDecoder(cfg)
	warm, err := dec.Decode(efs[0], nil)
	if err != nil {
		f.Fatal(err)
	}
	ref := warm.Frame
	f.Fuzz(func(t *testing.T, wire []byte, keep uint64) {
		var ef EncodedFrame
		if ef.UnmarshalBinary(wire) != nil {
			return
		}
		received := make([]bool, len(ef.Slices))
		for i := range received {
			received[i] = i >= 64 || keep>>i&1 == 1
		}
		dec.SetReference(ref)
		res, err := dec.Decode(&ef, received)
		if err != nil {
			return
		}
		dec.SetReference(ref)
		defer vmath.Put(res.Frame)
		defer vmath.Put(res.Mask)
		if res.RowsReceived > res.RowsTotal {
			t.Fatalf("%d rows received of %d", res.RowsReceived, res.RowsTotal)
		}
		if (res.Mask == nil) != res.Complete() {
			t.Fatalf("mask returned = %v with %d of %d rows", res.Mask != nil, res.RowsReceived, res.RowsTotal)
		}
		for i, v := range res.Frame.Pix {
			if !(v >= 0 && v <= 255) {
				t.Fatalf("pixel %d = %v", i, v)
			}
		}
	})
}
