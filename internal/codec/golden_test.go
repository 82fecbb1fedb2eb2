package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"nerve/internal/video"
	"nerve/internal/vmath"
)

// goldenDigests pins the default build's bitstream and reconstruction on
// a seeded clip. Any change to the transform, quantiser, entropy coder,
// rate control or wire format moves these digests; a change that should
// leave the bitstream alone (a refactor, a rounding guard that emits no
// instruction on amd64) must leave them exactly as they are.
var goldenDigests = []struct {
	bitrate         float64
	stream, decoded string
}{
	{
		bitrate: 150e3,
		stream:  "99495e3a090a9d896205fdcffa839ded6c5005423ac6c26921d0e79212238492",
		decoded: "3d71d03adc1226185a771ce4c603a52bdf19384bb97bc179ca451c11b8831084",
	},
	{
		bitrate: 900e3,
		stream:  "4d6d0a8c8dd8f1bdd83d1d5c262a26e77d261b1f2a449433d88e1feef9949d14",
		decoded: "ba655c806324c910ca4b9681ac795625e696b5f4c16a507fc1ee1c17a37dfafe",
	},
}

// TestGoldenBitstream encodes one GOP (an I-frame and seven P-frames) of a
// seeded clip at two bitrates — rate control settles on a different
// quantiser for each — marshals every frame, decodes the unmarshalled
// frames with a fresh decoder and compares SHA-256 digests of the wire
// bytes and of the decoded planes against the pinned values.
func TestGoldenBitstream(t *testing.T) {
	g := video.NewGenerator(video.Categories()[1], 7)
	frames := make([]*vmath.Plane, 8)
	for i := range frames {
		frames[i] = g.Render(i, 160, 96)
	}
	for _, want := range goldenDigests {
		cfg := Config{W: 160, H: 96, GOP: len(frames), TargetBitrate: want.bitrate}
		enc := NewEncoder(cfg)
		dec := NewDecoder(cfg)
		stream, decoded := sha256.New(), sha256.New()
		qs := map[float32]bool{}
		for i, f := range frames {
			wire, err := enc.Encode(f).MarshalBinary()
			if err != nil {
				t.Fatalf("frame %d: marshal: %v", i, err)
			}
			stream.Write(wire)
			var ef EncodedFrame
			if err := ef.UnmarshalBinary(wire); err != nil {
				t.Fatalf("frame %d: unmarshal: %v", i, err)
			}
			if (i == 0) != (ef.Type == FrameI) {
				t.Fatalf("frame %d: type %v", i, ef.Type)
			}
			for _, s := range ef.Slices {
				qs[s.Q] = true
			}
			res, err := dec.Decode(&ef, nil)
			if err != nil {
				t.Fatalf("frame %d: decode: %v", i, err)
			}
			var b [4]byte
			for _, v := range res.Frame.Pix {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				decoded.Write(b[:])
			}
			vmath.Put(res.Mask)
		}
		gotStream := hex.EncodeToString(stream.Sum(nil))
		gotDecoded := hex.EncodeToString(decoded.Sum(nil))
		t.Logf("%.0f b/s: %d quantisers, stream %s decoded %s", want.bitrate, len(qs), gotStream, gotDecoded)
		if gotStream != want.stream {
			t.Errorf("%.0f b/s: bitstream digest %s, want %s", want.bitrate, gotStream, want.stream)
		}
		if gotDecoded != want.decoded {
			t.Errorf("%.0f b/s: decoded-plane digest %s, want %s", want.bitrate, gotDecoded, want.decoded)
		}
	}
}
