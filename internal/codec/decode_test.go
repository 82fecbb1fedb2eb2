package codec

import (
	"math"
	"testing"

	"nerve/internal/bits"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// rowSlicedFrames encodes n frames of a 160×96 clip (six macroblock rows)
// with a payload so small that every macroblock row is a slice of its own.
func rowSlicedFrames(t testing.TB, n int) (Config, []*EncodedFrame) {
	t.Helper()
	cfg := Config{W: 160, H: 96, GOP: 60, TargetBitrate: 800e3, PacketPayload: 1}
	enc := NewEncoder(cfg)
	g := video.NewGenerator(video.Categories()[0], 3)
	efs := make([]*EncodedFrame, n)
	for i := range efs {
		efs[i] = enc.Encode(g.Render(i, cfg.W, cfg.H))
		if len(efs[i].Slices) != enc.MBRows() {
			t.Fatalf("frame %d: %d slices, want one per row (%d)", i, len(efs[i].Slices), enc.MBRows())
		}
	}
	return cfg, efs
}

// TestCompleteCountsDistinctRows: a slice list that holds slice 0 twice
// and lacks slice 1 has as many row counts as the whole frame, but row 1
// never arrived, so the frame is not complete and the mask says so.
func TestCompleteCountsDistinctRows(t *testing.T) {
	cfg, efs := rowSlicedFrames(t, 2)
	dec := NewDecoder(cfg)
	if _, err := dec.Decode(efs[0], nil); err != nil {
		t.Fatal(err)
	}
	ef := *efs[1]
	ef.Slices = append([]Slice(nil), ef.Slices...)
	ef.Slices[1] = ef.Slices[0]
	res, err := dec.Decode(&ef, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() || res.RowsReceived != res.RowsTotal-1 {
		t.Fatalf("rows %d of %d, Complete=%v; want %d and not complete",
			res.RowsReceived, res.RowsTotal, res.Complete(), res.RowsTotal-1)
	}
	if res.Mask == nil {
		t.Fatal("incomplete frame without a mask")
	}
	if res.Mask.At(0, 0) != 1 || res.Mask.At(cfg.W-1, MBSize) != 0 || res.Mask.At(0, 2*MBSize) != 1 {
		t.Fatalf("mask at rows 0, 1, 2 = %v, %v, %v; want 1, 0, 1",
			res.Mask.At(0, 0), res.Mask.At(cfg.W-1, MBSize), res.Mask.At(0, 2*MBSize))
	}
}

// TestRowsPastFrameAreIgnored: a slice that claims rows past the frame's
// last macroblock row contributes only the rows inside it, and a frame
// whose every row arrived is complete with a nil mask.
func TestRowsPastFrameAreIgnored(t *testing.T) {
	cfg, efs := rowSlicedFrames(t, 1)
	want, err := NewDecoder(cfg).Decode(efs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	ef := *efs[0]
	ef.Slices = append([]Slice(nil), ef.Slices...)
	last := &ef.Slices[len(ef.Slices)-1]
	last.MBRowCount = 3 // rows 5, 6 and 7 of a six-row frame
	ef.Slices = append(ef.Slices, Slice{MBRowStart: 0xFFFF, MBRowCount: 0xFFFF, Q: last.Q, Data: last.Data})
	res, err := NewDecoder(cfg).Decode(&ef, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() || res.RowsReceived != res.RowsTotal || res.Mask != nil {
		t.Fatalf("rows %d of %d, mask returned = %v; want complete with a nil mask", res.RowsReceived, res.RowsTotal, res.Mask != nil)
	}
	if i := firstDiff(res.Frame, want.Frame); i >= 0 {
		t.Fatalf("pixel %d differs from the decode of the well-formed frame", i)
	}
}

// TestDecodeRejectsQuantiserOutOfRange: a slice quantiser outside the range
// rate control produces (NaN, zero, negative, huge) is an error, so no
// non-finite value reaches a decoded pixel.
func TestDecodeRejectsQuantiserOutOfRange(t *testing.T) {
	cfg, efs := rowSlicedFrames(t, 1)
	for _, q := range []float32{float32(math.NaN()), 0, -4, float32(math.Inf(1)), 1e30} {
		ef := *efs[0]
		ef.Slices = append([]Slice(nil), ef.Slices...)
		ef.Slices[2].Q = q
		if _, err := NewDecoder(cfg).Decode(&ef, nil); err == nil {
			t.Errorf("Q=%v decoded with a nil error", q)
		}
	}
}

// TestDecodeZeroPlaneAllocsWarm: a warm decoder decodes a complete P frame
// with one heap allocation (the DecodeResult) and no plane allocation and
// hands back no mask; a partial frame also takes its mask from the pool.
func TestDecodeZeroPlaneAllocsWarm(t *testing.T) {
	cfg, efs := rowSlicedFrames(t, 2)
	if efs[1].Type != FrameP {
		t.Fatalf("frame 1 is %v, want P", efs[1].Type)
	}
	dec := NewDecoder(cfg)
	warm, err := dec.Decode(efs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	partial := make([]bool, len(efs[1].Slices))
	for i := range partial {
		partial[i] = i != 2
	}
	for _, c := range []struct {
		name     string
		received []bool
	}{{"complete", nil}, {"partial", partial}} {
		var res *DecodeResult
		decode := func() {
			if res, err = dec.Decode(efs[1], c.received); err != nil {
				t.Fatal(err)
			}
			dec.SetReference(warm.Frame)
			vmath.Put(res.Frame)
			vmath.Put(res.Mask)
		}
		decode()
		before := vmath.PlaneAllocs()
		if n := testing.AllocsPerRun(20, decode); n > 1 {
			t.Errorf("%s: %v heap allocations per decode, want at most 1", c.name, n)
		}
		if d := vmath.PlaneAllocs() - before; d != 0 {
			t.Errorf("%s: %d plane allocations over 21 warm decodes, want 0", c.name, d)
		}
		if (res.Mask == nil) != (c.received == nil) {
			t.Errorf("%s: mask returned = %v", c.name, res.Mask != nil)
		}
	}
}

// hostileFrame returns a frame of type typ at cfg's size with one slice
// over every macroblock row, whose payload is what write writes.
func hostileFrame(cfg Config, typ FrameType, write func(w *bits.Writer)) *EncodedFrame {
	var w bits.Writer
	write(&w)
	rows := (cfg.H + MBSize - 1) / MBSize
	return &EncodedFrame{W: cfg.W, H: cfg.H, Type: typ,
		Slices: []Slice{{Type: typ, MBRowCount: rows, Q: 8, Data: w.Bytes()}}}
}

// writeInterMB writes an inter macroblock with motion vector delta
// (dx, dy) and no residual.
func writeInterMB(w *bits.Writer, dx, dy int32) {
	w.WriteUE(uint32(modeInter))
	w.WriteSE(dx)
	w.WriteSE(dy)
	for range 4 {
		w.WriteUE(0) // no coefficients in the block
	}
}

// TestDecodeRejectsRunPastBlock: a coefficient run of 2^32−1 is an error,
// on a 32-bit platform too, where int(run) would wrap the coefficient
// position negative.
func TestDecodeRejectsRunPastBlock(t *testing.T) {
	cfg := Config{W: 48, H: 32}
	ef := hostileFrame(cfg, FrameI, func(w *bits.Writer) {
		w.WriteUE(uint32(modeIntra))
		w.WriteUE(1)              // one coefficient
		w.WriteUE(math.MaxUint32) // its run
		w.WriteSE(1)              // its level
	})
	if _, err := NewDecoder(cfg).Decode(ef, nil); err == nil {
		t.Fatal("a run past the block decoded without error")
	}
}

// TestDecodeBoundsMotionVectors: a vector delta beyond ±2·maxMV, or a
// predicted sum beyond ±maxMV, is an error — on a 32-bit platform a delta
// of MaxInt32 would overflow the motion-compensation bounds test — while
// a vector of exactly ±maxMV decodes. The encoder never searches further.
func TestDecodeBoundsMotionVectors(t *testing.T) {
	cfg := Config{W: 48, H: 32}
	if got := (Config{SearchRange: 1 << 20}).withDefaults().SearchRange; got != maxMV {
		t.Fatalf("SearchRange 2^20 is used as %d, want the cap %d", got, maxMV)
	}
	ref := vmath.NewPlane(cfg.W, cfg.H)
	for _, c := range []struct {
		name   string
		deltas [][2]int32 // per macroblock of the first row
		ok     bool
	}{
		{"delta MaxInt32", [][2]int32{{math.MaxInt32, 0}}, false},
		{"delta -MaxInt32", [][2]int32{{0, -math.MaxInt32}}, false},
		{"delta past 2·maxMV", [][2]int32{{2*maxMV + 1, 0}}, false},
		{"sum past maxMV", [][2]int32{{maxMV, 0}, {1, 0}}, false},
		{"sum past -maxMV", [][2]int32{{0, -maxMV}, {0, -maxMV}}, false},
		{"at ±maxMV", [][2]int32{{maxMV, -maxMV}, {-2 * maxMV, 2 * maxMV}, {maxMV, -maxMV}}, true},
	} {
		ef := hostileFrame(cfg, FrameP, func(w *bits.Writer) {
			for _, d := range c.deltas {
				writeInterMB(w, d[0], d[1])
			}
			for range 2*cfg.W/MBSize - len(c.deltas) {
				w.WriteUE(uint32(modeSkip))
			}
		})
		dec := NewDecoder(cfg)
		dec.SetReference(ref)
		res, err := dec.Decode(ef, nil)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
		if err == nil {
			vmath.Put(res.Frame)
		}
	}
}
