package codec

import (
	"fmt"
	"math"

	"nerve/internal/bits"
	"nerve/internal/par"
	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// FrameType distinguishes intra (I) from predicted (P) frames.
type FrameType uint8

const (
	// FrameI is an intra frame: decodable without a reference.
	FrameI FrameType = iota
	// FrameP is a predicted frame: motion-compensated from the previous
	// reconstructed frame.
	FrameP
)

func (t FrameType) String() string {
	if t == FrameI {
		return "I"
	}
	return "P"
}

// Config parameterises an encoder/decoder pair.
type Config struct {
	W, H          int     // frame dimensions in pixels
	GOP           int     // intra period in frames (paper: 120 = 4 s)
	TargetBitrate float64 // bits per second
	FPS           float64 // frames per second
	PacketPayload int     // target slice payload in bytes (≈ one packet)
	SearchRange   int     // motion search range in pixels
}

// withDefaults fills unset fields with the system defaults.
func (c Config) withDefaults() Config {
	if c.GOP <= 0 {
		c.GOP = 120
	}
	if c.FPS <= 0 {
		c.FPS = 30
	}
	if c.PacketPayload <= 0 {
		c.PacketPayload = 1100
	}
	if c.SearchRange <= 0 {
		c.SearchRange = 15
	}
	c.SearchRange = min(c.SearchRange, maxMV)
	if c.TargetBitrate <= 0 {
		c.TargetBitrate = 1e6
	}
	return c
}

// maxMV bounds a motion vector component, in pixels. withDefaults caps
// SearchRange at it and the encoder clamps every vector to ±SearchRange,
// so no legal stream carries a larger component, nor a delta from its
// predictor beyond ±2·maxMV; the decoder rejects both. The bound keeps
// every displaced coordinate far from int overflow on 32-bit platforms.
const maxMV = 1 << 12

// Slice is an independently decodable group of macroblock rows. One slice is
// carried in one transport packet; losing a packet loses exactly its rows.
type Slice struct {
	FrameIndex int
	Type       FrameType
	MBRowStart int // first macroblock row covered
	MBRowCount int
	Q          float32
	Data       []byte
}

// Bytes returns the payload size of the slice including a nominal 8-byte
// header (frame index, row range, quantiser).
func (s *Slice) Bytes() int { return len(s.Data) + 8 }

// EncodedFrame is the encoder output for one frame.
type EncodedFrame struct {
	Index  int
	Type   FrameType
	W, H   int
	Slices []Slice
	// Recon is the encoder-side reconstruction: the frame a decoder
	// produces when every slice arrives. Useful for quality accounting.
	//
	// Ownership: Recon comes from the plane pool and belongs to the
	// caller, but the encoder keeps it as the prediction reference for the
	// following frame — do not vmath.Put it (or mutate it) until the next
	// Encode call on the same encoder has returned.
	Recon *vmath.Plane
}

// TotalBytes returns the summed payload size of all slices.
func (f *EncodedFrame) TotalBytes() int {
	n := 0
	for i := range f.Slices {
		n += f.Slices[i].Bytes()
	}
	return n
}

// Encoder compresses a frame sequence. Create one with NewEncoder; it is not
// safe for concurrent use.
type Encoder struct {
	cfg        Config
	ref        *vmath.Plane // previous reconstruction
	qI, qP     float32
	frameCount int
	mbRows     int
	mbCols     int

	// Motion-search state. curB/refB are pooled byte shadows of the frame
	// being encoded and of the prediction reference — sadMB runs on bytes
	// (see motion.go). modeField/mvField/sadField cache the per-macroblock
	// decisions of the current frame: mode decisions and motion vectors are
	// independent of the quantiser, so a rate-control re-encode replays
	// them (searchValid) instead of searching again. prevMVs/prevSADs are
	// the previous P frame's fields (motionValid) and drive the temporal
	// median predictor and adaptive early termination.
	curB, refB  *vmath.BytePlane
	modeField   []mbMode
	mvField     []MV
	sadField    []int64
	prevMVs     []MV
	prevSADs    []int64
	searchValid bool
	motionValid bool

	// rowScratch holds one blockScratch per macroblock row; encodeMBRow
	// for row r alone uses rowScratch[r].
	rowScratch []blockScratch
}

// NewEncoder returns an encoder for the configuration.
func NewEncoder(cfg Config) *Encoder {
	cfg = cfg.withDefaults()
	if cfg.W <= 0 || cfg.H <= 0 {
		panic(fmt.Sprintf("codec: invalid dimensions %dx%d", cfg.W, cfg.H))
	}
	mbRows := (cfg.H + MBSize - 1) / MBSize
	mbCols := (cfg.W + MBSize - 1) / MBSize
	n := mbRows * mbCols
	return &Encoder{
		cfg:       cfg,
		qI:        6,
		qP:        4,
		mbRows:    mbRows,
		mbCols:    mbCols,
		curB:      vmath.GetBytes(cfg.W, cfg.H),
		refB:      vmath.GetBytes(cfg.W, cfg.H),
		modeField: make([]mbMode, n),
		mvField:   make([]MV, n),
		sadField:  make([]int64, n),
		prevMVs:   make([]MV, n),
		prevSADs:  make([]int64, n),

		rowScratch: make([]blockScratch, mbRows),
	}
}

// MBRows returns the number of macroblock rows per frame.
func (e *Encoder) MBRows() int { return e.mbRows }

// frameBudget returns the bit budget for the next frame of the given type.
// Intra frames receive a 6× weight within the GOP.
func (e *Encoder) frameBudget(t FrameType) float64 {
	base := e.cfg.TargetBitrate / e.cfg.FPS
	const wI = 6.0
	g := float64(e.cfg.GOP)
	if t == FrameI {
		return base * g * wI / (wI + g - 1)
	}
	return base * g / (wI + g - 1)
}

// Encode compresses the next frame. The frame must match the configured
// dimensions. Rate control adapts the quantiser toward the target bitrate,
// re-encoding once when a frame lands far from its budget.
func (e *Encoder) Encode(frame *vmath.Plane) *EncodedFrame {
	defer telemetry.Start(telemetry.StageEncode).Stop()
	if frame.W != e.cfg.W || frame.H != e.cfg.H {
		panic(fmt.Sprintf("codec: frame %dx%d does not match config %dx%d", frame.W, frame.H, e.cfg.W, e.cfg.H))
	}
	ftype := FrameP
	if e.frameCount%e.cfg.GOP == 0 || e.ref == nil {
		ftype = FrameI
	}
	q := e.qP
	if ftype == FrameI {
		q = e.qI
	}
	budget := e.frameBudget(ftype)

	e.searchValid = false
	if ftype == FrameP {
		// refB was refreshed from the previous reconstruction at the end of
		// the last Encode; only the current frame's shadow is rebuilt here.
		e.curB.FromPlane(frame)
	}

	ef := e.encodeAttempt(frame, ftype, q)
	bitsUsed := float64(ef.TotalBytes() * 8)
	if bitsUsed > 1.5*budget || bitsUsed < 0.5*budget {
		q = clampQ(q * float32(math.Pow(bitsUsed/budget, 0.8)))
		// The first attempt is discarded whole; recycle its
		// reconstruction rather than leaving a full frame to the GC.
		vmath.Put(ef.Recon)
		// Mode decisions and motion vectors do not depend on q, so the
		// re-encode replays the cached fields instead of searching again.
		e.searchValid = ftype == FrameP
		ef = e.encodeAttempt(frame, ftype, q)
		bitsUsed = float64(ef.TotalBytes() * 8)
	}
	e.searchValid = false
	// Slow adaptation for the next frame of this type.
	adj := clampQ(q * float32(math.Pow(bitsUsed/budget, 0.5)))
	if ftype == FrameI {
		e.qI = adj
	} else {
		e.qP = adj
	}

	e.ref = ef.Recon
	// Rotate the motion fields into the temporal-predictor slots; an intra
	// frame breaks the chain.
	if ftype == FrameP {
		e.prevMVs, e.mvField = e.mvField, e.prevMVs
		e.prevSADs, e.sadField = e.sadField, e.prevSADs
		e.motionValid = true
	} else {
		e.motionValid = false
	}
	if (e.frameCount+1)%e.cfg.GOP != 0 {
		// The next frame will be predicted: shadow its reference now.
		e.refB.FromPlane(ef.Recon)
	}
	ef.Index = e.frameCount
	for i := range ef.Slices {
		ef.Slices[i].FrameIndex = e.frameCount
	}
	e.frameCount++
	return ef
}

// minQ and maxQ bound the quantiser: rate control keeps it inside, and the
// decoder rejects a slice outside, so dequantised levels stay finite.
const minQ, maxQ = 0.5, 120

func clampQ(q float32) float32 {
	if q < minQ {
		return minQ
	}
	if q > maxQ {
		return maxQ
	}
	return q
}

// encodeAttempt performs one encoding pass at quantiser q.
//
// Macroblock rows are mutually independent by construction — the MV
// predictor resets at every row so slices stay independently decodable,
// prediction reads only the previous frame's reconstruction (e.ref), and a
// row reconstructs only its own pixel band — so pass 1 encodes every row
// concurrently on the shared pool, each into a private bit writer. Pass 2
// concatenates the row bitstreams in order and cuts slice boundaries at the
// same byte thresholds the sequential encoder used, producing a
// bit-identical stream for any pool size.
func (e *Encoder) encodeAttempt(frame *vmath.Plane, ftype FrameType, q float32) *EncodedFrame {
	// Every pixel of recon is written below (the macroblock grid covers the
	// frame and each mode reconstructs its whole clipped block), so a dirty
	// pooled plane is safe.
	recon := vmath.Get(e.cfg.W, e.cfg.H)
	ef := &EncodedFrame{Type: ftype, W: e.cfg.W, H: e.cfg.H, Recon: recon}

	rowW := make([]bits.Writer, e.mbRows)
	par.For(e.mbRows, func(row int) {
		e.encodeMBRow(frame, recon, ftype, q, row, &rowW[row])
	})

	var w *bits.Writer
	sliceStartRow := 0
	flushSlice := func(endRow int) {
		if w == nil {
			return
		}
		ef.Slices = append(ef.Slices, Slice{
			Type:       ftype,
			MBRowStart: sliceStartRow,
			MBRowCount: endRow - sliceStartRow,
			Q:          q,
			Data:       w.Bytes(),
		})
		w = nil
	}

	for row := 0; row < e.mbRows; row++ {
		if w == nil {
			w = &bits.Writer{}
			sliceStartRow = row
		}
		w.Append(&rowW[row])
		if w.Len() >= e.cfg.PacketPayload {
			flushSlice(row + 1)
		}
	}
	flushSlice(e.mbRows)
	return ef
}

// encodeMBRow encodes one macroblock row into w, reconstructing into recon.
// The motion-vector predictor resets at the start of every row so that
// slices (which are whole rows) stay independently decodable.
//
// For P frames the row splits into a decision step — skip check first (a
// skipped block never needs a search), then predictive motion search, then
// the intra fallback — and an emission step. Decisions land in the
// mode/mv/sad fields; when e.searchValid is set (rate-control re-encode)
// the decision step is skipped entirely and the cached fields replay,
// producing the identical bitstream a fresh search would (decisions are
// q-independent). Temporal state (e.prevMVs/prevSADs) is read-only during
// the frame and all per-block writes go to this row's own field slots, so
// rows stay bit-exact under any worker-pool size.
func (e *Encoder) encodeMBRow(frame, recon *vmath.Plane, ftype FrameType, q float32, row int, w *bits.Writer) {
	cy := row * MBSize
	sc := &e.rowScratch[row]
	if ftype == FrameI {
		for col := 0; col < e.mbCols; col++ {
			w.WriteUE(uint32(modeIntra))
			e.codeIntraMB(frame, recon, col*MBSize, cy, q, w, sc)
		}
		return
	}
	var st searchStats
	var prevMVs []MV
	if e.motionValid {
		prevMVs = e.prevMVs
	}
	pred := MV{}
	lastSAD := int64(-1)
	for col := 0; col < e.mbCols; col++ {
		cx := col * MBSize
		idx := row*e.mbCols + col
		if !e.searchValid {
			// Skip: the predictor vector is already good enough — decided
			// before any search, so skipped blocks cost one SAD.
			st.points++
			sadPred := sadMB(e.curB, e.refB, cx, cy, pred, 1<<62, &st)
			if sadPred <= skipSADMax {
				e.modeField[idx] = modeSkip
				e.mvField[idx] = pred
				e.sadField[idx] = sadPred
			} else {
				prevSAD := int64(-1)
				if e.motionValid {
					prevSAD = e.prevSADs[idx]
				}
				seed := predictMV(prevMVs, e.mbCols, row, col, pred)
				mv, sad := searchMV(e.curB, e.refB, cx, cy, seed, pred,
					e.cfg.SearchRange, earlyTerm(lastSAD, prevSAD), &st)
				// Intra fallback when motion compensation fails (scene cut,
				// new content): compare against deviation from the block mean.
				if sad > intraCost(frame, cx, cy) {
					e.modeField[idx] = modeIntra
					e.mvField[idx] = MV{}
					e.sadField[idx] = -1
				} else {
					e.modeField[idx] = modeInter
					e.mvField[idx] = mv
					e.sadField[idx] = sad
				}
			}
		}
		switch e.modeField[idx] {
		case modeSkip:
			w.WriteUE(uint32(modeSkip))
			mcMB(e.ref, recon, cx, cy, pred, e.cfg.W, e.cfg.H)
			lastSAD = e.sadField[idx]
		case modeIntra:
			w.WriteUE(uint32(modeIntra))
			e.codeIntraMB(frame, recon, cx, cy, q, w, sc)
			pred = MV{}
			lastSAD = -1
		case modeInter:
			mv := e.mvField[idx]
			w.WriteUE(uint32(modeInter))
			w.WriteSE(int32(mv.X - pred.X))
			w.WriteSE(int32(mv.Y - pred.Y))
			e.codeInterMB(frame, recon, cx, cy, mv, q, w, sc)
			pred = mv
			lastSAD = e.sadField[idx]
		}
	}
	st.flush()
}

type mbMode uint32

const (
	modeSkip mbMode = iota
	modeInter
	modeIntra
)

// skipSADMax is the skip-mode threshold: a predictor-vector SAD at or
// below ~2 grey levels per pixel codes as a skip.
const skipSADMax = int64(MBSize * MBSize * 2)

// intraCost estimates the cost of intra-coding a macroblock as its total
// absolute deviation from the block mean, scaled up slightly to bias toward
// inter coding.
func intraCost(frame *vmath.Plane, cx, cy int) int64 {
	var sum float64
	var n int
	for y := 0; y < MBSize && cy+y < frame.H; y++ {
		for x := 0; x < MBSize && cx+x < frame.W; x++ {
			sum += float64(frame.At(cx+x, cy+y))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	mean := sum / float64(n)
	var dev float64
	for y := 0; y < MBSize && cy+y < frame.H; y++ {
		for x := 0; x < MBSize && cx+x < frame.W; x++ {
			dev += math.Abs(float64(frame.At(cx+x, cy+y)) - mean)
		}
	}
	return int64(dev * 1.2)
}

// mcMB writes the motion-compensated prediction of one macroblock into dst.
// A block whose displaced source lies inside ref is copied row by row; one
// that reaches past an edge reads with replicate clamping.
func mcMB(ref, dst *vmath.Plane, cx, cy int, mv MV, w, h int) {
	bw, bh := min(MBSize, w-cx), min(MBSize, h-cy)
	if bw <= 0 || bh <= 0 {
		return
	}
	if sx, sy := cx+mv.X, cy+mv.Y; sx >= 0 && sy >= 0 && sx+bw <= ref.W && sy+bh <= ref.H {
		for y := 0; y < bh; y++ {
			copy(dst.Pix[(cy+y)*dst.W+cx:][:bw], ref.Pix[(sy+y)*ref.W+sx:][:bw])
		}
		return
	}
	for y := 0; y < MBSize; y++ {
		py := cy + y
		if py >= h {
			break
		}
		for x := 0; x < MBSize; x++ {
			px := cx + x
			if px >= w {
				break
			}
			dst.Pix[py*dst.W+px] = ref.AtClamp(px+mv.X, py+mv.Y)
		}
	}
}

// blockScratch holds the 8×8 working arrays of one macroblock row. The
// transform is called through the function values in xf, which escape
// analysis cannot see through, so every array handed to it lives on the
// heap; the encoder keeps one scratch per row for its lifetime instead of
// allocating several arrays per block. Each block overwrites every
// element before reading it.
type blockScratch struct {
	blk, pred, coef, deq, rec [64]float32
}

// codeIntraMB codes the four 8×8 blocks of a macroblock against the flat
// predictor 128 and reconstructs into recon.
func (e *Encoder) codeIntraMB(frame, recon *vmath.Plane, cx, cy int, q float32, w *bits.Writer, sc *blockScratch) {
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			x0 := cx + bx*blockSize
			y0 := cy + by*blockSize
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					sc.blk[y*8+x] = frame.AtClamp(x0+x, y0+y) - 128
				}
			}
			codeBlock(sc, q, w)
			writeBlock(recon, x0, y0, &sc.rec, 128)
		}
	}
}

// codeInterMB codes the motion-compensated residual of a macroblock.
func (e *Encoder) codeInterMB(frame, recon *vmath.Plane, cx, cy int, mv MV, q float32, w *bits.Writer, sc *blockScratch) {
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			x0 := cx + bx*blockSize
			y0 := cy + by*blockSize
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					p := e.ref.AtClamp(x0+x+mv.X, y0+y+mv.Y)
					sc.pred[y*8+x] = p
					sc.blk[y*8+x] = frame.AtClamp(x0+x, y0+y) - p
				}
			}
			codeBlock(sc, q, w)
			writeInterBlock(recon, x0, y0, &sc.pred, &sc.rec)
		}
	}
}

// writeInterBlock reconstructs one inter block (prediction + residual,
// clamped) into dst, bounds-checked at the frame edge.
func writeInterBlock(dst *vmath.Plane, x0, y0 int, pred, rec *[64]float32) {
	for y := 0; y < blockSize; y++ {
		py := y0 + y
		if py >= dst.H {
			break
		}
		for x := 0; x < blockSize; x++ {
			px := x0 + x
			if px >= dst.W {
				break
			}
			dst.Pix[py*dst.W+px] = clamp255(pred[y*8+x] + rec[y*8+x])
		}
	}
}

// codeBlock transforms, quantises and entropy-codes the 8×8 block in
// sc.blk, leaving the reconstructed (dequantised, inverse-transformed)
// block in sc.rec.
func codeBlock(sc *blockScratch, q float32, w *bits.Writer) {
	xf.fdct(&sc.blk, &sc.coef)
	var levels [64]int32
	quantise(&sc.coef, q, &levels)
	writeLevels(&levels, w)
	dequantise(&levels, q, &sc.deq)
	xf.idct(&sc.deq, &sc.rec)
}

// writeLevels entropy-codes one block's quantised levels: zigzag run/level
// coding, count of non-zeros, then (run, level) pairs.
func writeLevels(levels *[64]int32, w *bits.Writer) {
	var nz uint32
	for _, i := range zigzag {
		if levels[i] != 0 {
			nz++
		}
	}
	w.WriteUE(nz)
	run := uint32(0)
	for _, i := range zigzag {
		if levels[i] == 0 {
			run++
			continue
		}
		w.WriteUE(run)
		w.WriteSE(levels[i])
		run = 0
	}
}

func writeBlock(dst *vmath.Plane, x0, y0 int, blk *[64]float32, bias float32) {
	for y := 0; y < blockSize; y++ {
		py := y0 + y
		if py >= dst.H {
			break
		}
		for x := 0; x < blockSize; x++ {
			px := x0 + x
			if px >= dst.W {
				break
			}
			dst.Pix[py*dst.W+px] = clamp255(blk[y*8+x] + bias)
		}
	}
}

func clamp255(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

// DecodeResult carries a decoded frame plus, when rows are missing, the
// per-pixel received mask (1 = reconstructed from received data,
// 0 = missing/concealed).
//
// Ownership: both planes come from the plane pool and belong to the
// caller. Mask is nil when the frame is Complete; otherwise it may be
// vmath.Put as soon as the caller is done with it (vmath.Put(nil) is a
// no-op, so a caller may Put it unconditionally). Frame doubles as the
// decoder's prediction reference for the next frame (unless SetReference
// replaces it first), so it must not be Put or mutated while it may still
// be the live reference.
type DecodeResult struct {
	Frame *vmath.Plane
	Mask  *vmath.Plane
	// RowsReceived counts the distinct macroblock rows of the frame
	// reconstructed from real data.
	RowsReceived int
	// RowsTotal is the number of macroblock rows in the frame.
	RowsTotal int
}

// Complete reports whether every macroblock row was received.
func (r *DecodeResult) Complete() bool { return r.RowsReceived == r.RowsTotal }

// ReceivedFraction returns the fraction of rows reconstructed from data.
func (r *DecodeResult) ReceivedFraction() float64 {
	if r.RowsTotal == 0 {
		return 0
	}
	return float64(r.RowsReceived) / float64(r.RowsTotal)
}

// Decoder reconstructs frames from (possibly incomplete) slice sets. It
// keeps the previous decoded frame as the motion-compensation reference;
// the client may override it with a recovered frame via SetReference —
// exactly what the NERVE client does after running the recovery model.
// A Decoder is not safe for concurrent use.
type Decoder struct {
	cfg    Config
	ref    *vmath.Plane
	mbRows int
	mbCols int

	// rows marks the macroblock rows of the frame being decoded that a
	// received slice has reconstructed.
	rows []bool
	// levels, deq and rec are decodeBlock's working arrays. The inverse
	// transform is called through a function value in xf, which escape
	// analysis cannot see through, so as locals they would move to the
	// heap on every block; the decoder owns one set instead.
	levels   [64]int32
	deq, rec [64]float32
}

// NewDecoder returns a decoder matching cfg.
func NewDecoder(cfg Config) *Decoder {
	cfg = cfg.withDefaults()
	mbRows := (cfg.H + MBSize - 1) / MBSize
	return &Decoder{
		cfg:    cfg,
		mbRows: mbRows,
		mbCols: (cfg.W + MBSize - 1) / MBSize,
		rows:   make([]bool, mbRows),
	}
}

// SetReference overrides the prediction reference for the next frame
// (e.g. with the output of the recovery model). The decoder only ever
// reads the reference — it borrows p; the caller keeps ownership and must
// simply not vmath.Put or mutate it while it remains the reference.
func (d *Decoder) SetReference(p *vmath.Plane) {
	if p != nil && (p.W != d.cfg.W || p.H != d.cfg.H) {
		panic("codec: reference size mismatch")
	}
	d.ref = p
}

// Decode reconstructs a frame from the slices whose index is marked true in
// received (nil means all received). Rows with no data are concealed by
// copying the reference (or mid-grey when there is none) and reported in
// the mask so the recovery model can treat them as missing.
func (d *Decoder) Decode(ef *EncodedFrame, received []bool) (*DecodeResult, error) {
	defer telemetry.Start(telemetry.StageDecode).Stop()
	if ef.W != d.cfg.W || ef.H != d.cfg.H {
		return nil, fmt.Errorf("codec: encoded frame %dx%d does not match decoder %dx%d", ef.W, ef.H, d.cfg.W, d.cfg.H)
	}
	if received != nil && len(received) != len(ef.Slices) {
		return nil, fmt.Errorf("codec: received mask length %d != %d slices", len(received), len(ef.Slices))
	}
	// out is fully written here (reference copy or grey fill), so a dirty
	// pooled plane is safe.
	out := vmath.Get(d.cfg.W, d.cfg.H)
	// Conceal by default: copy reference or fill grey.
	if d.ref != nil {
		copy(out.Pix, d.ref.Pix)
	} else {
		out.Fill(128)
	}
	clear(d.rows)
	for si := range ef.Slices {
		if received != nil && !received[si] {
			continue
		}
		if err := d.decodeSlice(&ef.Slices[si], out); err != nil {
			vmath.Put(out)
			return nil, fmt.Errorf("codec: slice %d: %w", si, err)
		}
	}
	res := &DecodeResult{Frame: out, RowsTotal: d.mbRows}
	for _, got := range d.rows {
		if got {
			res.RowsReceived++
		}
	}
	if !res.Complete() {
		res.Mask = d.receivedMask()
	}
	d.ref = out
	return res, nil
}

// receivedMask returns a pooled plane that is 1 on the pixel rows of every
// received macroblock row and 0 on the rest.
func (d *Decoder) receivedMask() *vmath.Plane {
	mask := vmath.Get(d.cfg.W, d.cfg.H)
	for row, got := range d.rows {
		v := float32(0)
		if got {
			v = 1
		}
		px := mask.Pix[row*MBSize*mask.W : min((row+1)*MBSize, mask.H)*mask.W]
		for i := range px {
			px[i] = v
		}
	}
	return mask
}

// decodeSlice decodes one slice's macroblock rows into out and marks them
// in d.rows. Rows past the frame's last macroblock row are not read.
func (d *Decoder) decodeSlice(s *Slice, out *vmath.Plane) error {
	if !(s.Q >= minQ && s.Q <= maxQ) {
		return fmt.Errorf("quantiser %v outside [%v, %v]", s.Q, minQ, maxQ)
	}
	r := bits.NewReader(s.Data)
	for row := s.MBRowStart; row < min(s.MBRowStart+s.MBRowCount, d.mbRows); row++ {
		pred := MV{}
		cy := row * MBSize
		for col := 0; col < d.mbCols; col++ {
			cx := col * MBSize
			modeU, err := r.ReadUE()
			if err != nil {
				return err
			}
			switch mbMode(modeU) {
			case modeSkip:
				if d.ref == nil {
					return fmt.Errorf("skip macroblock without reference")
				}
				// Decode starts out as a copy of the reference, so a
				// zero-vector skip has nothing to write — unless an
				// earlier slice already decoded this row (slices that
				// overlap, which only a malformed frame sends).
				if pred != (MV{}) || d.rows[row] {
					mcMB(d.ref, out, cx, cy, pred, d.cfg.W, d.cfg.H)
				}
			case modeInter:
				if d.ref == nil {
					return fmt.Errorf("inter macroblock without reference")
				}
				dx, err := r.ReadSE()
				if err != nil {
					return err
				}
				dy, err := r.ReadSE()
				if err != nil {
					return err
				}
				// pred is a vector this loop accepted, so the sum of a
				// bounded delta and pred cannot overflow int, even on a
				// 32-bit platform.
				if dx < -2*maxMV || dx > 2*maxMV || dy < -2*maxMV || dy > 2*maxMV {
					return fmt.Errorf("motion vector delta (%d, %d) beyond ±%d", dx, dy, 2*maxMV)
				}
				mv := MV{pred.X + int(dx), pred.Y + int(dy)}
				if mv.X < -maxMV || mv.X > maxMV || mv.Y < -maxMV || mv.Y > maxMV {
					return fmt.Errorf("motion vector (%d, %d) beyond ±%d", mv.X, mv.Y, maxMV)
				}
				if err := d.decodeInterMB(r, out, cx, cy, mv, s.Q); err != nil {
					return err
				}
				pred = mv
			case modeIntra:
				if err := d.decodeIntraMB(r, out, cx, cy, s.Q); err != nil {
					return err
				}
				pred = MV{}
			default:
				return fmt.Errorf("bad macroblock mode %d", modeU)
			}
		}
		d.rows[row] = true
	}
	return nil
}

func (d *Decoder) decodeIntraMB(r *bits.Reader, out *vmath.Plane, cx, cy int, q float32) error {
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			if err := d.decodeBlock(r, q); err != nil {
				return err
			}
			writeBlock(out, cx+bx*blockSize, cy+by*blockSize, &d.rec, 128)
		}
	}
	return nil
}

func (d *Decoder) decodeInterMB(r *bits.Reader, out *vmath.Plane, cx, cy int, mv MV, q float32) error {
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			if err := d.decodeBlock(r, q); err != nil {
				return err
			}
			d.writeInterMC(out, cx+bx*blockSize, cy+by*blockSize, mv, &d.rec)
		}
	}
	return nil
}

// writeInterMC reconstructs one inter block from the decoder's reference
// (motion-compensated prediction + residual, clamped) into out. Like mcMB
// it indexes the reference directly when the displaced block lies inside
// it and clamps each read otherwise.
func (d *Decoder) writeInterMC(out *vmath.Plane, x0, y0 int, mv MV, rec *[64]float32) {
	bw, bh := min(blockSize, out.W-x0), min(blockSize, out.H-y0)
	ref := d.ref
	if sx, sy := x0+mv.X, y0+mv.Y; bw > 0 && bh > 0 && sx >= 0 && sy >= 0 && sx+bw <= ref.W && sy+bh <= ref.H {
		for y := 0; y < bh; y++ {
			orow := out.Pix[(y0+y)*out.W+x0:][:bw]
			prow := ref.Pix[(sy+y)*ref.W+sx:][:bw]
			rrow := rec[y*8:][:bw]
			for x := range orow {
				orow[x] = clamp255(prow[x] + rrow[x])
			}
		}
		return
	}
	for y := 0; y < blockSize; y++ {
		py := y0 + y
		if py >= out.H {
			break
		}
		for x := 0; x < blockSize; x++ {
			px := x0 + x
			if px >= out.W {
				break
			}
			p := d.ref.AtClamp(px+mv.X, py+mv.Y)
			out.Pix[py*out.W+px] = clamp255(p + rec[y*8+x])
		}
	}
}

// decodeBlock entropy-decodes, dequantises and inverse-transforms one block
// into d.rec.
func (d *Decoder) decodeBlock(r *bits.Reader, q float32) error {
	if err := readLevels(r, &d.levels); err != nil {
		return err
	}
	dequantise(&d.levels, q, &d.deq)
	xf.idct(&d.deq, &d.rec)
	return nil
}

// readLevels entropy-decodes one block's quantised levels (the inverse of
// writeLevels). levels is fully overwritten.
func readLevels(r *bits.Reader, levels *[64]int32) error {
	*levels = [64]int32{}
	nz, err := r.ReadUE()
	if err != nil {
		return err
	}
	if nz > 64 {
		return fmt.Errorf("bad coefficient count %d", nz)
	}
	pos := 0
	for i := uint32(0); i < nz; i++ {
		run, err := r.ReadUE()
		if err != nil {
			return err
		}
		lvl, err := r.ReadSE()
		if err != nil {
			return err
		}
		// Compared before the add: on a 32-bit platform int(run) can wrap
		// pos negative.
		if run >= uint32(64-pos) {
			return fmt.Errorf("coefficient position overflow")
		}
		pos += int(run)
		levels[zigzag[pos]] = lvl
		pos++
	}
	return nil
}
