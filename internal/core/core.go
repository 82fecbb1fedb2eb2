// Package core assembles the NERVE system of Fig. 5: a media server that
// encodes the ladder and extracts the per-frame binary point code, and a
// mobile client engine that decodes, recovers lost or late frames with the
// code, super-resolves on time-budget, and reports per-frame quality and
// device cost. This is the frame-accurate pipeline; the chunk-level QoE
// simulations in internal/sim use quality maps calibrated from it.
package core

import (
	"fmt"

	"nerve/internal/codec"
	"nerve/internal/device"
	"nerve/internal/edgecode"
	"nerve/internal/recovery"
	"nerve/internal/sr"
	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// ServerConfig parameterises a media server.
type ServerConfig struct {
	// W, H is the source (and transmission) resolution.
	W, H int
	// TargetBitrate is the encoder target in bits/second.
	TargetBitrate float64
	// GOP is the intra period in frames (default 120).
	GOP int
	// PacketPayload is the slice/packet payload target (default 1100).
	PacketPayload int
}

// ServerFrame is what the server emits per frame: the encoded slices
// (shipped over the unreliable media path) and the binary point code
// (shipped over the reliable side channel).
type ServerFrame struct {
	Encoded *codec.EncodedFrame
	Code    *edgecode.Code
}

// Server encodes frames and extracts their binary point codes.
type Server struct {
	cfg       ServerConfig
	enc       *codec.Encoder
	extractor *edgecode.Extractor
}

// NewServer builds a server for the configuration.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.W <= 0 || cfg.H <= 0 {
		return nil, fmt.Errorf("core: invalid server dimensions %dx%d", cfg.W, cfg.H)
	}
	if cfg.TargetBitrate <= 0 {
		cfg.TargetBitrate = 1e6
	}
	enc := codec.NewEncoder(codec.Config{
		W: cfg.W, H: cfg.H,
		GOP:           cfg.GOP,
		TargetBitrate: cfg.TargetBitrate,
		PacketPayload: cfg.PacketPayload,
	})
	return &Server{
		cfg:       cfg,
		enc:       enc,
		extractor: edgecode.NewExtractor(0, 0),
	}, nil
}

// Process encodes the next source frame and extracts its code.
func (s *Server) Process(frame *vmath.Plane) (*ServerFrame, error) {
	if frame.W != s.cfg.W || frame.H != s.cfg.H {
		return nil, fmt.Errorf("core: frame %dx%d does not match server %dx%d", frame.W, frame.H, s.cfg.W, s.cfg.H)
	}
	return &ServerFrame{
		Encoded: s.enc.Encode(frame),
		Code:    s.extractor.Extract(frame),
	}, nil
}

// ClientConfig parameterises the client engine.
type ClientConfig struct {
	// W, H is the transmission resolution (must match the server).
	W, H int
	// OutW, OutH is the display resolution; when larger than W×H and SR
	// is enabled, frames are super-resolved. Defaults to W×H.
	OutW, OutH int
	// EnableRecovery turns the recovery model on (otherwise lost/late
	// frames reuse the previous frame).
	EnableRecovery bool
	// EnableSR turns super-resolution on.
	EnableSR bool
	// Tier must be TierFixed, the zero value; any other value is an
	// error. Every client runs the byte path: the recovery model's byte
	// warp stage and the byte-plane SR head (sr.NewFast), which is a
	// bilinear upsample.
	//
	// Deprecated: see Tier.
	Tier Tier
	// Device is the cost model used for the latency/energy accounting
	// (default iPhone 12).
	Device *device.Model
}

// FrameClass describes how the client produced a displayed frame.
type FrameClass int

const (
	// ClassDecoded frames arrived complete and on time.
	ClassDecoded FrameClass = iota
	// ClassSR frames were additionally super-resolved.
	ClassSR
	// ClassRecovered frames were synthesised by the recovery model
	// (completely missing input).
	ClassRecovered
	// ClassPartial frames were partially received and concealed.
	ClassPartial
	// ClassReused frames replayed the previous output (recovery off).
	ClassReused
)

func (c FrameClass) String() string {
	switch c {
	case ClassDecoded:
		return "decoded"
	case ClassSR:
		return "sr"
	case ClassRecovered:
		return "recovered"
	case ClassPartial:
		return "partial"
	case ClassReused:
		return "reused"
	default:
		return fmt.Sprintf("FrameClass(%d)", int(c))
	}
}

// FrameResult is the client's per-frame output.
type FrameResult struct {
	Index int
	Class FrameClass
	// Frame is the displayed frame at OutW×OutH. It is owned by the caller
	// and never retained or recycled by the client, so callers that are done
	// with it may vmath.Put it back into the plane pool.
	Frame *vmath.Plane
	// ProcessSeconds is the modelled device time spent on the frame
	// (decode + recovery/SR inference).
	ProcessSeconds float64
	// Tier is always TierFixed, the zero value.
	//
	// Deprecated: see Tier.
	Tier Tier
}

// Client is the mobile client engine: decoder + recovery + SR with
// temporal state, fed one frame slot at a time in playout order.
type Client struct {
	cfg ClientConfig
	dec *codec.Decoder
	rec *recovery.Recoverer
	ext *edgecode.Extractor // to derive codes of locally produced frames

	// sr is the byte SR head, nil when the client does not super-
	// resolve. It is immutable after NewClient, so stageEnhance may run it
	// on a pool worker while the next ingest proceeds.
	sr *sr.FastUpscaler

	prevOut   *vmath.Plane // previous displayed frame at transmission res
	prevPrev  *vmath.Plane
	prevCode  *edgecode.Code
	frameIdx  int
	recovered int
	total     int
	classes   map[FrameClass]int
}

// NewClient builds a client engine.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.W <= 0 || cfg.H <= 0 {
		return nil, fmt.Errorf("core: invalid client dimensions %dx%d", cfg.W, cfg.H)
	}
	if cfg.OutW <= 0 || cfg.OutH <= 0 {
		cfg.OutW, cfg.OutH = cfg.W, cfg.H
	}
	if cfg.Device == nil {
		cfg.Device = device.IPhone12()
	}
	if cfg.Tier != TierFixed {
		return nil, fmt.Errorf("core: kernel tier %v: only the byte path (TierFixed) exists", cfg.Tier)
	}
	c := &Client{
		cfg:     cfg,
		dec:     codec.NewDecoder(codec.Config{W: cfg.W, H: cfg.H}),
		rec:     recovery.New(recovery.Config{OutW: cfg.W, OutH: cfg.H}),
		ext:     edgecode.NewExtractor(0, 0),
		classes: make(map[FrameClass]int),
	}
	if cfg.EnableSR && (cfg.OutW != cfg.W || cfg.OutH != cfg.H) {
		c.sr = sr.NewFast(sr.Config{OutW: cfg.OutW, OutH: cfg.OutH})
	}
	return c, nil
}

// ClassCounts returns how many displayed frames were produced per class so
// far — the degradation ladder a session actually walked (decoded > sr >
// partial > recovered > reused).
func (c *Client) ClassCounts() map[FrameClass]int {
	out := make(map[FrameClass]int, len(c.classes))
	for k, v := range c.classes {
		out[k] = v
	}
	return out
}

// RecoveredFraction returns the fraction of frames that needed recovery or
// reuse so far.
func (c *Client) RecoveredFraction() float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.recovered) / float64(c.total)
}

// Input is one playout slot's worth of received data. Encoded may be nil
// (complete loss or frame not yet arrived); Received marks which slices of
// Encoded arrived (nil = all). Code is the frame's binary point code from
// the reliable side channel (nil if the client runs without hints).
type Input struct {
	Encoded  *codec.EncodedFrame
	Received []bool
	Code     *edgecode.Code
}

// Next consumes the data available for the next playout slot and returns
// the displayed frame. It never fails to produce a frame: a complete loss
// yields a recovered (or reused) frame.
//
// Next runs the two stages of the frame graph back to back on the calling
// goroutine; Pipeline overlaps them across consecutive frames with
// bit-identical output.
func (c *Client) Next(in Input) (*FrameResult, error) {
	// The whole of Next is one playout slot's processing: decode plus
	// recovery/SR. This is the span the per-frame deadline measures.
	defer telemetry.FrameStart().Done()
	res, outTx, err := c.stageIngest(in)
	if err != nil {
		return nil, err
	}
	res.Frame = c.stageEnhance(c.displayPlane(), outTx)
	return res, nil
}

// stageIngest is stage A of the frame graph: decode (or conceal/recover)
// the slot into a frame at transmission resolution, feed it back to the
// decoder as the next reference, and advance all temporal state — frame
// index, class counters, previous-frame chain, code chain. After it
// returns, the client is ready to ingest the next slot; the returned plane
// only remains to be enhanced (stage B), which reads nothing but the plane
// itself. That separation is what lets Pipeline run ingest(n+1) while
// enhance(n) is still in flight.
//
// The returned FrameResult is complete except for Frame: the class is
// final (including the ClassSR promotion — whether SR runs is a static
// property of the client) and the device-time model is fully charged.
// A side-channel code whose geometry is not the client's is an error,
// returned before any client state moves, as a decode error is.
func (c *Client) stageIngest(in Input) (*FrameResult, *vmath.Plane, error) {
	if code := in.Code; code != nil &&
		(code.W != c.ext.W || code.H != c.ext.H || len(code.Bits) != (code.W*code.H+7)/8) {
		return nil, nil, fmt.Errorf("core: frame %d: %dx%d code with %d bitmap bytes, want %dx%d",
			c.frameIdx, code.W, code.H, len(code.Bits), c.ext.W, c.ext.H)
	}
	res := &FrameResult{Index: c.frameIdx}
	dev := c.cfg.Device
	c.total++

	var outTx *vmath.Plane // displayed frame at transmission resolution
	var staleRef *vmath.Plane
	switch {
	case in.Encoded == nil && c.prevOut == nil:
		// Nothing at all yet: grey start-up frame.
		outTx = vmath.Get(c.cfg.W, c.cfg.H)
		outTx.Fill(128)
		res.Class = ClassReused
	case in.Encoded == nil:
		// Complete loss or late frame.
		outTx = c.conceal(nil, nil, in.Code, res)
	default:
		dr, err := c.dec.Decode(in.Encoded, in.Received)
		if err != nil {
			return nil, nil, fmt.Errorf("core: decode frame %d: %w", c.frameIdx, err)
		}
		res.ProcessSeconds += dev.DecodeLatency(nearestRung(c.cfg.W, c.cfg.H))
		if dr.Complete() {
			outTx = dr.Frame
			res.Class = ClassDecoded
		} else {
			outTx = c.conceal(dr.Frame, dr.Mask, in.Code, res)
			res.Class = ClassPartial
			// The corrupted decode stays the decoder's reference until
			// SetReference below swaps in the concealed frame.
			staleRef = dr.Frame
		}
		// The decoder builds a mask only for an incomplete frame; Put of
		// the nil mask of a complete one is a no-op.
		vmath.Put(dr.Mask)
	}

	// Feed the decoder the displayed frame as the next reference (the
	// paper's client substitutes the recovered frame for the missing
	// reference). The decoder only reads its reference, so the displayed
	// frame is shared with it rather than cloned.
	c.dec.SetReference(outTx)
	vmath.Put(staleRef)

	if c.sr != nil {
		res.ProcessSeconds += dev.EnhanceLatency()
		if res.Class == ClassDecoded {
			res.Class = ClassSR
		}
	}

	// Advance temporal state. The plane rotated out of prevPrev is no
	// longer referenced by the decoder (two SetReference calls ago), the
	// recovery model (which never retains its inputs) or a pending enhance
	// stage (which reads the newer prevOut and was joined a frame ago), and
	// never escapes to the caller (enhance always returns a new plane), so
	// it goes back to the pool.
	vmath.Put(c.prevPrev)
	c.prevPrev = c.prevOut
	c.prevOut = outTx
	if in.Code != nil {
		c.prevCode = in.Code
	} else {
		// Derive the code of the displayed frame locally so the chain
		// can continue when the side channel skips a frame.
		c.prevCode = c.ext.Extract(c.prevOut)
	}
	c.frameIdx++
	c.classes[res.Class]++
	return res, outTx, nil
}

// displayPlane takes the pooled OutW×OutH plane stage B writes the
// displayed frame into. Pipeline takes it on the caller goroutine before
// the enhance task starts, so the pool sees this Get before the caller
// Puts the frame Push returns, on every schedule.
func (c *Client) displayPlane() *vmath.Plane {
	return vmath.Get(c.cfg.OutW, c.cfg.OutH)
}

// stageEnhance is stage B of the frame graph: lift the transmission-
// resolution frame to display resolution into dst (SR head or plain
// bilinear; a copy when the resolutions are equal and SR is off). It
// reads only outTx and immutable client state (the SR head never changes
// after NewClient), touches no client temporal state, and is
// deterministic for any worker-pool size — the properties Pipeline relies
// on to overlap it with the next ingest.
func (c *Client) stageEnhance(dst, outTx *vmath.Plane) *vmath.Plane {
	if c.sr != nil {
		return c.sr.UpscaleInto(dst, outTx)
	}
	if c.cfg.OutW != c.cfg.W || c.cfg.OutH != c.cfg.H {
		return vmath.ResizeBilinearInto(dst, outTx)
	}
	// outTx stays the decoder's reference and prevOut: the caller gets a
	// copy it owns, as FrameResult.Frame promises.
	return dst.CopyFrom(outTx)
}

// conceal produces a frame when input is missing or partial.
func (c *Client) conceal(part, mask *vmath.Plane, code *edgecode.Code, res *FrameResult) *vmath.Plane {
	c.recovered++
	dev := c.cfg.Device
	if !c.cfg.EnableRecovery || c.prevOut == nil {
		res.Class = ClassReused
		if c.prevOut == nil {
			p := vmath.Get(c.cfg.W, c.cfg.H)
			p.Fill(128)
			return p
		}
		out := vmath.Get(c.prevOut.W, c.prevOut.H).CopyFrom(c.prevOut)
		if part != nil && mask != nil {
			// Even the reuse client keeps correctly received regions.
			for i := range out.Pix {
				if mask.Pix[i] > 0.5 {
					out.Pix[i] = part.Pix[i]
				}
			}
		}
		return out
	}
	res.Class = ClassRecovered
	res.ProcessSeconds += dev.RecoveryLatency()
	return c.rec.Recover(recovery.Input{
		Prev:     c.prevOut,
		PrevPrev: c.prevPrev,
		PrevCode: c.prevCode,
		CurCode:  code,
		Part:     part,
		PartMask: mask,
	})
}

// nearestRung maps arbitrary dimensions to the closest ladder rung for the
// decode-latency model.
func nearestRung(w, h int) (r videoResolution) {
	return nearestResolution(h)
}
