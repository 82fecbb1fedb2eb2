package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"nerve/internal/codec"
	"nerve/internal/core"
	"nerve/internal/edgecode"
	"nerve/internal/fec"
	"nerve/internal/httpstream"
	"nerve/internal/recovery"
	"nerve/internal/sr"
	"nerve/internal/vmath"
)

// The play workloads: one client session at the headline operating point,
// 960×540 transmission super-resolved to 1920×1080, with the kernel tier
// chosen per frame by the deadline governor.
const (
	txW, txH   = 960, 540
	outW, outH = 1920, 1080
	// clipFrames is the looped clip: one GOP, served as one chunk.
	clipFrames   = 60
	playRateKbps = 6000
	// warmSlots run before the timed window: the governor's first frames
	// run the float tier until it has observed one. It is a multiple of
	// lossyFrameBlock, so every fpsWindow of play-lossy holds the same
	// number of whole-frame losses.
	warmSlots = 10
	// Quality is scored on every psnrStride-th slot, on a psnrGrid-pixel
	// grid of the frame — a fixed sample, so psnr_db repeats exactly per
	// seed.
	psnrStride = 4
	psnrGrid   = 4
	// fpsWindow is the slots per window the frame rate and the CPU cost
	// per frame are measured over: one loop of the clip.
	fpsWindow = clipFrames
	// playSetupRuns is how many times set-up is timed per run.
	playSetupRuns = 2
	// frameBudget is the 30 fps slot.
	frameBudget = time.Second / 30
)

// player is a warmed origin plus one client session.
type player struct {
	org     *origin
	fetch   *httpstream.Client
	tr      *http.Transport
	pipe    *core.Pipeline
	lossy   bool
	planner *fec.Planner
	// pub holds the first build of the clip's codes and segment.
	pub *published
	// truth caches the ground-truth 1080p renders scorePSNR uses, by clip
	// frame, sampled on the psnrGrid.
	truth map[int][]uint8
}

// setupPlay starts the origin on loopback, cold-builds the clip's codes
// and segment on two connections at once (warming the cache), and builds
// the client.
func setupPlay(lossy bool) (*player, error) {
	org, err := startOrigin(httpstream.ServerConfig{
		W: txW, H: txH, ChunkSeconds: clipFrames / 30, Chunks: 1,
		Rates: []int{playRateKbps}, Source: content(),
	})
	if err != nil {
		return nil, err
	}
	p := &player{org: org, lossy: lossy, planner: fec.DefaultPlanner(), pub: newPublished(), truth: map[int][]uint8{}}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()
	if p.fetch, p.tr, err = org.dial(); err != nil {
		return nil, err
	}
	// A second connection, used only here, builds the segment while the
	// session's connection builds the codes.
	warm, wt, err := org.dial()
	if err != nil {
		return nil, err
	}
	defer wt.CloseIdleConnections()
	paths := []string{codesPath(0), segmentPath(0, 0)}
	bodies := make([][]byte, len(paths))
	errs := make([]error, len(paths))
	var wg sync.WaitGroup
	for i, c := range []*httpstream.Client{p.fetch, warm} {
		wg.Add(1)
		go func(i int, c *httpstream.Client) {
			defer wg.Done()
			bodies[i], errs[i] = c.Fetch(paths[i])
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("warm origin: %w", err)
		}
		p.pub.add(paths[i], bodies[i])
	}
	if err := p.newClient(); err != nil {
		return nil, err
	}
	ok = true
	return p, nil
}

// newClient gives the player a fresh client session.
func (p *player) newClient() error {
	cli, err := core.NewClient(core.ClientConfig{
		W: txW, H: txH, OutW: outW, OutH: outH,
		EnableRecovery: true, EnableSR: true, Tier: core.TierAuto,
	})
	if err != nil {
		return err
	}
	p.pipe = core.NewPipeline(cli)
	return nil
}

func (p *player) close() {
	if p.tr != nil {
		p.tr.CloseIdleConnections()
	}
	p.org.close()
}

// slotInput is what reached the client for one slot, kept by a traced
// session for the layer replay.
type slotInput struct {
	in   core.Input
	tier core.Tier
}

// session is the outcome of one played session.
type session struct {
	slots, displayed int
	push             sample // ms per timed Push, the slot's critical path
	fps              float64
	cpuPerFrame      float64 // ms of process CPU per displayed frame
	use              usageDelta
	late             int
	tiers            map[core.Tier]int
	classes          map[core.FrameClass]int
	psnr             float64
	bytes            int
	// codeHits and segHits are ms per fetch of the clip's codes and
	// segment, both cache hits, one of each per loop of the clip.
	codeHits, segHits sample
	// peakReset reports whether the kernel reset the RSS high-water mark
	// at the start of the timed window, so use.peakRSSMB is the
	// session's own peak.
	peakReset bool
	// play-lossy channel accounting.
	lostPacketFrames, repaired int
	dataBytes, wireBytes       int
	inputs                     []slotInput // traced sessions only
	chk                        checks
}

// play runs one session of slots playout slots through the pipeline,
// fetching the clip's codes and segment from the origin at each loop of
// the clip. Slots before warmSlots are untimed.
func (p *player) play(seed int64, slots int, tr *tracer, keep bool) *session {
	s := &session{slots: slots, tiers: map[core.Tier]int{}}
	var plan *lossPlan
	if p.lossy {
		plan = newLossPlan(seed, slots)
	}
	redundancy := p.planner.Redundancy(lossyPacketLoss)
	samples := map[int][]uint8{}
	var codes, frames [][]byte
	expect := 0

	// display consumes one completed frame.
	display := func(res *core.FrameResult) {
		if res == nil {
			return
		}
		if res.Index != expect || res.Frame == nil || res.Frame.W != outW || res.Frame.H != outH {
			s.chk.fail(fmt.Errorf("slot %d: got frame %d, want one %dx%d frame for slot %d", expect, res.Index, outW, outH, expect))
		} else {
			s.displayed++
			s.tiers[res.Tier]++
			if res.Index%psnrStride == 0 {
				samples[res.Index] = quantizeGrid(res.Frame, psnrGrid)
			}
			if keep {
				s.inputs[res.Index].tier = res.Tier
			}
		}
		expect = res.Index + 1
		vmath.Put(res.Frame)
	}

	// Each fpsWindow slots of the timed session give one frame rate and
	// one CPU cost per frame; the session reports their medians, so a
	// burst of load from outside the process moves them less.
	var fpsWins, cpuWins []float64
	var winWall time.Time
	var winCPU time.Duration
	mark := func() {
		now, cpu := time.Now(), cpuTime()
		if !winWall.IsZero() {
			fpsWins = append(fpsWins, fpsWindow/now.Sub(winWall).Seconds())
			cpuWins = append(cpuWins, ms(cpu-winCPU)/fpsWindow)
		}
		winWall, winCPU = now, cpu
	}
	before := readUsage()
	for slot := 0; slot < slots; slot++ {
		if slot == warmSlots {
			s.peakReset = resetPeakRSS()
			before = readUsage()
		}
		if slot >= warmSlots && (slot-warmSlots)%fpsWindow == 0 {
			mark()
		}
		root := tr.begin(sp{}, fmt.Sprintf("frame-%d", slot), "slot", "")
		i := slot % clipFrames
		if i == 0 {
			var err error
			codes, frames, err = p.fetchClip(root, s)
			if !s.chk.op(err) {
				root.end()
				break
			}
		}
		in := core.Input{}
		var code *edgecode.Code
		var err error
		timed(root, "edgecode.Decompress", "", func() { code, err = edgecode.Decompress(codes[i]) })
		if !s.chk.op(err) {
			root.end()
			break
		}
		in.Code = code
		if plan == nil || !plan.lost[slot] {
			ef := new(codec.EncodedFrame)
			timed(root, "codec.EncodedFrame.UnmarshalBinary", "", func() { err = ef.UnmarshalBinary(frames[i]) })
			if !s.chk.op(err) {
				root.end()
				break
			}
			in.Encoded = ef
			if plan != nil {
				in.Received, err = s.datagrams(root, ef, redundancy, plan)
				if !s.chk.op(err) {
					root.end()
					break
				}
			}
		}
		if keep {
			s.inputs = append(s.inputs, slotInput{in: in})
		}
		var res *core.FrameResult
		d := timed(root, "core.Pipeline.Push", "", func() { res, err = p.pipe.Push(in) })
		root.end()
		if slot >= warmSlots {
			s.push.add(d)
			if d > frameBudget {
				s.late++
			}
		}
		if !s.chk.op(err) {
			break
		}
		display(res)
	}
	if len(s.push) == slots-warmSlots && len(s.push)%fpsWindow == 0 {
		mark() // the last window ends with the session
	}
	display(p.pipe.Flush())
	after := readUsage()
	s.use = after.since(before)
	s.fps, s.cpuPerFrame = median(fpsWins), median(cpuWins)
	if len(fpsWins) == 0 {
		s.fps = float64(s.displayed-warmSlots) / s.use.wall.Seconds()
		s.cpuPerFrame = s.use.cpuMsPer(s.displayed - warmSlots)
	}
	if s.displayed != slots {
		s.chk.fail(fmt.Errorf("displayed %d frames for %d slots", s.displayed, slots))
	}
	s.classes = p.pipe.Client().ClassCounts()
	s.psnr = p.scorePSNR(samples)
	return s
}

// fetchClip fetches the clip's codes and segment from the origin (cache
// hits), checks them against the first build and splits them into
// clipFrames records each.
func (p *player) fetchClip(root sp, s *session) (codes, frames [][]byte, err error) {
	for _, path := range []string{codesPath(0), segmentPath(0, 0)} {
		var b []byte
		d := timed(root, "httpstream.Client.Fetch", "hit", func() { b, err = p.fetch.Fetch(path) })
		if err != nil {
			return nil, nil, err
		}
		isCodes := strings.HasPrefix(path, "/codes")
		if isCodes {
			s.codeHits.add(d)
		} else {
			s.segHits.add(d)
		}
		s.bytes += len(b)
		if want, _ := p.pub.get(path); !bytes.Equal(b, want) {
			return nil, nil, fmt.Errorf("%s: %d bytes differ from the first build (%d bytes)", path, len(b), len(want))
		}
		recs, err := splitRecords(b)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(recs) != clipFrames {
			return nil, nil, fmt.Errorf("%s: %d records, want %d", path, len(recs), clipFrames)
		}
		if isCodes {
			codes = recs
		} else {
			frames = recs
		}
	}
	return codes, frames, nil
}

// datagrams sends one frame's slices over play-lossy's channel: FEC
// protection at the planned redundancy, seeded bursty shard loss, and FEC
// repair. It returns the per-slice arrival mask the client sees (nil when
// every slice arrived) and checks every repaired slice against the sent
// one.
func (s *session) datagrams(root sp, ef *codec.EncodedFrame, redundancy float64, plan *lossPlan) ([]bool, error) {
	packets := make([][]byte, len(ef.Slices))
	for j := range ef.Slices {
		packets[j] = ef.Slices[j].Data
		s.dataBytes += len(packets[j])
	}
	var prot *fec.Protected
	var err error
	timed(root, "fec.Protect", "", func() { prot, err = fec.Protect(packets, redundancy, fec.KindReedSolomon) })
	if err != nil {
		return nil, err
	}
	s.wireBytes += prot.TotalBytes()
	got := plan.received(prot.K + prot.M)
	var out [][]byte
	var whole bool
	timed(root, "fec.Protected.Recover", "", func() { out, whole = prot.Recover(got) })
	if !repairable(got, len(got)) { // a shard was dropped
		s.lostPacketFrames++
		if whole {
			s.repaired++
		}
	}
	recv := make([]bool, len(out))
	for j, b := range out {
		if b == nil {
			continue
		}
		if !bytes.Equal(b, packets[j]) {
			return nil, fmt.Errorf("frame %d slice %d: FEC returned different bytes", ef.Index, j)
		}
		recv[j] = true
	}
	if whole {
		return nil, nil
	}
	return recv, nil
}

// scorePSNR is the mean PSNR of the sampled displayed frames against the
// ground-truth 1080p render of their source frame.
// The renders run on two goroutines.
func (p *player) scorePSNR(samples map[int][]uint8) float64 {
	gen := content()
	var idx []int
	truth := p.truth
	for slot := range samples {
		if i := slot % clipFrames; truth[i] == nil {
			truth[i] = []uint8{}
			idx = append(idx, i)
		}
	}
	rendered := make([][]uint8, len(idx))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(idx); j += 2 {
				rendered[j] = quantizeGrid(gen.Render(idx[j], outW, outH), psnrGrid)
			}
		}(w)
	}
	wg.Wait()
	for j, i := range idx {
		truth[i] = rendered[j]
	}
	var sum float64
	// Sum in slot order so the result repeats to the last bit.
	slots := make([]int, 0, len(samples))
	for slot := range samples {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	for _, slot := range slots {
		sum += psnr8(samples[slot], truth[slot%clipFrames])
	}
	return ratio(sum, float64(len(samples)))
}

// runPlay runs play-clean or play-lossy: a session of --seconds of video
// (30 slots a second) after warmSlots warm-up slots.
func runPlay(o opts, lossy bool) (*result, error) {
	runs := playSetupRuns
	if o.trace {
		runs = 1 // a traced run reports no setup_s
	}
	var setups sample
	var p *player
	for i := 0; i < runs; i++ {
		if p != nil {
			p.close()
		}
		t0 := time.Now()
		var err error
		if p, err = setupPlay(lossy); err != nil {
			return nil, err
		}
		setups.add(time.Since(t0))
	}
	defer p.close()

	slots := warmSlots + o.seconds*30
	m := metrics{}
	if !o.trace {
		s := p.play(o.seed, slots, nil, false)
		s.log(o, "untraced")
		m.set("setup_s", median(setups)/1e3)
		m.set("cpu_ms_per_frame", s.cpuPerFrame)
		m.set("peak_rss_mb", s.use.peakRSSMB)
		m.set("fps", s.fps)
		m.set("frame_ms_p50", s.push.p(0.5))
		m.set("psnr_db", s.psnr)
		m.set("hit_ms_p50", s.codeHits.p(0.5))
		return s.chk.result(m), nil
	}

	// Traced run: an untraced session for the reference frame rate, a
	// traced session on a fresh client, then the traced session's inputs
	// replayed through the layers' public entry points. Each session is
	// half the untraced run's length.
	slots = warmSlots + o.seconds*15
	s0 := p.play(o.seed, slots, nil, false)
	s0.log(o, "untraced")
	if err := p.newClient(); err != nil {
		return nil, err
	}
	tr := newTracer()
	s1 := p.play(o.seed, slots, tr, true)
	s1.log(o, "traced")
	lay, err := replayLayers(tr, s1.inputs)
	if err != nil {
		return nil, err
	}
	zeroLayers(m)
	m.set("frame_ms_p99", s0.push.p(0.99))
	m.set("hit_ms_p99", s0.codeHits.p(0.99))
	frames := float64(s1.displayed - warmSlots)
	fps0, fps1 := s0.fps, s1.fps
	m.set("core.next_ms_p50", lay.frame.p(0.5))
	m.set("core.overlap_ratio", ratio(lay.frame[warmSlots:].sum(), s1.push.sum()))
	m.set("core.float_frames", float64(s1.tiers[core.TierFloat]))
	m.set("core.frames_sr", float64(s1.classes[core.ClassSR]))
	m.set("core.frames_partial", float64(s1.classes[core.ClassPartial]))
	m.set("core.frames_recovered", float64(s1.classes[core.ClassRecovered]))
	m.set("core.frames_reused", float64(s1.classes[core.ClassReused]))
	for c, n := range lay.classes {
		if s1.classes[c] != n {
			s1.chk.fail(fmt.Errorf("layer replay produced %d %s frames, the client %d", n, c, s1.classes[c]))
		}
	}
	dec := tr.byName("codec.Decoder.Decode", "")
	m.set("codec.decode_ms_p50", dec.p(0.5))
	m.set("codec.decode_ms_p99", dec.p(0.99))
	m.set("codec.decode_iframe_ms_p50", tr.byName("codec.Decoder.Decode", "I").p(0.5))
	m.set("codec.decode_partial_ms_p50", tr.byName("codec.Decoder.Decode", "partial").p(0.5))
	m.set("codec.unmarshal_us_p50", 1e3*tr.byName("codec.EncodedFrame.UnmarshalBinary", "").p(0.5))
	m.set("edgecode.decompress_us_p50", 1e3*tr.byName("edgecode.Decompress", "").p(0.5))
	lost := tr.byName("recovery.Recoverer.Recover", "lost")
	part := tr.byName("recovery.Recoverer.Recover", "partial")
	m.set("recovery.lost_ms_p50", lost.p(0.5))
	m.set("recovery.lost_ms_p99", lost.p(0.99))
	m.set("recovery.partial_ms_p50", part.p(0.5))
	m.set("recovery.partial_ms_p99", part.p(0.99))
	m.set("recovery.calls", float64(len(lost)+len(part)))
	fixed := tr.byName("sr.FastUpscaler.Upscale", "")
	m.set("sr.fixed_ms_p50", fixed.p(0.5))
	m.set("sr.fixed_ms_p99", fixed.p(0.99))
	m.set("sr.float_ms_p50", tr.byName("sr.SuperResolver.Upscale", "").p(0.5))
	m.set("fec.protect_ms_p50", tr.byName("fec.Protect", "").p(0.5))
	m.set("fec.recover_ms_p50", tr.byName("fec.Protected.Recover", "").p(0.5))
	m.set("fec.repaired_ratio", ratio(float64(s1.repaired), float64(s1.lostPacketFrames)))
	m.set("fec.overhead_ratio", ratio(float64(s1.wireBytes-s1.dataBytes), float64(s1.dataBytes)))
	m.set("httpstream.fetch_ms_p50", tr.byName("httpstream.Client.Fetch", "").p(0.5))
	m.set("httpstream.encodes", float64(p.org.srv.Encodes()))
	m.set("httpstream.cache_hit_ratio", p.org.srv.CacheStats().HitRatio())
	m.set("httpstream.bytes_per_s", float64(s1.bytes)/s1.use.wall.Seconds())
	s1.use.layerMetrics(m, int(frames))
	m.set("trace.overhead_frac", 1-fps1/fps0)
	fmt.Fprintf(o.log, "tracing overhead: %.1f fps traced vs %.1f fps untraced (%.1f%%)\n", fps1, fps0, 100*(1-fps1/fps0))
	if err := tr.report(o.log, o.traceOut); err != nil {
		return nil, err
	}
	return s1.chk.result(m), nil
}

// log prints the session's diagnostics, late_frac among them.
func (s *session) log(o opts, what string) {
	fmt.Fprintf(o.log, "%s session: %d slots, %d displayed, %.1f fps, Push p50 %.2f / p99 %.2f ms, late_frac %.3f (%d of %d over %.1f ms), codes hit p50 %.3f ms, segment hit p50 %.2f ms, psnr %.3f dB\n",
		what, s.slots, s.displayed, s.fps, s.push.p(0.5), s.push.p(0.99),
		ratio(float64(s.late), float64(len(s.push))), s.late, len(s.push), ms(frameBudget), s.codeHits.p(0.5), s.segHits.p(0.5), s.psnr)
	fmt.Fprintf(o.log, "  peak RSS %.1f MB (%s), classes %v, tiers %v", s.use.peakRSSMB, peakScope(s.peakReset), s.classes, s.tiers)
	if s.lostPacketFrames > 0 {
		fmt.Fprintf(o.log, ", FEC repaired %d of %d frames that lost a packet", s.repaired, s.lostPacketFrames)
	}
	fmt.Fprintln(o.log)
}

// layers is the outcome of a layer replay.
type layers struct {
	frame   sample // ms per replayed slot: Next's sequential call chain
	classes map[core.FrameClass]int
}

// replayLayers sends a traced session's inputs through the layers' public
// entry points in the order core.Client calls them — decode, recovery of a
// lost or partial frame, SR in the tier the governor chose — one span per
// call under a per-slot span. The slot's sequential time is what
// Client.Next would spend on it.
func replayLayers(tr *tracer, inputs []slotInput) (layers, error) {
	lay := layers{classes: map[core.FrameClass]int{}}
	dec := codec.NewDecoder(codec.Config{W: txW, H: txH})
	rec := recovery.New(recovery.Config{OutW: txW, OutH: txH})
	fast := sr.NewFast(sr.Config{OutW: outW, OutH: outH})
	full := sr.New(sr.Config{OutW: outW, OutH: outH})
	var prevOut, prevPrev *vmath.Plane
	var prevCode *edgecode.Code
	for slot, si := range inputs {
		in := si.in
		root := tr.begin(sp{}, fmt.Sprintf("frame-%d", slot), "frame.layers", si.tier.String())
		t0 := time.Now()
		rec.SetFixedPoint(si.tier == core.TierFixed)
		var out, stale *vmath.Plane
		class := core.ClassSR
		recover := func(tag string, part, mask *vmath.Plane) *vmath.Plane {
			var p *vmath.Plane
			timed(root, "recovery.Recoverer.Recover", tag, func() {
				p = rec.Recover(recovery.Input{Prev: prevOut, PrevPrev: prevPrev, PrevCode: prevCode, CurCode: in.Code, Part: part, PartMask: mask})
			})
			return p
		}
		switch {
		case in.Encoded == nil && prevOut == nil:
			out = vmath.Get(txW, txH)
			out.Fill(128)
			class = core.ClassReused
		case in.Encoded == nil:
			out = recover("lost", nil, nil)
			class = core.ClassRecovered
		default:
			tag := "P"
			if in.Received != nil {
				tag = "partial"
			} else if in.Encoded.Type == codec.FrameI {
				tag = "I"
			}
			var dr *codec.DecodeResult
			var err error
			timed(root, "codec.Decoder.Decode", tag, func() { dr, err = dec.Decode(in.Encoded, in.Received) })
			if err != nil {
				root.end()
				return lay, fmt.Errorf("replay slot %d: %w", slot, err)
			}
			if dr.Complete() {
				out = dr.Frame
			} else {
				out = recover("partial", dr.Frame, dr.Mask)
				stale = dr.Frame
				class = core.ClassPartial
			}
			vmath.Put(dr.Mask)
		}
		dec.SetReference(out)
		vmath.Put(stale)
		vmath.Put(prevPrev)
		prevPrev, prevOut, prevCode = prevOut, out, in.Code
		var up *vmath.Plane
		if si.tier == core.TierFixed {
			timed(root, "sr.FastUpscaler.Upscale", "", func() { up = fast.Upscale(out) })
		} else {
			timed(root, "sr.SuperResolver.Upscale", "", func() { up = full.Upscale(out) })
		}
		vmath.Put(up)
		lay.frame.add(time.Since(t0))
		root.end()
		lay.classes[class]++
	}
	return lay, nil
}
