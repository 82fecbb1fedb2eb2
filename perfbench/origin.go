package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"nerve/internal/codec"
	"nerve/internal/edgecode"
	"nerve/internal/httpstream"
	"nerve/internal/vmath"
)

// origin is an httpstream.Server on a loopback listener.
type origin struct {
	srv  *httpstream.Server
	hs   *http.Server
	url  string
	done chan error
}

func startOrigin(cfg httpstream.ServerConfig) (*origin, error) {
	srv, err := httpstream.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("origin listener: %w", err)
	}
	o := &origin{srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { o.done <- o.hs.Serve(ln) }()
	return o, nil
}

// close stops the server and waits for its accept loop to end.
func (o *origin) close() error {
	err := o.hs.Close()
	if serr := <-o.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// dial returns a fetch client with its own transport holding at most one
// connection, so each caller is one connection to the origin.
func (o *origin) dial() (*httpstream.Client, *http.Transport, error) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c, err := httpstream.NewFetchClient(o.url, &http.Client{Transport: tr})
	if err != nil {
		tr.CloseIdleConnections()
		return nil, nil, err
	}
	return c, tr, nil
}

func codesPath(n int) string         { return fmt.Sprintf("/codes?n=%d", n) }
func segmentPath(rate, n int) string { return fmt.Sprintf("/segment?rate=%d&n=%d", rate, n) }

// published is the set of payloads the origin has built, with the bytes of
// each key's first build — the reference every later hit must match.
type published struct {
	mu    sync.Mutex
	keys  []string
	first map[string][]byte
}

func newPublished() *published { return &published{first: map[string][]byte{}} }

func (p *published) add(key string, b []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.first[key]; !ok {
		p.keys = append(p.keys, key)
		p.first[key] = b
	}
}

// get returns key's first build.
func (p *published) get(key string) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.first[key]
	return b, ok
}

// pick returns the key schedule draw i selects and its first build, or
// ok=false while nothing is published.
func (p *published) pick(s schedule, i int) (key string, want []byte, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.keys) == 0 {
		return "", nil, false
	}
	key = p.keys[s.key(i, len(p.keys))]
	return key, p.first[key], true
}

// viewerStats is what the viewer connection saw.
type viewerStats struct {
	hits  sample // ms from when each hit was due to its last byte
	late  sample // ms the generator sent each hit after it was due
	bytes int
	chk   checks
}

// runViewer sends cache hits on published keys over one connection on the
// schedule's fixed open-loop timetable until stop closes. It returns after
// its last request completes.
func runViewer(c *httpstream.Client, pub *published, s schedule, tr *tracer, stop <-chan struct{}) *viewerStats {
	st := &viewerStats{}
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * s.period)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return st
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return st
			default:
			}
		}
		key, want, ok := pub.pick(s, i)
		if !ok {
			continue
		}
		sent := time.Now()
		root := tr.begin(sp{}, fmt.Sprintf("hit-%d", i), "viewer.hit", "")
		var got []byte
		var err error
		timed(root, "httpstream.Client.Fetch", "hit", func() { got, err = c.Fetch(key) })
		root.end()
		st.late.add(sent.Sub(due))
		st.hits.add(time.Since(due))
		st.bytes += len(got)
		if st.chk.op(err) && !bytes.Equal(got, want) {
			st.chk.fail(fmt.Errorf("hit %s: %d bytes differ from the first build (%d bytes)", key, len(got), len(want)))
		}
	}
}

// origin-live: a cold origin publishing a 3-rung ladder of a live title.
const (
	liveW, liveH   = 320, 180
	liveChunkSecs  = 1
	liveFPC        = liveChunkSecs * 30
	liveSetupRuns  = 31
	livePSNRStride = 10
	// liveViewerRate is the hit rate on published chunks, requests per
	// second: 1/25 of the hits one connection sustains closed-loop on the
	// published title with the walker idle (about 5,200/s on a 2-core
	// x86-64 VM), so the reads load the origin beside the walk without
	// saturating it.
	liveViewerRate = 200
)

var liveRates = []int{200, 400, 800}

// runOrigin runs origin-live: one connection walks the title in order,
// fetching /codes and every rung of each chunk — each a cold build that
// writes the cache — while a second connection sends hits on published
// chunks on a fixed open-loop schedule. The title has --seconds one-second
// chunks.
func runOrigin(o opts) (*result, error) {
	chunks := o.seconds
	cfg := httpstream.ServerConfig{
		W: liveW, H: liveH, ChunkSeconds: liveChunkSecs, Chunks: chunks,
		Rates: liveRates, Source: content(),
	}
	// Set-up: a cold server on a fresh listener and both connections'
	// manifest fetch. It is cheap, so it is timed several times.
	var setups sample
	var org *origin
	var walker, viewer *httpstream.Client
	var trs []*http.Transport
	for i := 0; i < liveSetupRuns; i++ {
		t0 := time.Now()
		so, err := startOrigin(cfg)
		if err != nil {
			return nil, err
		}
		w, wt, err := so.dial()
		if err != nil {
			so.close()
			return nil, err
		}
		v, vt, err := so.dial()
		if err != nil {
			wt.CloseIdleConnections()
			so.close()
			return nil, err
		}
		setups.add(time.Since(t0))
		if org != nil {
			for _, t := range trs {
				t.CloseIdleConnections()
			}
			if err := org.close(); err != nil {
				return nil, err
			}
		}
		org, walker, viewer, trs = so, w, v, []*http.Transport{wt, vt}
	}
	defer func() {
		for _, t := range trs {
			t.CloseIdleConnections()
		}
		org.close()
	}()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var chk checks
	pub := newPublished()
	stop := make(chan struct{})
	vstats := make(chan *viewerStats, 1)
	sched := newSchedule(o.seed, liveViewerRate)
	started := false

	var misses, chunkFPS sample
	var fetched int
	peakReset := resetPeakRSS()
	before := readUsage()
	for n := 0; n < chunks; n++ {
		t0 := time.Now()
		root := tr.begin(sp{}, fmt.Sprintf("chunk-%d", n), "origin.chunk", "")
		paths := []string{codesPath(n)}
		for r := range liveRates {
			paths = append(paths, segmentPath(r, n))
		}
		for _, path := range paths {
			var b []byte
			var err error
			misses.add(timed(root, "httpstream.Client.Fetch", "miss", func() { b, err = walker.Fetch(path) }))
			fetched += len(b)
			if !chk.op(err) {
				continue
			}
			if err := checkPayload(path, b); err != nil {
				chk.fail(err)
				continue
			}
			pub.add(path, b)
			if !started {
				started = true
				go func() { vstats <- runViewer(viewer, pub, sched, tr, stop) }()
			}
		}
		root.end()
		chunkFPS = append(chunkFPS, liveFPC/time.Since(t0).Seconds())
	}
	after := readUsage()
	close(stop)
	vs := &viewerStats{}
	if started {
		vs = <-vstats
	}
	walk := after.since(before)
	if len(vs.hits) == 0 {
		chk.fail(errors.New("the viewer sent no hit"))
	}

	chk.merge(&vs.chk)
	if got, want := org.srv.Encodes(), int64(len(liveRates)*chunks); got != want {
		chk.fail(fmt.Errorf("server encoded %d chunk-rungs, want %d (rungs × chunks): duplicate or missing builds", got, want))
	}
	psnr, err := livePSNR(pub, chunks)
	if err != nil {
		chk.fail(err)
	}

	frames := chunks * liveFPC
	// A source frame's critical path at the origin is its share of the
	// cold build that publishes it.
	perFrame := make(sample, len(misses))
	for i, v := range misses {
		perFrame[i] = v / liveFPC
	}
	m := metrics{}
	fmt.Fprintf(o.log, "origin-live: %d chunks × %d rungs + codes at %dx%d, walk %.2f s, frame p99 %.2f ms, %d hits (p99 %.2f ms, late p99 %.2f ms), peak RSS %.1f MB (%s)\n",
		chunks, len(liveRates), liveW, liveH, walk.wall.Seconds(), perFrame.p(0.99), len(vs.hits), vs.hits.p(0.99), vs.late.p(0.99), walk.peakRSSMB, peakScope(peakReset))
	if !o.trace {
		m.set("setup_s", median(setups)/1e3)
		m.set("cpu_ms_per_frame", walk.cpuMsPer(frames))
		m.set("peak_rss_mb", walk.peakRSSMB)
		m.set("fps", median(chunkFPS))
		m.set("frame_ms_p50", perFrame.p(0.5))
		m.set("psnr_db", psnr)
		m.set("hit_ms_p50", vs.hits.p(0.5))
		return chk.result(m), nil
	}

	// Traced run: replay the server's per-chunk builds through the
	// layers' public entry points, one span per call under a chunk span.
	traceOriginLayers(tr, cfg)
	zeroLayers(m)
	m.set("frame_ms_p99", perFrame.p(0.99))
	m.set("hit_ms_p99", vs.hits.p(0.99))
	cs := org.srv.CacheStats()
	m.set("codec.encode_ms_p50", tr.byName("codec.Encoder.Encode", "").p(0.5))
	m.set("video.render_ms_p50", tr.byName("video.Generator.Render", "").p(0.5))
	m.set("edgecode.extract_ms_p50", tr.byName("edgecode.Extractor.Extract", "").p(0.5))
	m.set("httpstream.fetch_ms_p50", tr.byName("httpstream.Client.Fetch", "").p(0.5))
	m.set("httpstream.miss_ms_p50", misses.p(0.5))
	m.set("httpstream.encodes", float64(org.srv.Encodes()))
	m.set("httpstream.cache_hit_ratio", cs.HitRatio())
	m.set("httpstream.bytes_per_s", float64(fetched+vs.bytes)/walk.wall.Seconds())
	m.set("viewer.late_ms_p99", vs.late.p(0.99))
	walk.layerMetrics(m, frames)
	if err := tr.report(o.log, o.traceOut); err != nil {
		return nil, err
	}
	return chk.result(m), nil
}

// checkPayload checks one cold build: a segment splits into liveFPC wire
// frames that unmarshal, a codes payload into liveFPC codes that
// decompress.
func checkPayload(path string, b []byte) error {
	recs, err := splitRecords(b)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) != liveFPC {
		return fmt.Errorf("%s: %d records, want %d", path, len(recs), liveFPC)
	}
	for i, rec := range recs {
		if strings.HasPrefix(path, "/codes") {
			if _, err := edgecode.Decompress(rec); err != nil {
				return fmt.Errorf("%s: code %d: %w", path, i, err)
			}
			continue
		}
		var ef codec.EncodedFrame
		if err := ef.UnmarshalBinary(rec); err != nil {
			return fmt.Errorf("%s: frame %d: %w", path, i, err)
		}
		if ef.W != liveW || ef.H != liveH {
			return fmt.Errorf("%s: frame %d is %dx%d", path, i, ef.W, ef.H)
		}
	}
	return nil
}

// livePSNR decodes the published top rung in order and scores every
// livePSNRStride-th frame against the source render — the quality the
// origin publishes, scored after the timed walk.
func livePSNR(pub *published, chunks int) (float64, error) {
	gen := content()
	top := len(liveRates) - 1
	dec := codec.NewDecoder(codec.Config{W: liveW, H: liveH})
	var sum float64
	var n int
	for c := 0; c < chunks; c++ {
		b, _ := pub.get(segmentPath(top, c))
		recs, err := splitRecords(b)
		if err != nil {
			return 0, err
		}
		for i, rec := range recs {
			var ef codec.EncodedFrame
			if err := ef.UnmarshalBinary(rec); err != nil {
				return 0, err
			}
			dr, err := dec.Decode(&ef, nil)
			if err != nil {
				return 0, fmt.Errorf("decode top rung chunk %d frame %d: %w", c, i, err)
			}
			vmath.Put(dr.Mask)
			if i%livePSNRStride == 0 {
				sum += psnr8(quantizeGrid(dr.Frame, 1), quantizeGrid(gen.Render(c*liveFPC+i, liveW, liveH), 1))
				n++
			}
			dec.SetReference(dr.Frame)
		}
	}
	if n == 0 {
		return 0, errors.New("no published frame to score")
	}
	return sum / float64(n), nil
}

// traceOriginLayers replays the server-side build of the title's first
// half (at least one chunk) through the layers' public entry points in the
// order httpstream.Server calls them: the codes path (Render, Extract,
// Compress) and, per rung, the segment path (Render, Encode,
// MarshalBinary).
func traceOriginLayers(tr *tracer, cfg httpstream.ServerConfig) {
	encs := make([]*codec.Encoder, len(cfg.Rates))
	for r, kbps := range cfg.Rates {
		encs[r] = codec.NewEncoder(codec.Config{W: cfg.W, H: cfg.H, GOP: liveFPC, TargetBitrate: float64(kbps) * 1000})
	}
	for n := 0; n < (cfg.Chunks+1)/2; n++ {
		root := tr.begin(sp{}, fmt.Sprintf("chunk-%d", n), "origin.chunk.layers", "")
		ext := edgecode.NewExtractor(0, 0)
		ext.HistoryWeight = 0
		for i := 0; i < liveFPC; i++ {
			var f *vmath.Plane
			var code *edgecode.Code
			timed(root, "video.Generator.Render", "codes", func() { f = cfg.Source.Render(n*liveFPC+i, cfg.W, cfg.H) })
			timed(root, "edgecode.Extractor.Extract", "", func() { code = ext.Extract(f) })
			timed(root, "edgecode.Code.Compress", "", func() { code.Compress() })
		}
		for r, enc := range encs {
			tag := fmt.Sprintf("rung%d", r)
			for i := 0; i < liveFPC; i++ {
				var f *vmath.Plane
				var ef *codec.EncodedFrame
				timed(root, "video.Generator.Render", tag, func() { f = cfg.Source.Render(n*liveFPC+i, cfg.W, cfg.H) })
				timed(root, "codec.Encoder.Encode", tag, func() { ef = enc.Encode(f) })
				timed(root, "codec.EncodedFrame.MarshalBinary", tag, func() { _, _ = ef.MarshalBinary() })
			}
		}
		root.end()
	}
}

// quantizeGrid rounds the plane's pixels on every step-th row and column
// to the 8-bit samples a display shows.
func quantizeGrid(p *vmath.Plane, step int) []uint8 {
	out := make([]uint8, 0, (p.W/step+1)*(p.H/step+1))
	for y := 0; y < p.H; y += step {
		row := p.Pix[y*p.W : (y+1)*p.W]
		for x := 0; x < p.W; x += step {
			switch v := row[x]; {
			case v <= 0:
				out = append(out, 0)
			case v >= 255:
				out = append(out, 255)
			default:
				out = append(out, uint8(v+0.5))
			}
		}
	}
	return out
}

// psnr8 is the PSNR in dB of two equal-size 8-bit images, capped at 99 dB
// for identical images.
func psnr8(a, b []uint8) float64 {
	var se float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		se += d * d
	}
	if se == 0 {
		return 99
	}
	return 10 * math.Log10(255*255*float64(len(a))/se)
}
