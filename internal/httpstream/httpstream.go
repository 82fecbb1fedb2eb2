// Package httpstream puts the NERVE system behind real sockets: an
// HTTP media server in the DASH style (manifest + per-chunk segments at
// every ladder rung, plus the per-frame binary point codes as the reliable
// side channel) and a client that fetches, decodes, recovers and reports
// quality. The chunk simulator (internal/sim) answers the paper's QoE
// questions; this package demonstrates the deployable server/client split
// of Fig. 5 over net/http.
//
// The path is built to survive faults the way the paper's loss story
// demands: the server builds each chunk once for every payload it
// publishes (one render-once pass per chunk behind a singleflight cache,
// so cache hits never wait on a build and a miss waits at most for the
// pass in progress), and the client retries transient
// failures with backoff and, when a segment stays unreachable, degrades
// to codes-only recovery instead of aborting playback.
package httpstream

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nerve/internal/codec"
	"nerve/internal/core"
	"nerve/internal/edgecode"
	"nerve/internal/telemetry"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// Telemetry counters of the fault-handling path (see OBSERVABILITY.md):
// retries and degradations on the client, encodes and failed response
// writes on the server.
var (
	cRetries   = telemetry.NewCounter("httpstream_retries")
	cDegraded  = telemetry.NewCounter("httpstream_degraded_chunks")
	cEncodes   = telemetry.NewCounter("httpstream_server_encodes")
	cWriteErrs = telemetry.NewCounter("httpstream_server_write_errors")
	cCancels   = telemetry.NewCounter("httpstream_server_cancels")
	cFailovers = telemetry.NewCounter("httpstream_failovers")
)

// Manifest describes a stream to clients.
type Manifest struct {
	Width        int     `json:"w"`
	Height       int     `json:"h"`
	ChunkSeconds float64 `json:"chunkSeconds"`
	Chunks       int     `json:"chunks"`
	// RatesKbps lists the available rungs (index = rate parameter).
	RatesKbps []int `json:"ratesKbps"`
	FPS       int   `json:"fps"`
}

// ServerConfig parameterises NewServer.
type ServerConfig struct {
	// W, H is the transmission resolution.
	W, H int
	// ChunkSeconds is the segment duration (default 2 to keep demo
	// encodes fast; the paper uses 4).
	ChunkSeconds float64
	// Chunks is the stream length in segments (default 4).
	Chunks int
	// Rates lists the offered bitrates in kbps (default a reduced ladder
	// scaled to the transmission resolution).
	Rates []int
	// Source generates the content (default GamePlay seed 1).
	Source *video.Generator
	// CacheBytes bounds the segment/codes LRU cache (payload bytes;
	// default DefaultCacheBytes). Evicted segments re-encode on demand,
	// still collapsed by the singleflight.
	CacheBytes int64
	// Live switches the m3u8 media playlists from VOD to a sliding
	// window over an infinite stream that loops the procedural source
	// (see playlist.go). The JSON manifest and /segment endpoints are
	// unaffected.
	Live bool
	// LiveWindow is the live window length in segments (default
	// DefaultLiveWindow).
	LiveWindow int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.ChunkSeconds <= 0 {
		c.ChunkSeconds = 2
	}
	if c.Chunks <= 0 {
		c.Chunks = 4
	}
	if len(c.Rates) == 0 {
		c.Rates = []int{300, 800, 1500}
	}
	if c.Source == nil {
		c.Source = video.NewGenerator(video.Categories()[3], 1)
	}
	return c
}

// errOutOfRange marks requests for rates/chunks outside the manifest —
// the only errors ServeHTTP reports as 404 (everything else is a 500).
var errOutOfRange = errors.New("out of range")

// Server is an http.Handler serving the stream. Payloads are built
// lazily on first request and cached. A chunk is built in one pass that
// renders each source frame once and feeds it to the code extractor and
// to every rung's encoder that stands at the chunk (see build).
//
// Concurrency: cache hits take only the cache's lock and never wait on a
// build. A singleflight keyed by payload collapses concurrent identical
// misses into one computation, and one build lock serialises the passes:
// every rung's encoder advances chunk by chunk in order, and a pass
// publishes all the payloads of its chunk at once, so a miss that waited
// on the lock often finds its payload already cached. The lock is taken
// per pass, so a miss waits for the pass in progress, never for the rest
// of another request's walk.
//
// Endpoints:
//
//	GET /manifest                     → Manifest JSON
//	GET /segment?rate=<i>&n=<j>       → concatenated wire frames of chunk j
//	GET /codes?n=<j>                  → concatenated compressed codes of chunk j
type Server struct {
	cfg      ServerConfig
	manifest Manifest

	// cache is the bounded LRU holding segment and codes payloads
	// (keys "seg:<rate>:<n>" and "codes:<n>"). Eviction re-encodes on
	// the next request for the key, under the singleflight.
	cache *Cache

	flight flightGroup

	// buildMu serialises the passes of build: it guards encs and ext.
	buildMu sync.Mutex
	encs    []*serverRate
	// ext extracts the point codes. It is stateless (HistoryWeight 0), so
	// one extractor serves every chunk and reuses its scratch.
	ext *edgecode.Extractor

	// startNano anchors the live playlist's media-sequence clock; now is
	// the clock hook (overridable in tests).
	startNano int64
	now       func() int64

	encodes     atomic.Int64 // rung-chunk encodes performed (duplicates would inflate this)
	writeErrors atomic.Int64
	cancels     atomic.Int64 // requests abandoned because the client went away mid-build

	// testErr, when set, makes a pass fail at its first source frame at
	// or after testErrAt (internal-error path coverage). testAfterPass,
	// when set, runs between the passes of a walk, outside the build lock.
	testErr       error
	testErrAt     int
	testAfterPass func(m int)
}

// serverRate is one rung's encoder and its position in the stream.
type serverRate struct {
	enc  *codec.Encoder
	next int // next chunk to encode (chunks must be encoded in order)
	// last is the Recon of the encoder's last frame: its prediction
	// reference, returned to the pool once the next Encode has replaced it.
	last *vmath.Plane
}

// NewServer builds the HTTP media server.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.W <= 0 || cfg.H <= 0 {
		return nil, fmt.Errorf("httpstream: invalid dimensions %dx%d", cfg.W, cfg.H)
	}
	s := &Server{
		cfg: cfg,
		manifest: Manifest{
			Width: cfg.W, Height: cfg.H,
			ChunkSeconds: cfg.ChunkSeconds,
			Chunks:       cfg.Chunks,
			RatesKbps:    cfg.Rates,
			FPS:          video.FPS,
		},
		cache: NewCache(cfg.CacheBytes),
		now:   timeNowNano,
	}
	s.startNano = s.now()
	for rate := range cfg.Rates {
		s.encs = append(s.encs, &serverRate{enc: s.newEncoder(rate)})
	}
	s.ext = edgecode.NewExtractor(0, 0)
	s.ext.HistoryWeight = 0
	return s, nil
}

// newEncoder builds rung rate's encoder — used at construction and to
// rebuild encoder state when an evicted chunk must re-encode from the
// top of the stream (P frames depend on history).
func (s *Server) newEncoder(rate int) *codec.Encoder {
	return codec.NewEncoder(codec.Config{
		W: s.cfg.W, H: s.cfg.H,
		GOP:           int(s.cfg.ChunkSeconds * video.FPS),
		TargetBitrate: float64(s.cfg.Rates[rate]) * 1000,
	})
}

// rewind puts rung rate back at the top of the stream with a fresh
// encoder, returning the old encoder's reference to the pool.
func (s *Server) rewind(rate int) {
	r := s.encs[rate]
	vmath.Put(r.last)
	*r = serverRate{enc: s.newEncoder(rate)}
}

// Manifest returns the stream description.
func (s *Server) Manifest() Manifest { return s.manifest }

// Encodes returns how many rung-chunks the server has encoded; with the
// singleflight cache this never exceeds rates×chunks per cache residency
// no matter how many clients stream concurrently.
func (s *Server) Encodes() int64 { return s.encodes.Load() }

// WriteErrors returns how many response writes failed (client gone
// mid-transfer). The work is cached, so an aborted request costs nothing
// beyond the bytes already sent.
func (s *Server) WriteErrors() int64 { return s.writeErrors.Load() }

// ClientCancels returns how many requests were abandoned because the
// client disconnected while waiting on a payload build — the 499-style
// tally (no response was written; nobody was listening).
func (s *Server) ClientCancels() int64 { return s.cancels.Load() }

// CacheStats returns the segment cache's counters and residency.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// framesPerChunk returns the frames per segment.
func (s *Server) framesPerChunk() int {
	return int(s.cfg.ChunkSeconds * video.FPS)
}

func segKey(rate, n int) string { return fmt.Sprintf("seg:%d:%d", rate, n) }

func codesKey(n int) string { return fmt.Sprintf("codes:%d", n) }

// segment returns the wire payload of chunk n at one rate, building it on
// a miss (see build).
//
// ctx bounds only the wait: a caller whose client disconnects stops
// waiting, while the winning builder always finishes and populates the
// cache.
func (s *Server) segment(ctx context.Context, rate, n int) ([]byte, error) {
	if rate < 0 || rate >= len(s.encs) || n < 0 || n >= s.cfg.Chunks {
		return nil, fmt.Errorf("httpstream: segment rate=%d n=%d %w", rate, n, errOutOfRange)
	}
	key := segKey(rate, n)
	if b, ok := s.cache.Get(key); ok {
		return b, nil
	}
	return s.flight.DoCtx(ctx, key, func() ([]byte, error) { return s.build(key, rate, n) })
}

// codesFor returns the compressed binary point codes of chunk n, building
// them on a miss (see build). ctx bounds the wait exactly as in segment.
func (s *Server) codesFor(ctx context.Context, n int) ([]byte, error) {
	if n < 0 || n >= s.cfg.Chunks {
		return nil, fmt.Errorf("httpstream: codes n=%d %w", n, errOutOfRange)
	}
	key := codesKey(n)
	if b, ok := s.cache.Get(key); ok {
		return b, nil
	}
	return s.flight.DoCtx(ctx, key, func() ([]byte, error) { return s.build(key, -1, n) })
}

// build returns the payload under key — chunk n at rung rate, or chunk
// n's codes when rate is -1.
//
// A build walks chunks m from a start point to n, one pass per chunk. A
// rung request starts at the rung's encoder position; a rung that has
// passed n (the cache evicted the chunk) first rewinds to chunk 0 and
// replays, since P frames depend on the whole history and the
// deterministic source and encoder reproduce the original bytes. A codes
// request starts at n: codes depend on the source frame alone. Pass m
// feeds every rung whose encoder stands at m, so lagging rungs catch up
// with the walk, and at m == n it also extracts the codes unless they are
// cached. Every payload a pass builds goes into the cache, codes first.
//
// The build lock is held for one pass, not for the walk: each pass
// re-reads the cache and the rung positions, which other builds may have
// moved in between. A miss queued behind a long walk (a catch-up, or an
// eviction replay from chunk 0) therefore waits for the pass in progress,
// not for the rest of the walk. sync.Mutex hands the lock to a waiter
// that has waited over a millisecond before the walker can take it back,
// and a pass takes longer than that.
func (s *Server) build(key string, rate, n int) ([]byte, error) {
	for first := true; ; first = false {
		b, m, err := s.step(key, rate, n, first)
		if err != nil || m == n {
			return b, err
		}
		if s.testAfterPass != nil {
			s.testAfterPass(m)
		}
	}
}

// step runs one pass of build's walk under the build lock and returns
// the chunk it built, or n with the payload when the walk is done. The
// first step counts its cache lookup as the request's, the way segment
// and codesFor do.
func (s *Server) step(key string, rate, n int, first bool) ([]byte, int, error) {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	// The pass that held the lock while this request waited for it has
	// often built the payload already.
	lookup := s.cache.peek
	if first {
		lookup = s.cache.Get
	}
	if b, ok := lookup(key); ok {
		return b, n, nil
	}
	m := n
	if rate >= 0 {
		if s.encs[rate].next > n {
			s.rewind(rate)
		}
		m = s.encs[rate].next
	}
	var feed []int
	for r, sr := range s.encs {
		if sr.next == m {
			feed = append(feed, r)
		}
	}
	codes := m == n
	if codes && rate >= 0 {
		_, cached := s.cache.peek(codesKey(n))
		codes = !cached
	}
	segs, packed, err := s.pass(m, feed, codes)
	if err != nil {
		return nil, m, err
	}
	var want []byte
	if codes {
		s.cache.Put(codesKey(m), packed)
		if rate < 0 {
			want = packed
		}
	}
	for i, r := range feed {
		s.encodes.Add(1)
		cEncodes.Add(1)
		s.cache.Put(segKey(r, m), segs[i])
		s.encs[r].next++
		if r == rate {
			want = segs[i]
		}
	}
	return want, m, nil
}

// pass builds chunk m at every rung in feed and, when codes is set, the
// chunk's codes, rendering each source frame once into one pooled plane.
// A failure — an error, or a panic anywhere in the pass — rewinds the
// rungs it fed to chunk 0, since their encoders hold part of a chunk; the
// plane goes back to the pool on every path.
//
// The pass is serial across frames on purpose; within a frame, the render,
// the extract and each encode run their own loops on the par pool.
// Rendering frame i+1 ahead while frame i is encoded (on a goroutine of
// its own, or as a par.Go task) raised the build's frame rate by a further
// 10–20%, but it kept both cores busy for the whole build, and the cache
// hits served beside it got 7–14% slower at the median (perfbench
// origin-live on a 2-core x86-64 VM).
func (s *Server) pass(m int, feed []int, codes bool) (segs [][]byte, packed []byte, err error) {
	fpc := s.framesPerChunk()
	frame := vmath.Get(s.cfg.W, s.cfg.H)
	done := false
	defer func() {
		vmath.Put(frame)
		if !done {
			for _, r := range feed {
				s.rewind(r)
			}
		}
	}()
	segs = make([][]byte, len(feed))
	for i := 0; i < fpc; i++ {
		if s.testErr != nil && m*fpc+i >= s.testErrAt {
			return nil, nil, s.testErr
		}
		s.cfg.Source.RenderInto(frame, m*fpc+i)
		if codes {
			c := s.ext.Extract(frame).Compress()
			packed = binary.BigEndian.AppendUint32(packed, uint32(len(c)))
			packed = append(packed, c...)
		}
		for j, r := range feed {
			sr := s.encs[r]
			ef := sr.enc.Encode(frame)
			vmath.Put(sr.last)
			sr.last = ef.Recon
			wire, err := ef.MarshalBinary()
			if err != nil {
				return nil, nil, fmt.Errorf("httpstream: chunk %d rate %d: %w", m, r, err)
			}
			segs[j] = binary.BigEndian.AppendUint32(segs[j], uint32(len(wire)))
			segs[j] = append(segs[j], wire...)
		}
	}
	done = true
	return segs, packed, nil
}

// writePayload sends a binary payload, counting (rather than discarding)
// write failures.
func (s *Server) writePayload(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	if _, err := w.Write(b); err != nil {
		s.writeErrors.Add(1)
		cWriteErrs.Add(1)
	}
}

// httpStatus maps a payload-builder error to its response code: 404 only
// for rates/chunks outside the manifest, 500 for internal failures.
func httpStatus(err error) int {
	if errors.Is(err, errOutOfRange) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// m3u8ContentType is the HLS playlist media type.
const m3u8ContentType = "application/vnd.apple.mpegurl"

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/manifest":
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(s.manifest); err != nil {
			s.writeErrors.Add(1)
			cWriteErrs.Add(1)
		}
	case r.URL.Path == "/master.m3u8":
		w.Header().Set("Content-Type", m3u8ContentType)
		if _, err := w.Write(s.masterPlaylist()); err != nil {
			s.writeErrors.Add(1)
			cWriteErrs.Add(1)
		}
	case strings.HasPrefix(r.URL.Path, "/media/") && strings.HasSuffix(r.URL.Path, ".m3u8"):
		rate, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/media/"), ".m3u8"))
		if err != nil {
			http.Error(w, "media playlist path is /media/<rate>.m3u8", http.StatusBadRequest)
			return
		}
		b, err := s.mediaPlaylist(rate)
		if err != nil {
			http.Error(w, err.Error(), httpStatus(err))
			return
		}
		w.Header().Set("Content-Type", m3u8ContentType)
		if _, err := w.Write(b); err != nil {
			s.writeErrors.Add(1)
			cWriteErrs.Add(1)
		}
	case r.URL.Path == "/segment":
		rate, err1 := strconv.Atoi(r.URL.Query().Get("rate"))
		n, err2 := strconv.Atoi(r.URL.Query().Get("n"))
		if err1 != nil || err2 != nil {
			http.Error(w, "segment needs integer rate and n", http.StatusBadRequest)
			return
		}
		b, err := s.segment(r.Context(), rate, n)
		if s.abandoned(r, err) {
			return
		}
		if err != nil {
			http.Error(w, err.Error(), httpStatus(err))
			return
		}
		s.writePayload(w, b)
	case r.URL.Path == "/codes":
		n, err := strconv.Atoi(r.URL.Query().Get("n"))
		if err != nil {
			http.Error(w, "codes needs integer n", http.StatusBadRequest)
			return
		}
		b, err := s.codesFor(r.Context(), n)
		if s.abandoned(r, err) {
			return
		}
		if err != nil {
			http.Error(w, err.Error(), httpStatus(err))
			return
		}
		s.writePayload(w, b)
	default:
		http.NotFound(w, r)
	}
}

// abandoned classifies a payload-build error caused by the request's own
// context ending — the client disconnected while waiting. Nobody is
// listening for a response, so the handler just returns; the 499-style
// tally is kept in ClientCancels.
func (s *Server) abandoned(r *http.Request, err error) bool {
	if err == nil || r.Context().Err() == nil || !errors.Is(err, r.Context().Err()) {
		return false
	}
	s.cancels.Add(1)
	cCancels.Add(1)
	return true
}

// splitLengthPrefixed splits a payload of u32-length-prefixed records.
func splitLengthPrefixed(b []byte) ([][]byte, error) {
	var out [][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("httpstream: truncated length prefix")
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if n < 0 || len(b) < n {
			return nil, fmt.Errorf("httpstream: truncated record (%d bytes)", n)
		}
		out = append(out, b[:n])
		b = b[n:]
	}
	return out, nil
}

// ChunkResult is the client's per-chunk report.
type ChunkResult struct {
	Chunk int
	Rate  int
	Bytes int
	// FetchSeconds is the wall-clock time of the segment download
	// (excluding decode/recovery), the ABR's throughput signal.
	FetchSeconds float64
	// Degraded marks a chunk whose segment fetch failed through the whole
	// retry policy (or arrived corrupt) and was played codes-only through
	// the recovery path instead of aborting the stream.
	Degraded bool
	// DegradedReason is the failure that forced the degradation.
	DegradedReason string
	// Classes records how the engine produced each frame (decoded,
	// recovered, reused, ...), index-aligned with Frames.
	Classes []core.FrameClass
	Frames  []*vmath.Plane
}

// Client streams from a Server URL, running the NERVE client engine.
// With WithFailover it holds a ring of equivalent origin URLs (a cluster's
// nodes) and rotates to the next on transient failure, so one node dying
// degrades service instead of ending it.
type Client struct {
	http     *http.Client
	manifest Manifest
	engine   *core.Client

	// bases is the failover ring of origin base URLs; baseIdx is the
	// one currently in use. Rotation is sticky: a base is used until it
	// fails.
	baseMu  sync.Mutex
	bases   []string
	baseIdx int

	policy  RetryPolicy
	backoff *backoffer
	// sleep is the inter-retry wait (overridable in tests).
	sleep func(time.Duration)

	retries   atomic.Int64
	degraded  atomic.Int64
	failovers atomic.Int64
}

// ClientOption tweaks a Client at construction.
type ClientOption func(*Client)

// WithRetryPolicy sets the fetch fault-handling policy.
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *Client) { c.policy = p.withDefaults() }
}

// WithFailover appends fallback origin URLs (a cluster's other nodes).
// A transient failure rotates the client to the next base before the
// retry, round-robin over the full ring.
func WithFailover(urls ...string) ClientOption {
	return func(c *Client) { c.bases = append(c.bases, urls...) }
}

// NewClient fetches the manifest and prepares the engine. enableRecovery
// wires the recovery model for lost segments.
func NewClient(baseURL string, httpClient *http.Client, enableRecovery bool, opts ...ClientOption) (*Client, error) {
	c, err := NewFetchClient(baseURL, httpClient, opts...)
	if err != nil {
		return nil, err
	}
	c.engine, err = core.NewClient(core.ClientConfig{
		W: c.manifest.Width, H: c.manifest.Height,
		EnableRecovery: enableRecovery,
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// NewFetchClient builds a client without the playback engine: it fetches
// the manifest and can drive the whole network path (FetchChunk — codes
// plus segment, retry/backoff, degradation accounting) but cannot decode.
// Load harnesses use it to keep thousands of concurrent clients
// goroutine-cheap: no per-client planes, pools or models, just sockets.
// PlayChunk on a fetch-only client returns an error.
func NewFetchClient(baseURL string, httpClient *http.Client, opts ...ClientOption) (*Client, error) {
	c := NewRawClient(baseURL, httpClient, opts...)
	raw, err := c.fetch("/manifest")
	if err != nil {
		return nil, fmt.Errorf("httpstream: manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &c.manifest); err != nil {
		return nil, fmt.Errorf("httpstream: manifest: %w", err)
	}
	return c, nil
}

// NewRawClient builds the thinnest client: the retry/backoff/failover
// fetch machinery with no manifest bootstrap and no engine. The cluster
// peer-fetch path uses it — a peer may be down at construction time, and
// peers exchange raw payload paths, not manifests.
func NewRawClient(baseURL string, httpClient *http.Client, opts ...ClientOption) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{
		bases:  []string{baseURL},
		http:   httpClient,
		policy: RetryPolicy{}.withDefaults(),
		sleep:  time.Sleep,
	}
	for _, o := range opts {
		o(c)
	}
	c.backoff = newBackoffer(c.policy)
	return c
}

// Fetch GETs path (e.g. "/segment?rate=0&n=2") from the current base
// under the full retry/failover policy, returning the raw payload.
func (c *Client) Fetch(path string) ([]byte, error) { return c.fetch(path) }

// currentBase returns the base URL in use and its ring index.
func (c *Client) currentBase() (string, int) {
	c.baseMu.Lock()
	defer c.baseMu.Unlock()
	return c.bases[c.baseIdx], c.baseIdx
}

// failover rotates away from the base at ring index from, unless another
// request already did.
func (c *Client) failover(from int) {
	c.baseMu.Lock()
	defer c.baseMu.Unlock()
	if len(c.bases) > 1 && c.baseIdx == from {
		c.baseIdx = (c.baseIdx + 1) % len(c.bases)
		c.failovers.Add(1)
		cFailovers.Add(1)
	}
}

// Failovers returns how many times the client rotated to a fallback base.
func (c *Client) Failovers() int64 { return c.failovers.Load() }

// Manifest returns the fetched stream description.
func (c *Client) Manifest() Manifest { return c.manifest }

// Retries returns how many retry attempts the client has made.
func (c *Client) Retries() int64 { return c.retries.Load() }

// DegradedChunks returns how many chunks fell back to codes-only recovery.
func (c *Client) DegradedChunks() int64 { return c.degraded.Load() }

// maxErrorDrainBytes bounds how much of a non-200 response body the
// client reads before closing: enough to let keep-alive reclaim the
// connection for any sane error payload, small enough that a huge one is
// abandoned (Close discards the connection) instead of stalling a retry
// loop on an unbounded drain.
const maxErrorDrainBytes = 16 << 10

// fetchOnce performs a single attempt against the given base. status is
// 0 for transport errors.
func (c *Client) fetchOnce(base, path string) (body []byte, status int, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.policy.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain the error body (bounded) so the connection can be
		// reused. A drain failure is a transport fault in its own right —
		// report it rather than silently losing the connection state.
		if _, derr := io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorDrainBytes)); derr != nil {
			return nil, resp.StatusCode, fmt.Errorf("%s (error body drain: %w)", resp.Status, derr)
		}
		return nil, resp.StatusCode, fmt.Errorf("%s", resp.Status)
	}
	// The origin sends Content-Length, so the body is read into one
	// buffer of that size where io.ReadAll would grow one from 512 bytes.
	// A length past maxPresizeBytes is not trusted up front. (make, not
	// Buffer.Grow: Grow allocates the buffer twice under -race.)
	var pre []byte
	if n := resp.ContentLength; n > 0 && n <= maxPresizeBytes {
		pre = make([]byte, 0, n+bytes.MinRead)
	}
	buf := bytes.NewBuffer(pre)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		// Truncated or reset mid-body: transient.
		return nil, 0, err
	}
	return buf.Bytes(), http.StatusOK, nil
}

// maxPresizeBytes bounds the Content-Length fetchOnce allocates for
// before any byte arrives: about the largest segment a ladder serves (a
// 4 s chunk of an 8 Mbps 1080p top rung is 4 MB), so a bogus header costs
// at most that per attempt. A longer body still reads, growing its buffer
// as bytes arrive.
const maxPresizeBytes = 4 << 20

// fetch GETs base+path under the retry policy: transient failures
// (transport errors, 5xx, truncated bodies) retry with exponential backoff
// and seeded jitter up to MaxAttempts; permanent failures (4xx) return
// immediately. Failures are reported as *FetchError.
func (c *Client) fetch(path string) ([]byte, error) {
	// The fetch span covers all attempts including backoff waits: it is
	// the latency playback actually experienced for this resource.
	defer telemetry.Start(telemetry.StageFetch).Stop()
	var lastErr error
	var lastStatus int
	for attempt := 1; ; attempt++ {
		base, idx := c.currentBase()
		b, status, err := c.fetchOnce(base, path)
		if err == nil {
			return b, nil
		}
		lastErr, lastStatus = err, status
		if status >= 400 && status < 500 {
			return nil, &FetchError{Path: path, Attempts: attempt, Status: status, Transient: false, Err: err}
		}
		// Transient: rotate to the next base (no-op without failover
		// targets) before retrying — a dead node's work moves to the
		// survivors instead of burning the whole retry budget on it.
		c.failover(idx)
		if attempt >= c.policy.MaxAttempts {
			return nil, &FetchError{Path: path, Attempts: attempt, Status: lastStatus, Transient: true, Err: lastErr}
		}
		c.retries.Add(1)
		cRetries.Add(1)
		telemetry.Emit("retry", telemetry.StageFetch, path, float64(attempt))
		c.sleep(c.backoff.delay(attempt))
	}
}

// PlayChunk downloads chunk n at the given rate (lost=true simulates a
// media-path outage: only the side-channel codes arrive) and plays it
// through the engine, returning the displayed frames.
//
// The codes are the reliable side channel: if they cannot be fetched the
// chunk fails hard. The segment is the lossy media path: if its fetch
// fails through the whole retry policy, or the payload arrives corrupt,
// the chunk degrades to codes-only recovery (Degraded is set) instead of
// failing.
func (c *Client) PlayChunk(n, rate int, lost bool) (*ChunkResult, error) {
	if c.engine == nil {
		return nil, errors.New("httpstream: PlayChunk on a fetch-only client (use NewClient for playback)")
	}
	codesRaw, err := c.fetch(fmt.Sprintf("/codes?n=%d", n))
	if err != nil {
		return nil, err
	}
	codeRecs, err := splitLengthPrefixed(codesRaw)
	if err != nil {
		return nil, err
	}
	res := &ChunkResult{Chunk: n, Rate: rate}
	var frameRecs [][]byte
	if !lost {
		frameRecs, err = c.fetchSegment(n, rate, len(codeRecs), res)
		if err != nil {
			return nil, err
		}
	}
	for i := range codeRecs {
		code, err := edgecode.Decompress(codeRecs[i])
		if err != nil {
			return nil, err
		}
		in := core.Input{Code: code}
		if frameRecs != nil {
			var ef codec.EncodedFrame
			if err := ef.UnmarshalBinary(frameRecs[i]); err != nil {
				return nil, err
			}
			in.Encoded = &ef
		}
		fr, err := c.engine.Next(in)
		if err != nil {
			return nil, err
		}
		res.Frames = append(res.Frames, fr.Frame)
		res.Classes = append(res.Classes, fr.Class)
	}
	return res, nil
}

// FetchChunk downloads chunk n at the given rate exactly like PlayChunk —
// codes first (the reliable side channel, hard failure), then the segment
// under the full retry/degradation policy, then wire-format validation —
// but stops short of decode, recovery and enhancement. The returned
// result carries the fetch stats (Bytes, FetchSeconds, Degraded) with no
// frames. This is the network path a load harness drives per simulated
// client; it works on both playback and fetch-only clients.
func (c *Client) FetchChunk(n, rate int) (*ChunkResult, error) {
	codesRaw, err := c.fetch(fmt.Sprintf("/codes?n=%d", n))
	if err != nil {
		return nil, err
	}
	codeRecs, err := splitLengthPrefixed(codesRaw)
	if err != nil {
		return nil, err
	}
	res := &ChunkResult{Chunk: n, Rate: rate}
	if _, err := c.fetchSegment(n, rate, len(codeRecs), res); err != nil {
		return nil, err
	}
	return res, nil
}

// fetchSegment downloads and validates chunk n's media payload, filling in
// the result's fetch stats. A transient fetch failure or a corrupt payload
// returns (nil, nil) with the result marked Degraded — the codes-only
// path; permanent failures (the caller asked for a rate/chunk that does
// not exist) are returned as errors.
func (c *Client) fetchSegment(n, rate, wantFrames int, res *ChunkResult) ([][]byte, error) {
	degrade := func(reason string) ([][]byte, error) {
		c.degraded.Add(1)
		cDegraded.Add(1)
		telemetry.Emit("degraded", telemetry.StageFetch, reason, float64(n))
		res.Degraded = true
		res.DegradedReason = reason
		res.Bytes = 0
		res.FetchSeconds = 0
		return nil, nil
	}
	start := timeNow()
	segRaw, err := c.fetch(fmt.Sprintf("/segment?rate=%d&n=%d", rate, n))
	if err != nil {
		var fe *FetchError
		if errors.As(err, &fe) && !fe.Transient {
			return nil, err
		}
		return degrade(err.Error())
	}
	res.FetchSeconds = timeNow() - start
	res.Bytes = len(segRaw)
	frameRecs, err := splitLengthPrefixed(segRaw)
	if err != nil {
		return degrade(err.Error())
	}
	if len(frameRecs) != wantFrames {
		return degrade(fmt.Sprintf("httpstream: %d frames vs %d codes", len(frameRecs), wantFrames))
	}
	return frameRecs, nil
}

// timeNow is a wall-clock seconds hook (overridable in tests).
var timeNow = func() float64 { return float64(timeNowNano()) / 1e9 }
