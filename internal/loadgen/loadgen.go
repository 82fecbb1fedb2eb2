// Package loadgen is the load harness behind cmd/nerveload: it spins up
// thousands of simulated streaming clients — goroutine-cheap, each
// wrapping the httpstream fetch path behind a faultnet-shaped network
// drawn from the profile matrix — against one nerved origin, and reports
// the numbers every scaling claim is judged by: p50/p95/p99 segment-fetch
// latency, rebuffer ratio, degraded/failed-chunk rates and aggregate QoE.
//
// Determinism: a run is parameterised by one seed. Each client derives
// its own seed (faultnet.SeedFor), which feeds both its fault-injecting
// transport and its retry-jitter RNG, so per-client fault schedules and
// chunk outcomes are bit-reproducible across runs regardless of goroutine
// interleaving (wall-clock latency numbers, of course, are not).
//
// Steady state: in self-serve mode the harness can additionally prove the
// server side of the zero-allocation story — after a warm-up pass that
// encodes and caches every (rate, chunk) segment, the whole measured load
// phase must perform zero plane backing-array allocations
// (vmath.PlaneAllocs), extending core.TestSteadyStateZeroPlaneAllocs from
// one client to N concurrent ones.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"nerve/internal/cluster"
	"nerve/internal/faultnet"
	"nerve/internal/httpstream"
	"nerve/internal/qoe"
	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// Share is one weighted entry of the profile mix. Clients are assigned
// profiles by deterministic weighted round-robin over the mix.
type Share struct {
	Profile faultnet.Profile
	Weight  int
}

// ParseMix parses a "name:weight,name:weight" mix string (weight defaults
// to 1), e.g. "clean:2,lossy:1,hilat:1,bursty:1".
func ParseMix(s string) ([]Share, error) {
	var out []Share
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weight := part, 1
		if i := strings.IndexByte(part, ':'); i >= 0 {
			name = part[:i]
			w, err := strconv.Atoi(part[i+1:])
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("loadgen: bad weight in %q", part)
			}
			weight = w
		}
		p, err := faultnet.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, Share{Profile: p, Weight: weight})
	}
	if len(out) == 0 {
		return nil, errors.New("loadgen: empty profile mix")
	}
	return out, nil
}

// DefaultMix is every profile in the matrix, equally weighted.
func DefaultMix() []Share {
	ps := faultnet.Profiles()
	out := make([]Share, len(ps))
	for i, p := range ps {
		out[i] = Share{Profile: p, Weight: 1}
	}
	return out
}

// Config parameterises a Run.
type Config struct {
	// Targets lists the external nerved origins (one, or a cluster):
	// client i's primary is Targets[i mod len], with the rest as its
	// failover ring. Leave empty and set Server to run one in-process on
	// a loopback listener instead.
	Targets []string
	// Server, when non-nil, is the in-process origin configuration
	// (self-serve mode). Required for the steady-state allocation proof:
	// plane allocations can only be counted inside one process.
	Server *httpstream.ServerConfig
	// ClusterNodes, with Server set, runs that many cluster nodes
	// in-process instead of one flat origin — the node-kill soak's
	// topology, minus the kill. 0 or 1 means a single origin.
	ClusterNodes int

	// Clients is the number of concurrent simulated clients.
	Clients int
	// ChunksPerClient fixes each client's workload (looping the manifest
	// when it is longer). Zero means "until Duration elapses".
	ChunksPerClient int
	// Duration time-boxes the run; clients loop the manifest and pace
	// themselves against the player buffer, like a live audience would.
	// Either ChunksPerClient or Duration must be set.
	Duration time.Duration

	// Mix is the weighted profile matrix (DefaultMix when empty).
	Mix []Share
	// Seed is the run seed every per-client seed derives from (default 1).
	Seed int64
	// FixedRate pins every request to one ladder rung; -1 (default via
	// NewConfig-style zero value handling: see normalize) means adaptive
	// throughput-based selection per client.
	FixedRate int
	// Decode runs the full playback engine (decode → recover) per client
	// instead of the goroutine-cheap fetch-only path. Expensive; meant
	// for small client counts.
	Decode bool
	// Recovery enables the recovery model in Decode mode.
	Recovery bool
	// RetryPolicy is the per-client fetch policy template; each client
	// gets its own derived Seed.
	RetryPolicy httpstream.RetryPolicy
	// PerClient includes per-client stats in the report (big; used by
	// determinism tests and debugging).
	PerClient bool
}

func (c Config) normalize() (Config, error) {
	if len(c.Targets) == 0 && c.Server == nil {
		return c, errors.New("loadgen: need Targets or Server")
	}
	if c.ClusterNodes > 1 && c.Server == nil {
		return c, errors.New("loadgen: ClusterNodes needs Server (self-serve cluster mode)")
	}
	if c.Clients <= 0 {
		return c, errors.New("loadgen: Clients must be positive")
	}
	if c.ChunksPerClient <= 0 && c.Duration <= 0 {
		return c, errors.New("loadgen: need ChunksPerClient or Duration")
	}
	if len(c.Mix) == 0 {
		c.Mix = DefaultMix()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Recovery && !c.Decode {
		return c, errors.New("loadgen: Recovery requires Decode")
	}
	return c, nil
}

// degradedUtilityFactor scales the lowest rung's rate into the QoE
// utility of a codes-only (degraded) chunk: recovery keeps the stream
// playable but below the cheapest encoded quality.
const degradedUtilityFactor = 0.5

// failedUtilityMbps is the near-zero utility of a chunk that could not be
// played at all (even the reliable side channel failed). Not exactly zero
// because qoe.Chunk treats a zero utility as "use the bitrate".
const failedUtilityMbps = 0.001

// profileState aggregates one profile's share of the run.
type profileState struct {
	name    string
	clients int
	fetch   telemetry.Histogram

	mu       sync.Mutex
	chunks   int64
	degraded int64
	failed   int64
	qoeSum   float64
	qoeN     int64
	stallSec float64
	playSec  float64
}

// harness is one Run's shared state.
type harness struct {
	cfg  Config
	base http.RoundTripper // shared base transport under every faultnet wrapper

	total profileState // run-wide aggregate (name "all")
	profs []*profileState

	errsMu    sync.Mutex
	errs      []ClientError
	errCount  int64
	perClient []ClientStats
}

// Run executes the load scenario and aggregates the report. Client-level
// failures (a client that could not even fetch the manifest, or hit a
// permanent error mid-run) are reported in Report.Errors, not returned:
// under injected faults they are outcomes, not harness bugs. Run itself
// errs only on configuration or server-startup problems.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}

	var serverEncodes func() int64
	var cacheStats func() httpstream.CacheStats
	var clusterStats func() cluster.Stats
	targets := cfg.Targets
	if cfg.Server != nil {
		t, origins, shutdown, err := startOrigins(cfg)
		if err != nil {
			return nil, err
		}
		defer shutdown()
		targets = t
		serverEncodes = origins.encodes
		cacheStats = origins.cacheStats
		clusterStats = origins.clusterStats
		// Warm every node: each one ends up holding every payload (its
		// own keys from its origin, the rest through peer fetches into its
		// LRU), so the measured phase is pure cache — the steady state the
		// allocation gate asserts on.
		for _, u := range targets {
			if err := warmServer(u, origins.manifest); err != nil {
				return nil, fmt.Errorf("loadgen: warm-up %s: %w", u, err)
			}
		}
	}

	h := &harness{
		cfg: cfg,
		base: &http.Transport{
			MaxIdleConns:        cfg.Clients * 2,
			MaxIdleConnsPerHost: cfg.Clients * 2,
		},
		total: profileState{name: "all"},
	}
	for _, s := range cfg.Mix {
		h.profs = append(h.profs, &profileState{name: s.Profile.Name})
	}
	slots := mixSlots(cfg.Mix)

	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	// Steady-state allocation proof (self-serve only): the warmed origin
	// must not allocate a single plane backing array during the measured
	// load phase. In Decode mode the clients' own pipelines share the
	// process-wide counter, so the measurement is only meaningful
	// fetch-only.
	measureAllocs := cfg.Server != nil && !cfg.Decode
	var allocsBefore int64
	if measureAllocs {
		allocsBefore = vmath.PlaneAllocs()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < cfg.Clients; id++ {
		slot := slots[id%len(slots)]
		ps := h.profs[slot]
		ps.clients++
		wg.Add(1)
		go func(id int, ps *profileState, prof faultnet.Profile) {
			defer wg.Done()
			h.runClient(ctx, id, targets, ps, prof)
		}(id, ps, cfg.Mix[slot].Profile)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := h.report(elapsed)
	if measureAllocs {
		rep.ServerPlaneAllocs = vmath.PlaneAllocs() - allocsBefore
	} else {
		rep.ServerPlaneAllocs = -1
	}
	if serverEncodes != nil {
		rep.ServerEncodes = serverEncodes()
	} else {
		rep.ServerEncodes = -1
	}
	if cacheStats != nil {
		cs := cacheStats()
		rep.Cache = &cs
		rep.CacheHitRatio = cs.HitRatio()
	}
	if clusterStats != nil {
		st := clusterStats()
		rep.Cluster = &st
	}
	rep.Target = strings.Join(targets, ",")
	rep.Targets = targets
	return rep, nil
}

// origins abstracts over the two self-serve topologies (one flat origin
// vs an in-process cluster) for the report's server-side numbers.
type origins struct {
	manifest     httpstream.Manifest
	encodes      func() int64
	cacheStats   func() httpstream.CacheStats
	clusterStats func() cluster.Stats
}

// startOrigins boots the self-serve origin(s) on loopback listeners and
// returns their base URLs plus a shutdown closure.
func startOrigins(cfg Config) ([]string, *origins, func(), error) {
	n := cfg.ClusterNodes
	if n < 1 {
		n = 1
	}
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	var servers []*http.Server
	shutdown := func() {
		for _, s := range servers {
			s.Close()
		}
	}

	if n == 1 {
		srv, err := httpstream.NewServer(*cfg.Server)
		if err != nil {
			return nil, nil, nil, err
		}
		hs := &http.Server{Handler: srv}
		servers = append(servers, hs)
		go hs.Serve(lns[0])
		return urls, &origins{
			manifest:   srv.Manifest(),
			encodes:    srv.Encodes,
			cacheStats: srv.CacheStats,
		}, shutdown, nil
	}

	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		node, err := cluster.NewNode(cluster.Config{
			Self:   urls[i],
			Peers:  urls,
			Origin: *cfg.Server,
		})
		if err != nil {
			shutdown()
			return nil, nil, nil, err
		}
		nodes[i] = node
		hs := &http.Server{Handler: node}
		servers = append(servers, hs)
		go hs.Serve(lns[i])
	}
	return urls, &origins{
		manifest: nodes[0].Origin().Manifest(),
		encodes: func() int64 {
			var total int64
			for _, nd := range nodes {
				total += nd.Origin().Encodes()
			}
			return total
		},
		cacheStats: func() httpstream.CacheStats {
			var agg httpstream.CacheStats
			for _, nd := range nodes {
				agg.Add(nd.Origin().CacheStats())
				agg.Add(nd.PeerCacheStats())
			}
			return agg
		},
		clusterStats: func() cluster.Stats {
			var agg cluster.Stats
			for _, nd := range nodes {
				agg.Add(nd.Stats())
			}
			return agg
		},
	}, shutdown, nil
}

// mixSlots expands the weighted mix into an assignment ring of mix
// indices, so client i's profile is a pure function of i.
func mixSlots(mix []Share) []int {
	var slots []int
	for i, s := range mix {
		for w := 0; w < s.Weight; w++ {
			slots = append(slots, i)
		}
	}
	return slots
}

// warmServer encodes and caches every (rate, chunk) segment plus every
// chunk's codes, so the measured phase serves purely from cache — the
// steady state the allocation gate asserts on.
func warmServer(baseURL string, m httpstream.Manifest) error {
	get := func(path string) error {
		resp, err := http.Get(baseURL + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	for n := 0; n < m.Chunks; n++ {
		if err := get(fmt.Sprintf("/codes?n=%d", n)); err != nil {
			return err
		}
		for rate := range m.RatesKbps {
			if err := get(fmt.Sprintf("/segment?rate=%d&n=%d", rate, n)); err != nil {
				return err
			}
		}
	}
	return nil
}

// runClient is one simulated viewer: its own seeded network, its own
// seeded retry jitter, its own player-buffer model and QoE session. With
// several targets, client id's primary is targets[id mod len] and the
// rest form its failover ring, rotated so the fleet spreads evenly.
func (h *harness) runClient(ctx context.Context, id int, targets []string, ps *profileState, prof faultnet.Profile) {
	cfg := h.cfg
	baseURL := targets[id%len(targets)]
	var fallbacks []string
	for j := 1; j < len(targets); j++ {
		fallbacks = append(fallbacks, targets[(id+j)%len(targets)])
	}
	seed := faultnet.SeedFor(cfg.Seed, id)
	// The manifest bootstrap is exempt from injected faults (a matching
	// rule that injects nothing shadows the probabilistic draws): the
	// harness measures steady-state streaming, and a client that cannot
	// even join tells us nothing about the origin under load.
	tr := faultnet.New(h.base, prof.Config(seed), &faultnet.Rule{Match: faultnet.MatchURL("/manifest")})
	hc := &http.Client{Transport: tr}
	pol := cfg.RetryPolicy
	pol.Seed = seed

	opts := []httpstream.ClientOption{httpstream.WithRetryPolicy(pol)}
	if len(fallbacks) > 0 {
		opts = append(opts, httpstream.WithFailover(fallbacks...))
	}
	var cli *httpstream.Client
	var err error
	if cfg.Decode {
		cli, err = httpstream.NewClient(baseURL, hc, cfg.Recovery, opts...)
	} else {
		cli, err = httpstream.NewFetchClient(baseURL, hc, opts...)
	}
	if err != nil {
		if ctx.Err() == nil {
			h.clientError(id, prof.Name, fmt.Errorf("manifest: %w", err))
		}
		return
	}
	m := cli.Manifest()
	chunkSec := m.ChunkSeconds
	// The simulated player buffer holds up to four chunks. In Duration
	// mode clients sleep off buffer beyond the cap — real player pacing —
	// so request rate matches playback rate.
	bufCap := 4 * chunkSec

	ses := qoe.NewSession(qoe.DefaultParams())
	fpc := int(m.ChunkSeconds * float64(m.FPS))
	lowestMbps := float64(m.RatesKbps[0]) / 1000

	var st ClientStats
	st.ID, st.Profile = id, prof.Name
	buffer := 0.0
	rate := 0
	if cfg.FixedRate >= 0 && cfg.FixedRate < len(m.RatesKbps) {
		rate = cfg.FixedRate
	}

	for i := 0; cfg.ChunksPerClient == 0 || i < cfg.ChunksPerClient; i++ {
		if ctx.Err() != nil {
			break
		}
		n := i % m.Chunks
		begin := time.Now()
		var res *httpstream.ChunkResult
		if cfg.Decode {
			res, err = cli.PlayChunk(n, rate, false)
		} else {
			res, err = cli.FetchChunk(n, rate)
		}
		elapsed := time.Since(begin).Seconds()
		if ctx.Err() != nil {
			// The deadline fired mid-chunk; whatever happened was cut
			// short by the harness, not the network — drop it.
			break
		}
		rateMbps := float64(m.RatesKbps[rate]) / 1000
		if err != nil {
			// Even the reliable codes path failed through the whole retry
			// policy (or the request was permanently rejected). A real
			// player skips the chunk and keeps going; a permanent error
			// means misconfiguration and ends the client.
			var fe *httpstream.FetchError
			if errors.As(err, &fe) && !fe.Transient {
				h.clientError(id, prof.Name, err)
				st.Errors++
				break
			}
			st.Failed++
			stall := elapsed - buffer
			if stall < 0 {
				stall = 0
			}
			buffer -= elapsed - stall
			ses.Add(qoe.Chunk{Index: i, BitrateMbps: rateMbps, UtilityMbps: failedUtilityMbps,
				RebufferSec: stall, FramesTotal: fpc})
			h.observeChunk(ps, 0, false, true, stall, chunkSec)
			continue
		}
		st.Chunks++
		st.Bytes += int64(res.Bytes)

		stall := elapsed - buffer
		if stall < 0 {
			stall = 0
		}
		buffer += chunkSec - (elapsed - stall)
		if buffer > bufCap {
			if cfg.Duration > 0 {
				// Player pacing: sleep off the surplus so the request
				// rate tracks playback rate, as a real audience's would.
				sleepCtx(ctx, time.Duration((buffer-bufCap)*float64(time.Second)))
			}
			buffer = bufCap
		}

		utility := rateMbps
		recovered := 0
		if res.Degraded {
			st.Degraded++
			utility = degradedUtilityFactor * lowestMbps
			recovered = fpc
		}
		ses.Add(qoe.Chunk{Index: i, BitrateMbps: rateMbps, UtilityMbps: utility,
			RebufferSec: stall, FramesTotal: fpc, FramesRecovered: recovered})

		var fetch time.Duration
		if !res.Degraded {
			fetch = time.Duration(res.FetchSeconds * float64(time.Second))
			// Adaptive rate: highest rung affordable at 80% of measured
			// throughput, the same rule the single-client path uses.
			if cfg.FixedRate < 0 && res.Bytes > 0 {
				dt := res.FetchSeconds
				if dt < 1e-3 {
					dt = 1e-3
				}
				bps := float64(res.Bytes) * 8 / dt
				rate = 0
				for ri, kbps := range m.RatesKbps {
					if float64(kbps)*1000 <= 0.8*bps {
						rate = ri
					}
				}
			}
		}
		h.observeChunk(ps, fetch, res.Degraded, false, stall, chunkSec)

		if cfg.Decode {
			for _, f := range res.Frames {
				vmath.Put(f)
			}
		}
	}

	st.QoE = ses.QoE()
	st.RebufferSec = ses.TotalRebuffer()
	h.finishClient(ps, st)
}

// observeChunk folds one chunk outcome into a profile's aggregate and the
// run-wide one.
func (h *harness) observeChunk(ps *profileState, fetch time.Duration, degraded, failed bool, stallSec, playSec float64) {
	for _, s := range []*profileState{ps, &h.total} {
		s.mu.Lock()
		switch {
		case failed:
			s.failed++
		case degraded:
			s.chunks++
			s.degraded++
		default:
			s.chunks++
		}
		s.stallSec += stallSec
		if !failed {
			s.playSec += playSec
		}
		s.mu.Unlock()
		if !failed && !degraded {
			s.fetch.Observe(fetch)
		}
	}
}

func (h *harness) finishClient(ps *profileState, st ClientStats) {
	for _, s := range []*profileState{ps, &h.total} {
		s.mu.Lock()
		s.qoeSum += st.QoE
		s.qoeN++
		s.mu.Unlock()
	}
	if h.cfg.PerClient {
		h.errsMu.Lock()
		h.perClient = append(h.perClient, st)
		h.errsMu.Unlock()
	}
}

func (h *harness) clientError(id int, profile string, err error) {
	h.errsMu.Lock()
	defer h.errsMu.Unlock()
	if len(h.errs) < 32 { // keep the report bounded; the count is exact
		h.errs = append(h.errs, ClientError{Client: id, Profile: profile, Error: err.Error()})
	}
	h.errCount++
}

// sleepCtx sleeps d or until the context ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
