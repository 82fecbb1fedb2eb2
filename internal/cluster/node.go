package cluster

import (
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"nerve/internal/httpstream"
	"nerve/internal/telemetry"
)

// Cluster telemetry (see OBSERVABILITY.md). local_serves counts payload
// requests this node owned (or received as a peer fetch); peer_fetches
// counts requests proxied to an owner; peer_errors counts proxies that
// failed through the retry policy; local_fallbacks counts payloads this
// node built itself after the owner died; rehashes counts nodes newly
// marked dead (each one moves its keys onto the survivors).
var (
	cLocal     = telemetry.NewCounter("cluster.local_serves")
	cPeer      = telemetry.NewCounter("cluster.peer_fetches")
	cPeerErrs  = telemetry.NewCounter("cluster.peer_errors")
	cFallbacks = telemetry.NewCounter("cluster.local_fallbacks")
	cRehashes  = telemetry.NewCounter("cluster.rehashes")
)

// peerHeader marks a request as a peer fetch: the receiving node must
// serve it from its local origin, never re-proxy. This both terminates
// any forwarding chain at one hop and keeps transient membership-view
// disagreements (A thinks B owns a key, B thinks A does) from looping.
const peerHeader = "X-Nerve-Peer"

// Config parameterises a cluster node.
type Config struct {
	// Self is this node's advertised base URL; it must appear in Peers.
	Self string
	// Peers is the full cluster membership, including Self. Every node
	// must be configured with the same list (order does not matter for
	// ownership — rendezvous hashing has no token positions).
	Peers []string
	// Origin configures the local origin. Every node uses the same
	// content config, so any node can build any payload when an owner
	// dies.
	Origin httpstream.ServerConfig
	// PeerRetry is the retry policy of peer fetches (default: 2 attempts
	// of 3 s — fail fast so a dead owner costs little before the
	// fallback kicks in).
	PeerRetry httpstream.RetryPolicy
	// DeadCooldown is how long a failed peer stays suspected (default
	// DefaultDeadCooldown).
	DeadCooldown time.Duration
}

// Stats is a point-in-time view of one node's cluster counters — the
// cluster block of BENCH_load.json (aggregated over nodes).
type Stats struct {
	LocalServes    int64 `json:"local_serves"`
	PeerFetches    int64 `json:"peer_fetches"`
	PeerErrors     int64 `json:"peer_errors"`
	LocalFallbacks int64 `json:"local_fallbacks"`
	Rehashes       int64 `json:"rehashes"`
	LiveNodes      int   `json:"live_nodes"`
}

// Add accumulates another node's stats. LiveNodes keeps the minimum —
// the most pessimistic membership view across the cluster.
func (s *Stats) Add(o Stats) {
	s.LocalServes += o.LocalServes
	s.PeerFetches += o.PeerFetches
	s.PeerErrors += o.PeerErrors
	s.LocalFallbacks += o.LocalFallbacks
	s.Rehashes += o.Rehashes
	if s.LiveNodes == 0 || o.LiveNodes < s.LiveNodes {
		s.LiveNodes = o.LiveNodes
	}
}

// Node is one member of the scaled origin: an http.Handler serving the
// full nerved surface with consistent-hash ownership behind it.
type Node struct {
	cfg    Config
	ring   *Ring
	origin *httpstream.Server

	flight httpstream.Flight
	cache  *httpstream.Cache // peer-fetched payloads; a budget apart from the origin's cache
	peers  map[string]*httpstream.Client

	localServes    counter
	peerFetches    counter
	peerErrors     counter
	localFallbacks counter
	rehashes       counter
}

// NewNode builds a cluster node. The local origin is constructed from
// cfg.Origin; peer clients are built eagerly (a peer may be down — its
// client just fails fetches until it recovers).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self required")
	}
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: Self %q not in Peers %v", cfg.Self, cfg.Peers)
	}
	origin, err := httpstream.NewServer(cfg.Origin)
	if err != nil {
		return nil, err
	}
	pol := cfg.PeerRetry
	if pol.MaxAttempts == 0 {
		pol.MaxAttempts = 2
	}
	if pol.RequestTimeout == 0 {
		pol.RequestTimeout = 3 * time.Second
	}
	// Every peer fetch is marked, so the receiving node serves locally.
	hc := &http.Client{Transport: peerMarker{base: &http.Transport{MaxIdleConnsPerHost: 16}}}
	n := &Node{
		cfg:    cfg,
		ring:   NewRing(cfg.DeadCooldown, cfg.Peers...),
		origin: origin,
		cache:  httpstream.NewCache(httpstream.DefaultCacheBytes),
		peers:  make(map[string]*httpstream.Client),
	}
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			continue
		}
		n.peers[p] = httpstream.NewRawClient(p, hc, httpstream.WithRetryPolicy(pol))
	}
	return n, nil
}

// counter is a per-node atomic tally: the global telemetry counters
// aggregate over all in-process nodes (tests run several), so each node
// keeps its own copy for Stats().
type counter struct{ v atomic.Int64 }

func (c *counter) add(d int64) { c.v.Add(d) }
func (c *counter) load() int64 { return c.v.Load() }

// peerMarker stamps peer fetches with the loop-terminating header.
type peerMarker struct{ base http.RoundTripper }

func (p peerMarker) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(peerHeader, "1")
	rt := p.base
	if rt == nil {
		rt = http.DefaultTransport
	}
	return rt.RoundTrip(r)
}

// Ring returns the node's membership view (tests and operators).
func (n *Node) Ring() *Ring { return n.ring }

// Origin returns the node's local origin (warm-up, cache stats).
func (n *Node) Origin() *httpstream.Server { return n.origin }

// PeerCacheStats returns the peer-payload cache counters.
func (n *Node) PeerCacheStats() httpstream.CacheStats { return n.cache.Stats() }

// Stats returns the node's cluster counters.
func (n *Node) Stats() Stats {
	return Stats{
		LocalServes:    n.localServes.load(),
		PeerFetches:    n.peerFetches.load(),
		PeerErrors:     n.peerErrors.load(),
		LocalFallbacks: n.localFallbacks.load(),
		Rehashes:       n.rehashes.load(),
		LiveNodes:      len(n.ring.Live()),
	}
}

// ownershipKey maps a payload request to its consistent-hash key, or
// ok=false for non-payload (or malformed — the origin will 400) paths.
func ownershipKey(r *http.Request) (string, bool) {
	switch r.URL.Path {
	case "/segment":
		rate, err1 := strconv.Atoi(r.URL.Query().Get("rate"))
		nn, err2 := strconv.Atoi(r.URL.Query().Get("n"))
		if err1 != nil || err2 != nil {
			return "", false
		}
		return fmt.Sprintf("seg:%d:%d", rate, nn), true
	case "/codes":
		nn, err := strconv.Atoi(r.URL.Query().Get("n"))
		if err != nil {
			return "", false
		}
		return fmt.Sprintf("codes:%d", nn), true
	}
	return "", false
}

// ServeHTTP implements http.Handler: manifests and playlists are served
// locally (all nodes are equivalent for them); payload requests are
// routed by ownership.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key, isPayload := ownershipKey(r)
	if !isPayload || r.Header.Get(peerHeader) != "" {
		// Not a routable payload request, or a peer fetch that must
		// terminate here: the local origin handles it.
		if isPayload {
			n.localServes.add(1)
			cLocal.Add(1)
		}
		n.origin.ServeHTTP(w, r)
		return
	}
	owner := n.ring.Owner(key)
	if owner == n.cfg.Self {
		n.localServes.add(1)
		cLocal.Add(1)
		n.origin.ServeHTTP(w, r)
		return
	}
	b, err := n.peerFetch(r, owner, key)
	if err == nil {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
		_, _ = w.Write(b) // client-gone write failures are the origin's tally
		return
	}
	// The owner is unreachable: suspect it (its keys rehash onto the
	// survivors for the cooldown) and serve from the local origin — the
	// content is procedural, so every node can build every payload.
	n.peerErrors.add(1)
	cPeerErrs.Add(1)
	if n.ring.MarkDead(owner) {
		n.rehashes.add(1)
		cRehashes.Add(1)
	}
	n.localFallbacks.add(1)
	cFallbacks.Add(1)
	n.origin.ServeHTTP(w, r)
}

// peerFetch returns the payload for key from the owning peer, through
// the node's LRU cache and singleflight: a miss storm on a remote key
// crosses the network once. The flight is keyed by owner as well as by
// key: a fetch still in flight to an owner that has since been marked
// dead must not hand its failure to a request routed to the key's new
// owner, which would then mark that live owner dead too.
func (n *Node) peerFetch(r *http.Request, owner, key string) ([]byte, error) {
	if b, ok := n.cache.Get(key); ok {
		return b, nil
	}
	n.peerFetches.add(1)
	cPeer.Add(1)
	return n.flight.DoCtx(r.Context(), owner+" "+key, func() ([]byte, error) {
		if b, ok := n.cache.Get(key); ok {
			return b, nil
		}
		cli, ok := n.peers[owner]
		if !ok {
			return nil, fmt.Errorf("cluster: no client for owner %q", owner)
		}
		b, err := cli.Fetch(r.URL.RequestURI())
		if err != nil {
			return nil, err
		}
		n.ring.MarkAlive(owner)
		n.cache.Put(key, b)
		return b, nil
	})
}
