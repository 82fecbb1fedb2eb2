package cluster

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nerve/internal/httpstream"
	"nerve/internal/video"
)

// --- Ring unit tests ----------------------------------------------------

func threeNodeRing() *Ring {
	return NewRing(0, "http://a:1", "http://b:1", "http://c:1")
}

func TestRingOwnerDeterministic(t *testing.T) {
	r1 := threeNodeRing()
	// Membership order must not matter: rendezvous hashing has no token
	// positions, so differently-ordered configs agree on every owner.
	r2 := NewRing(0, "http://c:1", "http://a:1", "http://b:1")
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("seg:1:%d", i)
		o := r1.Owner(key)
		if o != r1.Owner(key) {
			t.Fatalf("owner of %q unstable", key)
		}
		if o != r2.Owner(key) {
			t.Fatalf("owner of %q depends on membership order: %q vs %q", key, o, r2.Owner(key))
		}
	}
}

func TestRingDistribution(t *testing.T) {
	r := threeNodeRing()
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		counts[r.Owner(fmt.Sprintf("seg:0:%d", i))]++
	}
	if len(counts) != 3 {
		t.Fatalf("only %d of 3 nodes own keys: %v", len(counts), counts)
	}
	for n, c := range counts {
		if c < 50 {
			t.Errorf("node %s owns only %d/300 keys — distribution badly skewed: %v", n, c, counts)
		}
	}
}

// TestRingMinimalMovement: HRW's defining property — when a node dies,
// only its keys move; every key a survivor owned stays put.
func TestRingMinimalMovement(t *testing.T) {
	r := threeNodeRing()
	before := map[string]string{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("codes:%d", i)
		before[key] = r.Owner(key)
	}
	dead := "http://b:1"
	r.MarkDead(dead)
	moved := 0
	for key, was := range before {
		now := r.Owner(key)
		if now == dead {
			t.Fatalf("key %q still owned by dead node", key)
		}
		if was != dead && now != was {
			t.Fatalf("key %q moved from surviving node %q to %q", key, was, now)
		}
		if was == dead {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("dead node owned no keys — test proves nothing")
	}
}

func TestRingCooldownExpiry(t *testing.T) {
	r := NewRing(5*time.Second, "a", "b")
	now := time.Unix(1000, 0)
	r.now = func() time.Time { return now }

	if !r.MarkDead("a") {
		t.Fatal("first MarkDead did not report a new death")
	}
	if r.MarkDead("a") {
		t.Fatal("repeated MarkDead counted as a second death")
	}
	if r.Alive("a") {
		t.Fatal("suspected node reported alive")
	}
	if got := r.Live(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Live = %v, want [b]", got)
	}

	// Past the cooldown the node is retried automatically.
	now = now.Add(6 * time.Second)
	if !r.Alive("a") {
		t.Fatal("cooldown expired but node still suspected")
	}
	// A successful fetch clears suspicion early.
	r.MarkDead("a")
	r.MarkAlive("a")
	if !r.Alive("a") {
		t.Fatal("MarkAlive did not clear suspicion")
	}
}

// TestRingAllDeadFallback: with every member suspected, Owner still
// answers (from the full membership) so the caller can fail its peer
// fetch and fall back locally rather than NPE on an empty ring.
func TestRingAllDeadFallback(t *testing.T) {
	r := NewRing(time.Hour, "a", "b")
	r.MarkDead("a")
	r.MarkDead("b")
	if got := r.Owner("seg:0:0"); got != "a" && got != "b" {
		t.Fatalf("Owner with all nodes dead = %q", got)
	}
}

// --- Node tests ---------------------------------------------------------

func originConfig() httpstream.ServerConfig {
	// Each node gets its own generator with the same seed: the content is
	// procedural and deterministic, so every node can build byte-identical
	// payloads — the property the dead-owner local fallback relies on.
	return httpstream.ServerConfig{
		W: 96, H: 64, ChunkSeconds: 0.5, Chunks: 4,
		Rates:  []int{200, 600},
		Source: video.NewGenerator(video.Categories()[2], 7),
	}
}

func fastPeerRetry() httpstream.RetryPolicy {
	return httpstream.RetryPolicy{
		MaxAttempts:    2,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     2 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
	}
}

// testCluster starts n nodes on real loopback listeners and returns
// them with their base URLs and a kill function per index.
func testCluster(t *testing.T, n int) ([]*Node, []string, func(i int)) {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*Node, n)
	servers := make([]*http.Server, n)
	for i := range nodes {
		node, err := NewNode(Config{
			Self:         urls[i],
			Peers:        urls,
			Origin:       originConfig(),
			PeerRetry:    fastPeerRetry(),
			DeadCooldown: time.Hour, // a killed node stays dead for the test
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		servers[i] = &http.Server{Handler: node}
		go servers[i].Serve(lns[i]) //nolint:errcheck // returns on Close
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	kill := func(i int) {
		if err := servers[i].Close(); err != nil {
			t.Fatalf("kill node %d: %v", i, err)
		}
	}
	return nodes, urls, kill
}

func clientPolicy(seed int64) httpstream.RetryPolicy {
	return httpstream.RetryPolicy{
		MaxAttempts:    4,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     2 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		Seed:           seed,
	}
}

// TestPeerFetchNotSharedAcrossOwners: a peer fetch still in flight to an
// owner that has since been marked dead is not shared with a request for
// the same key routed to the key's new owner. That request is served by
// the new owner without waiting, and the dead owner's failure is never
// blamed on the live one.
func TestPeerFetchNotSharedAcrossOwners(t *testing.T) {
	arrived, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(arrived) })
		<-release
		http.Error(w, "going down", http.StatusServiceUnavailable)
	}))
	defer dead.Close()
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("from-live"))
	}))
	defer live.Close()
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()

	self := "http://self.invalid"
	node, err := NewNode(Config{
		Self: self, Peers: []string{self, dead.URL, live.URL},
		Origin: originConfig(), PeerRetry: fastPeerRetry(), DeadCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A key the dying peer owns and the live peer inherits.
	heir := NewRing(0, self, live.URL)
	path := ""
	for i := 0; path == ""; i++ {
		key := fmt.Sprintf("seg:0:%d", i)
		if node.Ring().Owner(key) == dead.URL && heir.Owner(key) == live.URL {
			path = fmt.Sprintf("/segment?rate=0&n=%d", i)
		}
	}
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		node.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	first := make(chan struct{})
	go func() {
		defer close(first)
		get()
	}()
	<-arrived // the fetch from the dying owner is in flight
	node.Ring().MarkDead(dead.URL)
	second := make(chan *httptest.ResponseRecorder, 1)
	go func() { second <- get() }()
	select {
	case rec := <-second:
		if body := rec.Body.String(); rec.Code != http.StatusOK || body != "from-live" {
			t.Errorf("request routed to the new owner got %d with %d bytes, want 200 %q", rec.Code, len(body), "from-live")
		}
	case <-time.After(10 * time.Second):
		unblock()
		<-second
		t.Error("request routed to the new owner waited on the fetch from the dead owner")
	}
	unblock()
	<-first
	if !node.Ring().Alive(live.URL) {
		t.Error("the dead owner's failure marked the live owner dead")
	}
}

// TestNodesAgreeOnOwnership: every node computes the same owner for
// every payload key, and a request for a remotely-owned key comes back
// byte-identical to the owner's local payload.
func TestNodesAgreeOnOwnership(t *testing.T) {
	nodes, urls, _ := testCluster(t, 3)
	cfg := originConfig()
	for rate := 0; rate < len(cfg.Rates); rate++ {
		for n := 0; n < cfg.Chunks; n++ {
			key := fmt.Sprintf("seg:%d:%d", rate, n)
			want := nodes[0].Ring().Owner(key)
			for i, node := range nodes[1:] {
				if got := node.Ring().Owner(key); got != want {
					t.Fatalf("node %d owner(%s)=%q, node 0 says %q", i+1, key, got, want)
				}
			}
		}
	}
	// Fetch the same segment through a node that does not own it and
	// through the owner: the bytes must match.
	key := "seg:1:2"
	owner := nodes[0].Ring().Owner(key)
	var other string
	for _, u := range urls {
		if u != owner {
			other = u
			break
		}
	}
	fromOwner := httpstream.NewRawClient(owner, nil, httpstream.WithRetryPolicy(clientPolicy(1)))
	fromOther := httpstream.NewRawClient(other, nil, httpstream.WithRetryPolicy(clientPolicy(2)))
	a, err := fromOwner.Fetch("/segment?rate=1&n=2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fromOther.Fetch("/segment?rate=1&n=2")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("proxied payload differs from owner's: %d vs %d bytes", len(b), len(a))
	}
	// The non-owner proxied at least one request and cached the payload
	// within budget.
	var agg Stats
	for _, n := range nodes {
		agg.Add(n.Stats())
	}
	if agg.PeerFetches == 0 {
		t.Fatal("no peer fetch recorded for a remotely-owned key")
	}
	for i, n := range nodes {
		if st := n.PeerCacheStats(); st.BytesLive > st.Budget {
			t.Fatalf("node %d peer cache over budget: %d > %d", i, st.BytesLive, st.Budget)
		}
	}
}

// TestPeerMarkedRequestServesLocally: a request already marked as a peer
// fetch terminates at the receiving node even when it does not own the
// key — the one-hop guarantee that makes forwarding loops impossible.
func TestPeerMarkedRequestServesLocally(t *testing.T) {
	nodes, urls, _ := testCluster(t, 2)
	// Find a key node 0 does NOT own.
	var path string
	for rate := 0; rate < 2 && path == ""; rate++ {
		for n := 0; n < 4; n++ {
			if nodes[0].Ring().Owner(fmt.Sprintf("seg:%d:%d", rate, n)) != urls[0] {
				path = fmt.Sprintf("/segment?rate=%d&n=%d", rate, n)
				break
			}
		}
	}
	if path == "" {
		t.Fatal("node 0 owns every key — test needs a remote one")
	}
	before := nodes[0].Stats().PeerFetches
	req, err := http.NewRequest("GET", urls[0]+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(peerHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-marked request: status %d", resp.StatusCode)
	}
	if got := nodes[0].Stats().PeerFetches; got != before {
		t.Fatalf("peer-marked request was re-proxied (%d new peer fetches)", got-before)
	}
}

// TestClusterSurvivesNodeKill is the acceptance test: several clients
// stream from a 3-node cluster, one node is killed mid-stream, and every
// client finishes every chunk — degraded is allowed, death is not. The
// survivors' rings must rehash the dead node's keys onto themselves.
func TestClusterSurvivesNodeKill(t *testing.T) {
	nodes, urls, kill := testCluster(t, 3)
	cfg := originConfig()

	// Pick the victim: the owner of the first second-half segment key.
	// Listener ports are random, so ownership differs from run to run; a
	// fixed victim index sometimes owned no key, or only first-half keys
	// that every survivor had already cached and so never asked the dead
	// node for. The owner of a key nobody fetches before the kill is
	// contacted, and found dead, by every survivor: each one serves both
	// rates to its own primary clients in the second half.
	firstLate := fmt.Sprintf("seg:0:%d", cfg.Chunks/2)
	victim := -1
	for i, u := range urls {
		if nodes[0].Ring().Owner(firstLate) == u {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("owner of %s is not a cluster member", firstLate)
	}
	victimKeys := 0
	for rate := 0; rate < len(cfg.Rates); rate++ {
		for n := 0; n < cfg.Chunks; n++ {
			if nodes[0].Ring().Owner(fmt.Sprintf("seg:%d:%d", rate, n)) == urls[victim] {
				victimKeys++
			}
		}
	}
	if victimKeys == 0 {
		t.Fatal("victim owns no segment keys — kill would be unobservable")
	}

	const numClients = 6
	type clientRun struct {
		fetched  int
		degraded int
		err      error
	}
	runs := make([]clientRun, numClients)
	clients := make([]*httpstream.Client, numClients)
	for i := range clients {
		primary := urls[i%len(urls)]
		var rest []string
		for _, u := range urls {
			if u != primary {
				rest = append(rest, u)
			}
		}
		cli, err := httpstream.NewFetchClient(primary, nil,
			httpstream.WithFailover(rest...),
			httpstream.WithRetryPolicy(clientPolicy(int64(i+1))))
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		clients[i] = cli
	}

	// Phase 1: everyone streams the first half.
	var barrier sync.WaitGroup
	var wg sync.WaitGroup
	barrier.Add(numClients)
	killed := make(chan struct{})
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rate := i % len(cfg.Rates)
			for n := 0; n < cfg.Chunks; n++ {
				if n == cfg.Chunks/2 {
					barrier.Done()
					<-killed // stream on only after the node is down
				}
				res, err := clients[i].FetchChunk(n, rate)
				if err != nil {
					runs[i].err = fmt.Errorf("chunk %d: %w", n, err)
					if n < cfg.Chunks/2 {
						barrier.Done()
					}
					return
				}
				runs[i].fetched++
				if res.Degraded {
					runs[i].degraded++
				}
			}
		}(i)
	}
	barrier.Wait()
	kill(victim)
	close(killed)
	wg.Wait()

	for i, r := range runs {
		if r.err != nil {
			t.Errorf("client %d died: %v", i, r.err)
		}
		if r.fetched != cfg.Chunks {
			t.Errorf("client %d finished %d/%d chunks", i, r.fetched, cfg.Chunks)
		}
	}

	// Every survivor serves a victim-owned key after the kill. The key is
	// one no survivor can have in its peer cache (it was first asked for
	// after the kill), so a survivor that still thought the victim alive
	// would ask it, fail and mark it dead here.
	victimKey := fmt.Sprintf("/segment?rate=0&n=%d", cfg.Chunks/2)
	for i, u := range urls {
		if i == victim {
			continue
		}
		cli := httpstream.NewRawClient(u, nil, httpstream.WithRetryPolicy(clientPolicy(int64(100+i))))
		if _, err := cli.Fetch(victimKey); err != nil {
			t.Errorf("survivor %d failed to serve a victim-owned key: %v", i, err)
		}
	}

	// The rehash: every survivor's ring now maps every key to a survivor.
	for i, node := range nodes {
		if i == victim {
			continue
		}
		if node.Ring().Alive(urls[victim]) {
			t.Errorf("survivor %d still believes the victim is alive", i)
		}
		for rate := 0; rate < len(cfg.Rates); rate++ {
			for n := 0; n < cfg.Chunks; n++ {
				key := fmt.Sprintf("seg:%d:%d", rate, n)
				if owner := node.Ring().Owner(key); owner == urls[victim] {
					t.Errorf("survivor %d still routes %s to the dead node", i, key)
				}
			}
		}
	}

	var agg Stats
	for i, n := range nodes {
		if i == victim {
			continue
		}
		agg.Add(n.Stats())
	}
	if agg.Rehashes == 0 {
		t.Error("no rehash recorded despite a killed node")
	}
	if agg.LocalFallbacks == 0 {
		t.Error("no local fallback recorded despite a killed owner")
	}
	if agg.LiveNodes != 2 {
		t.Errorf("pessimistic live-node view = %d, want 2", agg.LiveNodes)
	}
	for i, n := range nodes {
		if st := n.PeerCacheStats(); st.BytesLive > st.Budget {
			t.Errorf("node %d peer cache over budget: %d > %d", i, st.BytesLive, st.Budget)
		}
	}
}
