package httpstream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nerve/internal/par"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// originLiveServer is an origin at the perfbench origin-live shape: 320×180,
// one-second chunks, a 200/400/800 kbps ladder over GamePlay seed 1.
func originLiveServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		W: 320, H: 180, ChunkSeconds: 1, Chunks: 3,
		Rates:  []int{200, 400, 800},
		Source: video.NewGenerator(video.Categories()[3], 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// goldenPayloads pins the SHA-256 of every payload of originLiveServer's
// first three chunks. The source, the encoder and the code extractor are
// deterministic, so a payload's bytes depend only on its key, never on the
// order or the concurrency of the requests that built it. A change to how
// the origin schedules its builds must leave these digests exactly as
// they are.
var goldenPayloads = map[string]string{
	"codes:0": "8336456c7a5de87844454b11236d46d9de15eac92c8cb7827c74806d73eaf6a8",
	"seg:0:0": "3b34cf4b63ca8b79ca8bf3cad378b0b045131877239e810a4dd6f46dbbba3378",
	"seg:1:0": "3ecb430dc90b2ed13215c73782725107564d3f39169d7f0fecc421faf746dbc6",
	"seg:2:0": "c6f454d20659040b1b1696a9a070ea6d340c65bbd9d21e1233f03ba6377d4154",
	"codes:1": "a0ee03658ab939b611f33b0d5e694c78c59ef80ff962b0a4298cae143a6f166f",
	"seg:0:1": "2d11e35f3f8c61212b6c809cda2b22cb64010baf41ca494fa9530f596fb9c6d6",
	"seg:1:1": "8ffa87a120fbaf7072b101ac6722667e370b22db700cd69035430a2b211d034e",
	"seg:2:1": "82faa549b41b112860a8bda7de0c8b38ef43dead89db4cc2507469a1ded47730",
	"codes:2": "ed9a9c69f3207c672d175b636a372d1292a3896e3e6b706da8cafc1dcb51a60a",
	"seg:0:2": "2261fad39e89318603981a9c150d5ecdc3d478596abb66618fabc606adf0ffdd",
	"seg:1:2": "9e75c9249aae6feac4bfd2701a267bea9e7caa085153bb125469194cc1d3be8f",
	"seg:2:2": "1a0ad893709829976b4024657e23ec0c847af6fbc726a4d7d11c22e5bbcce7a5",
}

func payloadDigest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// fetchKey builds (or serves) one payload by its cache key.
func fetchKey(srv *Server, key string) ([]byte, error) {
	var rate, n int
	if _, err := fmt.Sscanf(key, "codes:%d", &n); err == nil {
		return srv.codesFor(context.Background(), n)
	}
	if _, err := fmt.Sscanf(key, "seg:%d:%d", &rate, &n); err != nil {
		return nil, err
	}
	return srv.segment(context.Background(), rate, n)
}

func checkGolden(t *testing.T, key string, b []byte) {
	t.Helper()
	if got, want := payloadDigest(b), goldenPayloads[key]; got != want {
		t.Errorf("%s: digest %s, want %s", key, got, want)
	}
}

// TestOriginPayloadGolden walks the title the way a live client does —
// codes, then every rung, chunk by chunk — and checks every payload.
func TestOriginPayloadGolden(t *testing.T) {
	srv := originLiveServer(t)
	for n := 0; n < 3; n++ {
		for _, key := range []string{codesKey(n), segKey(0, n), segKey(1, n), segKey(2, n)} {
			b, err := fetchKey(srv, key)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			checkGolden(t, key, b)
		}
	}
}

// TestOriginCatchUpGolden asks a fresh origin for the top rung's last
// chunk first: the build catches the rung up from chunk 0 and must
// produce the bytes of the in-order walk.
func TestOriginCatchUpGolden(t *testing.T) {
	srv := originLiveServer(t)
	b, err := srv.segment(context.Background(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, segKey(2, 2), b)
}

// TestOriginConcurrentSetupGolden requests a cold chunk's codes and its
// lowest rung at once, as a player's set-up does on two connections. Both
// must come back with the in-order walk's bytes.
func TestOriginConcurrentSetupGolden(t *testing.T) {
	srv := originLiveServer(t)
	type res struct {
		key string
		b   []byte
		err error
	}
	out := make(chan res, 2)
	for _, key := range []string{codesKey(0), segKey(0, 0)} {
		go func(key string) {
			b, err := fetchKey(srv, key)
			out <- res{key, b, err}
		}(key)
	}
	for i := 0; i < 2; i++ {
		r := <-out
		if r.err != nil {
			t.Fatalf("%s: %v", r.key, r.err)
		}
		checkGolden(t, r.key, r.b)
	}
}

// TestOriginColdChunkOnePass: the codes request of a cold chunk builds the
// chunk at every rung in the same pass, so the rung requests that follow
// are cache hits and encode nothing.
func TestOriginColdChunkOnePass(t *testing.T) {
	srv, _ := testServer(t)
	ctx := context.Background()
	rungs := int64(len(srv.Manifest().RatesKbps))
	for n := 0; n < srv.Manifest().Chunks; n++ {
		before := srv.Encodes()
		if _, err := srv.codesFor(ctx, n); err != nil {
			t.Fatal(err)
		}
		if got := srv.Encodes() - before; got != rungs {
			t.Fatalf("chunk %d: codes request encoded %d rung-chunks, want %d", n, got, rungs)
		}
		hits := srv.CacheStats().Hits
		for r := 0; r < int(rungs); r++ {
			if _, err := srv.segment(ctx, r, n); err != nil {
				t.Fatal(err)
			}
		}
		if got := srv.Encodes() - before; got != rungs {
			t.Fatalf("chunk %d: rung requests encoded %d more", n, got-rungs)
		}
		if got := srv.CacheStats().Hits - hits; got != rungs {
			t.Fatalf("chunk %d: %d of %d rung requests were cache hits", n, got, rungs)
		}
	}
}

// newBareServer is testServer's origin without a listener, so a test can
// count the goroutines a build leaves behind.
func newBareServer(t *testing.T, src *video.Generator) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		W: 96, H: 64, ChunkSeconds: 0.5, Chunks: 3,
		Rates:  []int{200, 600},
		Source: src,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// serve runs one request through the handler in process.
func serve(srv *Server, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// waitGoroutines waits until no more than n goroutines run.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOriginMidPassFailure fails a pass in the middle of a chunk, after
// every rung's encoder has taken part of it. The request gets a 500; the
// pass leaves no goroutine behind and returns each pooled plane once (the
// poolcheck build panics on a double Put, which would surface as a
// builder panic); and the retry, which replays the rewound rungs from
// chunk 0, serves exactly the bytes of a server that never failed.
func TestOriginMidPassFailure(t *testing.T) {
	src := video.NewGenerator(video.Categories()[2], 7)
	ref := newBareServer(t, src)
	srv := newBareServer(t, src)
	fpc := srv.framesPerChunk()
	srv.testErr = errors.New("injected mid-pass failure")
	srv.testErrAt = fpc + fpc/2

	// The par pool's goroutines are long-lived and start on first use:
	// start them before the baseline, so only what the pass leaks counts.
	par.For(2, func(int) {})
	before := runtime.NumGoroutine()
	rec := serve(srv, "/segment?rate=1&n=1")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d want 500", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "injected") || strings.Contains(body, "panic") {
		t.Fatalf("500 body %q, want the injected error and no panic", body)
	}
	waitGoroutines(t, before)
	if _, ok := srv.cache.Get(segKey(1, 1)); ok {
		t.Fatal("failed chunk was cached")
	}

	srv.testErr = nil
	for n := 0; n < 3; n++ {
		for _, key := range []string{segKey(1, n), codesKey(n), segKey(0, n)} {
			got, err := fetchKey(srv, key)
			if err != nil {
				t.Fatalf("retry %s: %v", key, err)
			}
			want, err := fetchKey(ref, key)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("retry %s: %d bytes differ from the never-failed build", key, len(got))
			}
		}
	}
}

// TestOriginRenderPanicIs500: a panic while a pass renders comes back as
// a 500 instead of crashing the process, and the server stays usable. A
// category with a negative object count makes Render panic on its first
// frame.
func TestOriginRenderPanicIs500(t *testing.T) {
	srv := newBareServer(t, video.NewGenerator(video.Category{Name: "broken", Objects: -1}, 1))
	for _, path := range []string{"/codes?n=0", "/segment?rate=0&n=1", "/codes?n=0"} {
		rec := serve(srv, path)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "panic") {
			t.Fatalf("%s: status %d body %q, want a 500 reporting the render panic", path, rec.Code, rec.Body.String())
		}
	}
	if srv.Encodes() != 0 {
		t.Fatalf("%d encodes from a source that cannot render", srv.Encodes())
	}
}

// TestOriginBuildZeroPlaneAllocs: once the first chunk is built, walking
// the title in order allocates no plane. Each pass renders into a pooled
// plane, the extractor keeps its scratch, and each rung returns its
// previous reconstruction to the pool after the next Encode.
func TestOriginBuildZeroPlaneAllocs(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		W: 96, H: 64, ChunkSeconds: 0.2, Chunks: 3,
		Rates:  []int{200, 600},
		Source: video.NewGenerator(video.Categories()[2], 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	walk := func(n int) {
		if _, err := srv.codesFor(ctx, n); err != nil {
			t.Fatal(err)
		}
		for r := range srv.Manifest().RatesKbps {
			if _, err := srv.segment(ctx, r, n); err != nil {
				t.Fatal(err)
			}
		}
	}
	walk(0)
	allocs := vmath.PlaneAllocs()
	for n := 1; n < srv.Manifest().Chunks; n++ {
		walk(n)
	}
	if d := vmath.PlaneAllocs() - allocs; d != 0 {
		t.Fatalf("warm walk allocated %d planes", d)
	}
}

// TestOriginMissDuringReplay: a cold miss on another key completes while
// an eviction replay is still walking. The build lock is held per pass,
// so the miss waits for at most the pass in progress, not for the rest of
// the replay; and neither build disturbs the other's bytes.
func TestOriginMissDuringReplay(t *testing.T) {
	src := video.NewGenerator(video.Categories()[2], 7)
	cfg := ServerConfig{
		W: 96, H: 64, ChunkSeconds: 0.5, Chunks: 5,
		Rates:  []int{200, 600},
		Source: src,
	}
	ref, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Every rung and the codes of chunks 0–3 are built; evicting rung 0's
	// chunk 3 makes its next request replay rung 0 from chunk 0.
	for n := 0; n < 4; n++ {
		if _, err := srv.segment(ctx, 0, n); err != nil {
			t.Fatal(err)
		}
	}
	srv.cache.mu.Lock()
	srv.cache.evict(srv.cache.m[segKey(0, 3)])
	srv.cache.mu.Unlock()

	paused := make(chan struct{})
	resume := make(chan struct{})
	release := sync.OnceFunc(func() { close(resume) })
	defer release()
	srv.testAfterPass = func(m int) {
		if m == 0 {
			close(paused)
			<-resume
		}
	}
	type result struct {
		b   []byte
		err error
	}
	replay := make(chan result, 1)
	go func() {
		b, err := srv.segment(ctx, 0, 3)
		replay <- result{b, err}
	}()
	<-paused // the replay has built chunk 0 and holds no lock
	miss := make(chan result, 1)
	go func() {
		b, err := srv.codesFor(ctx, 4)
		miss <- result{b, err}
	}()
	same := func(key string, got []byte) {
		t.Helper()
		want, err := fetchKey(ref, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs from an undisturbed build", key)
		}
	}
	select {
	case r := <-miss:
		if r.err != nil {
			t.Fatal(r.err)
		}
		same(codesKey(4), r.b)
	case <-time.After(10 * time.Second):
		t.Fatal("codes:4 waited for the whole replay of rung 0")
	}
	// Rung 1 stood at chunk 4, so the codes pass built it too.
	b, ok := srv.cache.peek(segKey(1, 4))
	if !ok {
		t.Fatal("the codes pass did not build seg:1:4")
	}
	same(segKey(1, 4), b)
	release()
	r := <-replay
	if r.err != nil {
		t.Fatal(r.err)
	}
	same(segKey(0, 3), r.b)
}
