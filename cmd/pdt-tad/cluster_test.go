package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/cluster"
	"github.com/celltrace/pdt/internal/faults"
)

// ringServers starts n in-process replicas wired into one ring. Every
// replica knows every URL up front: listeners are bound before any
// server is built, so the -peers list is complete from the first boot.
// Returns the servers and their base URLs, index-aligned with the
// replica names "a", "b", "c", ...
func ringServers(t *testing.T, n int, mut func(i int, cfg *config)) ([]*server, []string) {
	t.Helper()
	servers, urls, _ := ringServersTS(t, n, mut)
	return servers, urls
}

// ringServersTS is ringServers with the HTTP servers returned, so a test
// can crash one mid-flight.
func ringServersTS(t *testing.T, n int, mut func(i int, cfg *config)) ([]*server, []string, []*httptest.Server) {
	t.Helper()
	names := make([]string, n)
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	var peersSpec strings.Builder
	for i := 0; i < n; i++ {
		names[i] = string(rune('a' + i))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
		if i > 0 {
			peersSpec.WriteByte(',')
		}
		fmt.Fprintf(&peersSpec, "%s=%s", names[i], urls[i])
	}
	servers := make([]*server, n)
	tss := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		cfg := defaultConfig()
		cfg.peersSpec = peersSpec.String()
		cfg.selfName = names[i]
		// Fast failure detection so ring tests stay quick.
		cfg.peer.Timeout = 500 * time.Millisecond
		cfg.peer.BackoffBase = 5 * time.Millisecond
		cfg.peer.BackoffCap = 20 * time.Millisecond
		cfg.peer.BreakerCooldown = 200 * time.Millisecond
		if mut != nil {
			mut(i, &cfg)
		}
		s := newServer(cfg, quietLogger())
		if err := s.setupState(); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(s.handler())
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		t.Cleanup(ts.Close)
		t.Cleanup(s.closeState)
		servers[i] = s
		tss[i] = ts
	}
	return servers, urls, tss
}

// ownerOf maps a trace image to its owning replica index.
func ownerOf(t *testing.T, servers []*server, data []byte) int {
	t.Helper()
	owner := servers[0].cluster.Owner(cluster.Key(cache.KeyOf(data)))
	for i, s := range servers {
		if s.cluster.Self() == owner {
			return i
		}
	}
	t.Fatalf("owner %q not among the replicas", owner)
	return -1
}

func TestClusterRemoteHitIsByteIdentical(t *testing.T) {
	servers, urls := ringServers(t, 2, nil)
	trace := smallTrace(t)
	owner := ownerOf(t, servers, trace)
	other := 1 - owner

	// Warm the owner, then hit the other replica: it must peek the
	// owner's cache and serve the exact same bytes without recomputing.
	resp, want := post(t, urls[owner]+"/v1/summary", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: %d: %s", resp.StatusCode, want)
	}
	resp, got := post(t, urls[other]+"/v1/summary", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed request: %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("remote hit not byte-identical to the owner's artifact")
	}
	ownerName := servers[owner].cluster.Self()
	if h := resp.Header.Get("X-Pdt-Cluster"); h != "hit:"+ownerName {
		t.Fatalf("X-Pdt-Cluster = %q, want hit:%s", h, ownerName)
	}

	// The fetched artifact was adopted: the next request is local.
	resp, _ = post(t, urls[other]+"/v1/summary", trace)
	if h := resp.Header.Get("X-Pdt-Cluster"); h != "local" {
		t.Fatalf("after adoption X-Pdt-Cluster = %q, want local", h)
	}
}

func TestClusterColdOwnerIsACleanMiss(t *testing.T) {
	servers, urls := ringServers(t, 2, nil)
	trace := smallTrace(t)
	owner := ownerOf(t, servers, trace)
	other := 1 - owner

	resp, body := post(t, urls[other]+"/v1/summary", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	ownerName := servers[owner].cluster.Self()
	if h := resp.Header.Get("X-Pdt-Cluster"); h != "miss:"+ownerName {
		t.Fatalf("X-Pdt-Cluster = %q, want miss:%s", h, ownerName)
	}
	// A clean miss is not degradation: the breaker stays closed.
	if st := servers[other].cluster.Status(); st[0].Failures != 0 {
		t.Fatalf("cold owner scored as failure: %+v", st)
	}
}

func TestClusterOwnerServesSelf(t *testing.T) {
	servers, urls := ringServers(t, 2, nil)
	trace := smallTrace(t)
	owner := ownerOf(t, servers, trace)

	resp, body := post(t, urls[owner]+"/v1/summary", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Pdt-Cluster"); h != "self" {
		t.Fatalf("X-Pdt-Cluster = %q, want self", h)
	}
}

func TestClusterPeekEndpoint(t *testing.T) {
	servers, urls := ringServers(t, 2, nil)
	trace := smallTrace(t)
	owner := ownerOf(t, servers, trace)
	key := cache.KeyOf(trace)

	peekURL := fmt.Sprintf("%s/v1/cluster/artifact/%s/%s", urls[owner], key, cache.KindSummary)
	resp, err := http.Get(peekURL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold peek: %d, want 404", resp.StatusCode)
	}

	_, want := post(t, urls[owner]+"/v1/summary", trace)
	resp, err = http.Get(peekURL)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm peek: %d: %s", resp.StatusCode, raw)
	}
	payload, err := cluster.DecodeFrame(raw)
	if err != nil {
		t.Fatalf("peek frame: %v", err)
	}
	if !bytes.Equal(payload, want) {
		t.Fatal("peeked artifact differs from the served one")
	}

	// Malformed requests are rejected, not computed.
	for _, path := range []string{
		"/v1/cluster/artifact/nothex/summary",
		"/v1/cluster/artifact/" + key.String() + "/nonesuch",
	} {
		resp, err := http.Get(urls[owner] + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestClusterPeekDisabledWithoutPeers(t *testing.T) {
	_, ts := testServer(t, nil)
	key := cache.KeyOf([]byte("x"))
	resp, err := http.Get(fmt.Sprintf("%s/v1/cluster/artifact/%s/summary", ts.URL, key))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestClusterDegradedNeverErrors is the heart of the failure semantics:
// with the owner unreachable the request is computed locally, marked
// degraded, and byte-identical to a single-node answer — never a 5xx.
func TestClusterDegradedNeverErrors(t *testing.T) {
	trace := smallTrace(t)
	// Single-node golden answer.
	_, ts := testServer(t, nil)
	resp, want := post(t, ts.URL+"/v1/summary", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("golden: %d", resp.StatusCode)
	}

	// Every peer call from every replica drops: whatever replica we hit,
	// its view of the owner is a dead link.
	servers, urls := ringServers(t, 2, func(i int, cfg *config) {
		cfg.chaos = &faults.ServicePlan{NetDrops: []faults.NetDropRule{{Peer: "*", Count: faults.EveryTime}}}
	})
	owner := ownerOf(t, servers, trace)
	other := 1 - owner

	resp, got := post(t, urls[other]+"/v1/summary", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request: %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded answer differs from single-node answer")
	}
	if h := resp.Header.Get("X-Pdt-Cluster"); h != "degraded" {
		t.Fatalf("X-Pdt-Cluster = %q, want degraded", h)
	}
	if n := servers[other].clusterFallbacks.Load(); n != 1 {
		t.Fatalf("localFallbacks = %d, want 1", n)
	}
}

func TestClusterStatsAndReadyzSurfaceBreakerState(t *testing.T) {
	trace := smallTrace(t)
	servers, urls := ringServers(t, 2, func(i int, cfg *config) {
		cfg.chaos = &faults.ServicePlan{NetDrops: []faults.NetDropRule{{Peer: "*", Count: faults.EveryTime}}}
		cfg.peer.BreakerThreshold = 2
		cfg.peer.Attempts = 2
	})
	owner := ownerOf(t, servers, trace)
	other := 1 - owner

	// One request = two failed attempts = threshold: breaker opens.
	resp, _ := post(t, urls[other]+"/v1/summary", trace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	ownerName := servers[owner].cluster.Self()
	if st := servers[other].cluster.Breaker(ownerName).State(); st != cluster.StateOpen {
		t.Fatalf("breaker %v, want open", st)
	}

	sresp, err := http.Get(urls[other] + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	cl, ok := st["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("no cluster section in stats: %v", st)
	}
	if cl["degraded"] != true {
		t.Fatalf("stats degraded = %v", cl["degraded"])
	}
	if !strings.Contains(cl["reason"].(string), ownerName) {
		t.Fatalf("stats reason %q does not name the peer", cl["reason"])
	}
	peers := cl["peers"].([]any)
	if len(peers) != 1 {
		t.Fatalf("peers: %v", peers)
	}
	if p := peers[0].(map[string]any); p["breaker"] != "open" || p["failures"].(float64) < 2 {
		t.Fatalf("peer status %v", p)
	}

	// Degraded is visible on readyz but is not a readiness failure.
	rresp, err := http.Get(urls[other] + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d, want 200", rresp.StatusCode)
	}
	if !strings.Contains(string(body), "degraded") || !strings.Contains(string(body), ownerName) {
		t.Fatalf("readyz body %q", body)
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("a=http://h1:1, b=http://h2:2/")
	if err != nil {
		t.Fatal(err)
	}
	if peers["a"] != "http://h1:1" || peers["b"] != "http://h2:2" {
		t.Fatalf("peers %v", peers)
	}
	for _, spec := range []string{
		"",                      // empty
		"a=http://x,a=http://y", // duplicate
		"a=hostport",            // no scheme
		"=http://x",             // no name
		"a",                     // no URL
	} {
		if _, err := parsePeers(spec); err == nil {
			t.Errorf("parsePeers(%q) accepted", spec)
		}
	}
}

func TestClusterConfigValidation(t *testing.T) {
	for _, tc := range []struct{ peers, self string }{
		{"", "a"},                      // -self without -peers
		{"a=http://x", ""},             // -peers without -self
		{"a=http://x,b=http://y", "z"}, // self not in list
	} {
		cfg := defaultConfig()
		cfg.peersSpec = tc.peers
		cfg.selfName = tc.self
		s := newServer(cfg, quietLogger())
		if err := s.setupState(); err == nil {
			t.Errorf("peers=%q self=%q accepted", tc.peers, tc.self)
		}
	}
}

func TestGzipUploadMatchesPlain(t *testing.T) {
	_, ts := testServer(t, nil)
	trace := smallTrace(t)
	_, want := post(t, ts.URL+"/v1/summary", trace)

	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(trace); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/summary", bytes.NewReader(zbuf.Bytes()))
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gzip upload: %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gzip upload answered differently than the plain upload")
	}
}

func TestGzipUploadRejections(t *testing.T) {
	_, ts := testServer(t, func(cfg *config) {
		cfg.maxBody = 4096
		cfg.limits.MaxFileBytes = 4096
	})

	// A tiny compressed body whose decompressed size exceeds the cap:
	// the limit applies to what comes out of the decompressor.
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	if zbuf.Len() >= 4096 {
		t.Fatalf("bomb not small on the wire: %d bytes", zbuf.Len())
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/summary", bytes.NewReader(zbuf.Bytes()))
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("gzip bomb: %d, want 413", resp.StatusCode)
	}

	// Garbage under a gzip header is a 400, not a 500.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/summary", strings.NewReader("not gzip"))
	req.Header.Set("Content-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad gzip: %d, want 400", resp.StatusCode)
	}

	// Unknown encodings are refused up front.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/summary", strings.NewReader("x"))
	req.Header.Set("Content-Encoding", "br")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("unknown encoding: %d, want 415", resp.StatusCode)
	}
}

func TestGzipResponseNegotiation(t *testing.T) {
	_, ts := testServer(t, nil)
	trace := smallTrace(t)
	_, want := post(t, ts.URL+"/v1/summary", trace)

	// Explicit Accept-Encoding, transparent decompression disabled: the
	// wire bytes must actually be gzip.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/summary", bytes.NewReader(trace))
	req.Header.Set("Accept-Encoding", "gzip")
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding = %q", resp.Header.Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gzip response decompressed to different bytes")
	}
	if len(raw) >= len(want) {
		t.Fatalf("compression did not shrink the body: %d vs %d", len(raw), len(want))
	}

	// No Accept-Encoding: identity bytes.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/summary", bytes.NewReader(trace))
	resp, err = (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Content-Encoding") != "" {
		t.Fatalf("unsolicited Content-Encoding %q", resp.Header.Get("Content-Encoding"))
	}
	if !bytes.Equal(plain, want) {
		t.Fatal("identity response differs")
	}
}
