package cluster

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Fetch errors. ErrNotCached is a clean miss — the owner answered and
// simply has nothing — and never counts against the breaker. ErrPeerDown
// means the peer's breaker refused the call without touching the
// network. Anything else is a real failure after the retry budget.
var (
	ErrNotCached = errors.New("cluster: owner has no cached artifact")
	ErrPeerDown  = errors.New("cluster: peer circuit breaker open")
	ErrNoPeer    = errors.New("cluster: unknown peer")
)

// Config wires a Client. Self and Peers are required; everything else
// has a production-sane default.
type Config struct {
	// Self is this replica's name; it must appear in Peers.
	Self string
	// Peers maps peer name → base URL (scheme://host:port).
	Peers map[string]string
	// Timeout bounds one peer call end to end (default 1s). Peeks are
	// cache reads on the far side; anything slow is a sick peer.
	Timeout time.Duration
	// Attempts is the per-fetch call budget including the first try
	// (default 2).
	Attempts int
	// BackoffBase/BackoffCap shape the capped exponential retry backoff,
	// jittered: attempt n waits roughly min(Base<<(n-1), Cap), half of it
	// deterministic and half uniformly random (defaults 25ms / 250ms —
	// the same min(Base<<(n-1), Cap) shape the job manager retries with).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerThreshold consecutive failures open a peer's breaker
	// (default 3); BreakerCooldown is the open → half-open delay
	// (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Transport overrides the HTTP transport (fault-injection seam;
	// http.DefaultTransport when nil).
	Transport http.RoundTripper
}

// peer is one remote replica plus its resilience state and counters.
type peer struct {
	name    string
	url     string
	breaker *Breaker

	mu       sync.Mutex
	fetches  uint64
	hits     uint64
	misses   uint64
	failures uint64
	refusals uint64 // calls the breaker refused locally
}

// PeerStatus is the observable state of one peer, as served by
// /v1/stats and asserted by the chaos suite.
type PeerStatus struct {
	Name                string `json:"name"`
	URL                 string `json:"url"`
	Breaker             string `json:"breaker"`
	ConsecutiveFailures int    `json:"consecutiveFailures"`
	Opens               uint64 `json:"opens"`
	Fetches             uint64 `json:"fetches"`
	Hits                uint64 `json:"hits"`
	Misses              uint64 `json:"misses"`
	Failures            uint64 `json:"failures"`
	Refusals            uint64 `json:"refusals"`
}

// Client routes trace keys to owner replicas and fetches cached
// artifacts from them with the full resilience stack.
type Client struct {
	cfg   Config
	ring  *Ring
	peers map[string]*peer
	hc    *http.Client

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New validates the config and builds the client.
func New(cfg Config) (*Client, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: empty self name")
	}
	if _, ok := cfg.Peers[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: self %q not in peer list", cfg.Self)
	}
	names := make([]string, 0, len(cfg.Peers))
	for n := range cfg.Peers {
		names = append(names, n)
	}
	ring, err := NewRing(names, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 2
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 250 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	c := &Client{
		cfg:   cfg,
		ring:  ring,
		peers: map[string]*peer{},
		hc: &http.Client{
			Transport: cfg.Transport,
			// No client-level timeout: each call carries its own context
			// deadline so a retry's clock starts fresh.
		},
		rng: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for name, url := range cfg.Peers {
		if name == cfg.Self {
			continue
		}
		c.peers[name] = &peer{
			name: name, url: url,
			breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
	}
	return c, nil
}

// Self returns this replica's name.
func (c *Client) Self() string { return c.cfg.Self }

// Peers returns the sorted names of all ring members, self included.
func (c *Client) Peers() []string { return c.ring.Peers() }

// Owner maps a trace key to its owning replica name.
func (c *Client) Owner(key Key) string { return c.ring.Owner(key) }

// Breaker exposes a peer's breaker (nil for self/unknown) — the chaos
// suite asserts open/close transitions on it directly.
func (c *Client) Breaker(name string) *Breaker {
	if p := c.peers[name]; p != nil {
		return p.breaker
	}
	return nil
}

// targetKey carries the destination peer name on outgoing requests so a
// fault-injecting transport can tell peers apart.
type targetKey struct{}

// TargetPeer reports which peer an outgoing request is addressed to
// ("" for requests the Client did not make).
func TargetPeer(r *http.Request) string {
	name, _ := r.Context().Value(targetKey{}).(string)
	return name
}

// FetchArtifact asks the named peer for its cached artifact of
// (key, kind): GET {peer}/v1/cluster/artifact/{key}/{kind}. It returns
// ErrNotCached on a clean miss, ErrPeerDown when the breaker refuses the
// call, and the last failure once the retry budget is spent. Every
// response body is CRC-framed; a damaged frame counts as a failure, not
// a result.
func (c *Client) FetchArtifact(ctx context.Context, name string, key Key, kind string) ([]byte, error) {
	p := c.peers[name]
	if p == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoPeer, name)
	}
	var lastErr error
	for attempt := 1; attempt <= c.cfg.Attempts; attempt++ {
		if attempt > 1 {
			if err := c.sleep(ctx, c.backoff(attempt-1)); err != nil {
				return nil, err
			}
		}
		if !p.breaker.Allow() {
			p.mu.Lock()
			p.refusals++
			p.mu.Unlock()
			// The breaker refusing is not itself a peer failure; report
			// the cause we already know about.
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, ErrPeerDown
		}
		b, err := c.fetchOnce(ctx, p, key, kind)
		switch {
		case err == nil:
			p.breaker.Record(true)
			p.mu.Lock()
			p.fetches++
			p.hits++
			p.mu.Unlock()
			return b, nil
		case errors.Is(err, ErrNotCached):
			// The peer answered; its cache is just cold. A healthy miss.
			p.breaker.Record(true)
			p.mu.Lock()
			p.fetches++
			p.misses++
			p.mu.Unlock()
			return nil, ErrNotCached
		case ctx.Err() != nil:
			// Our caller's deadline died, not the peer: don't punish it.
			return nil, ctx.Err()
		default:
			p.breaker.Record(false)
			p.mu.Lock()
			p.fetches++
			p.failures++
			p.mu.Unlock()
			lastErr = err
		}
	}
	return nil, lastErr
}

// fetchOnce runs one bounded call.
func (c *Client) fetchOnce(ctx context.Context, p *peer, key Key, kind string) ([]byte, error) {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	cctx = context.WithValue(cctx, targetKey{}, p.name)
	url := fmt.Sprintf("%s/v1/cluster/artifact/%s/%s", p.url, hex.EncodeToString(key[:]), kind)
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, ErrNotCached
	default:
		return nil, fmt.Errorf("cluster: peer %s: %s", p.name, resp.Status)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxFramePayload+int64(frameHeaderSize)+1))
	if err != nil {
		return nil, err
	}
	payload, err := DecodeFrame(raw)
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", p.name, err)
	}
	// The frame aliases the response buffer; copy so callers may retain.
	return append([]byte(nil), payload...), nil
}

// backoff computes the jittered capped exponential delay before retry n
// (1-based): half deterministic, half uniform random, so synchronized
// retry storms against a recovering peer spread out.
func (c *Client) backoff(n int) time.Duration {
	d := c.cfg.BackoffBase << (n - 1)
	if d > c.cfg.BackoffCap || d <= 0 {
		d = c.cfg.BackoffCap
	}
	half := d / 2
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(half) + 1))
	c.rngMu.Unlock()
	return half + j
}

// sleep waits d or until ctx dies.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status snapshots every remote peer, sorted by name.
func (c *Client) Status() []PeerStatus {
	out := make([]PeerStatus, 0, len(c.peers))
	for _, p := range c.peers {
		st, fails, opens := p.breaker.Snapshot()
		p.mu.Lock()
		out = append(out, PeerStatus{
			Name: p.name, URL: p.url,
			Breaker:             st.String(),
			ConsecutiveFailures: fails,
			Opens:               opens,
			Fetches:             p.fetches, Hits: p.hits, Misses: p.misses,
			Failures: p.failures, Refusals: p.refusals,
		})
		p.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Degraded reports whether any peer's breaker is currently open, with a
// human-readable reason ("" when healthy). The daemon's readyz surfaces
// this without failing readiness: a degraded cluster still serves every
// request locally.
func (c *Client) Degraded() (bool, string) {
	names := make([]string, 0, len(c.peers))
	for n := range c.peers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if c.peers[n].breaker.State() == StateOpen {
			return true, fmt.Sprintf("cluster: peer %s breaker open", n)
		}
	}
	return false, ""
}
