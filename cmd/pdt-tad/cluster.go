package main

// Cluster mode. With -peers and -self the daemon becomes one replica in
// a consistent-hash ring: every trace key (SHA-256 of the upload) has an
// owner replica, and on a local cache miss the serving replica asks the
// owner for its cached artifact before recomputing. The peer protocol is
// a single read-only endpoint — GET /v1/cluster/artifact/{key}/{kind},
// CRC-framed — so a cold owner answers cheaply and no replica can be
// made to compute on another's behalf. Peer calls run through
// internal/cluster's resilience stack (timeouts, jittered capped
// backoff, per-peer circuit breakers); any failure degrades to local
// computation, marked X-Pdt-Cluster: degraded, never a 5xx.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/cluster"
	"github.com/celltrace/pdt/internal/faults"
)

// parsePeers parses "a=http://h1:8329,b=http://h2:8329" into a name→URL
// map. Names are the spelling the ring and a chaos plan's network rules
// (faults.NetDropRule, faults.PartitionRule) use; URLs must carry a
// scheme.
func parsePeers(spec string) (map[string]string, error) {
	peers := map[string]string{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("-peers: want name=URL, got %q", part)
		}
		if !strings.Contains(url, "://") {
			return nil, fmt.Errorf("-peers: %s: URL %q has no scheme", name, url)
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("-peers: duplicate name %q", name)
		}
		peers[name] = strings.TrimRight(url, "/")
	}
	if len(peers) == 0 {
		return nil, errors.New("-peers: empty peer list")
	}
	return peers, nil
}

// setupCluster builds the ring client from -peers/-self. Call before the
// server starts handling requests.
func (s *server) setupCluster() error {
	if s.cfg.peersSpec == "" {
		if s.cfg.selfName != "" {
			return errors.New("-self requires -peers")
		}
		return nil
	}
	if s.cfg.selfName == "" {
		return errors.New("-peers requires -self")
	}
	if s.cache == nil {
		return errors.New("-peers requires the cache to be enabled")
	}
	peers, err := parsePeers(s.cfg.peersSpec)
	if err != nil {
		return err
	}
	var transport http.RoundTripper = http.DefaultTransport
	if s.cfg.chaos != nil {
		transport = &netFaultTransport{self: s.cfg.selfName, plan: s.cfg.chaos, next: transport}
	}
	pc := s.cfg.peer
	pc.Self, pc.Peers, pc.Transport = s.cfg.selfName, peers, transport
	c, err := cluster.New(pc)
	if err != nil {
		return err
	}
	s.cluster = c
	s.log.Info("cluster mode", "self", c.Self(), "replicas", len(peers))
	return nil
}

// netFaultTransport injects the chaos plan's network rules into
// outgoing peer calls: a drop or a partition turns the call into a
// transport error — which is exactly what a real broken link looks like
// to the cluster client, so retries, breakers, and the degraded path are
// exercised end to end.
type netFaultTransport struct {
	self string
	plan *faults.ServicePlan
	next http.RoundTripper
}

func (t *netFaultTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	peer := cluster.TargetPeer(r)
	if t.plan.NetFault(t.self, peer) {
		return nil, fmt.Errorf("%w (%s -> %s)", faults.ErrNetDrop, t.self, peer)
	}
	return t.next.RoundTrip(r)
}

// clusterNote carries the routing outcome from the render path (which
// only sees an io.Writer) back to the HTTP layer, which turns it into
// the X-Pdt-Cluster response header.
type clusterNote struct{ v string }

type clusterNoteKey struct{}

func (s *server) noteCluster(ctx context.Context, v string) {
	if n, _ := ctx.Value(clusterNoteKey{}).(*clusterNote); n != nil {
		n.v = v
	}
}

// clusterFetch consults the key's owner replica for an already-rendered
// artifact. It returns (bytes, true) only on a remote hit; on a clean
// miss or any failure the caller computes locally, and failures mark
// the request degraded — the ring losing a member must never surface as
// an error to the uploader.
func (s *server) clusterFetch(ctx context.Context, key cache.Key, kind string) ([]byte, bool) {
	owner := s.cluster.Owner(cluster.Key(key))
	if owner == s.cluster.Self() {
		s.noteCluster(ctx, "self")
		return nil, false
	}
	b, err := s.cluster.FetchArtifact(ctx, owner, cluster.Key(key), kind)
	switch {
	case err == nil:
		b = s.cache.AdoptArtifact(key, kind, b)
		s.noteCluster(ctx, "hit:"+owner)
		return b, true
	case errors.Is(err, cluster.ErrNotCached):
		s.noteCluster(ctx, "miss:"+owner)
		return nil, false
	case ctx.Err() != nil:
		// Our request's own deadline died; what little budget remains
		// belongs to the local attempt, not to blame-keeping.
		return nil, false
	default:
		s.clusterFallbacks.Add(1)
		s.noteCluster(ctx, "degraded")
		s.log.Warn("cluster: owner unreachable, computing locally",
			"owner", owner, "kind", kind, "err", err)
		return nil, false
	}
}

// handleClusterArtifact serves GET /v1/cluster/artifact/{key}/{kind}:
// a read-only peek into the local cache tiers, CRC-framed. It never
// computes and never touches admission control — a peek must stay cheap
// on a replica that is saturated with real analyses.
func (s *server) handleClusterArtifact(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.writeError(w, http.StatusNotFound, errors.New("cluster mode disabled"))
		return
	}
	key, ok := cache.ParseKey(r.PathValue("key"))
	if !ok {
		s.writeError(w, http.StatusBadRequest, errors.New("malformed trace key"))
		return
	}
	kind := r.PathValue("kind")
	if !cache.ValidKind(kind) {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("unknown artifact kind %q", kind))
		return
	}
	b, ok := s.cache.Peek(key, kind)
	if !ok {
		s.writeError(w, http.StatusNotFound, errors.New("not cached here"))
		return
	}
	frame := cluster.EncodeFrame(b)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame)
}

// clusterStats is the /v1/stats cluster section.
type clusterStats struct {
	Self string `json:"self"`
	// Degraded/Reason mirror what readyz reports: some peer's breaker is
	// open, the ring is serving locally where it would rather peek.
	Degraded bool   `json:"degraded"`
	Reason   string `json:"reason,omitempty"`
	// LocalFallbacks counts requests served by local computation because
	// the key's owner was unreachable.
	LocalFallbacks uint64               `json:"localFallbacks"`
	Replicas       []string             `json:"replicas"`
	Peers          []cluster.PeerStatus `json:"peers"`
}

func (s *server) clusterStatsSnapshot() *clusterStats {
	if s.cluster == nil {
		return nil
	}
	deg, reason := s.cluster.Degraded()
	replicas := s.cluster.Peers()
	sort.Strings(replicas)
	return &clusterStats{
		Self:           s.cluster.Self(),
		Degraded:       deg,
		Reason:         reason,
		LocalFallbacks: s.clusterFallbacks.Load(),
		Replicas:       replicas,
		Peers:          s.cluster.Status(),
	}
}
