// Package cluster grows the benchmark-as-a-service daemon
// (internal/service) into a shared-nothing multi-node cluster — the
// paper's §V-B deployment model at production scale. A Coordinator
// consistent-hashes submitted jobs across N worker nodes (each a plain
// internal/service daemon), speaks to them over HTTP with the wire
// discipline the netdriver established (typed ErrTransient/ErrFatal
// errors, per-op deadlines, seeded capped-exponential retry/backoff),
// replicates their append-only result stores by anti-entropy catch-up,
// serves a merged cluster-wide leaderboard, and re-routes work when a
// node dies or leaves. Dispatch is idempotent end to end: every job
// carries a coordinator-assigned ID the workers dedupe, so an ambiguous
// failure can never double-run a benchmark.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/stats"
)

// Ring is a consistent-hash ring: keys hash to points on a circle, each
// owned by the nearest clockwise node point. Every node contributes
// `replicas` virtual points so load spreads evenly, and adding or
// removing one node re-routes only the keys inside its own arcs — the
// property that keeps a node leave (or crash) from reshuffling the whole
// cluster's job placement.
//
// Ring is not safe for concurrent use; the Coordinator guards it with
// its mutex.
type Ring struct {
	replicas int
	points   []point // sorted by (hash, node)
	nodes    map[string]bool
}

type point struct {
	hash uint64
	node string
}

// NewRing builds an empty ring with the given virtual-point count per
// node (<= 0 defaults to 64).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = 64
	}
	return &Ring{replicas: replicas, nodes: make(map[string]bool)}
}

// ringHash is the ring's stable key hash: FNV-64a (deterministic across
// processes and runs, unlike maphash) put through a splitmix64 finalizer.
// The finalizer matters: bare FNV barely disperses short near-identical
// keys — sequential job IDs like "c1".."c6" differ only in their last
// byte and would land within a ~2^43-wide sliver of the 2^64 ring,
// clustering every job onto one node's arc.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return stats.Mix64(h.Sum64())
}

// Add inserts node's virtual points. Adding a present node is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, point{ringHash(node + "#" + strconv.Itoa(i)), node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Remove deletes node's virtual points. Removing an absent node is a
// no-op.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the number of nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the ring's nodes, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner returns the node owning key: the first ring point clockwise from
// the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (owner string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's smallest point owns the top arc
	}
	return r.points[i].node, true
}
