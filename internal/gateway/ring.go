// Consistent-hash routing for the gateway. The Router abstraction is
// deliberately narrow — given a job's canonical key and the current
// per-replica health, name the replica — so richer topologies (the
// Benes-style control-optimal networks of the related work) can back a
// future tier without touching the fan-out machinery.

package gateway

import (
	"fmt"
	"sort"
)

// Router maps canonical job keys onto replica indices. Implementations
// must be safe for concurrent use and stateless with respect to health:
// the gateway passes the current health view on every call, so a router
// never caches liveness.
type Router interface {
	// Replicas returns the number of replica slots the router was built
	// for.
	Replicas() int
	// Route returns the replica that should own key, skipping replicas
	// for which healthy reports false. ok is false when no healthy
	// replica exists. Routing must be deterministic: the same key against
	// the same health view always names the same replica.
	Route(key string, healthy func(int) bool) (replica int, ok bool)
}

// fnv1a hashes a string with 64-bit FNV-1a, cheap and dependency-free.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Ring is a consistent-hash ring over replica indices. Each replica owns
// a set of virtual points on the ring; a key belongs to the first point
// clockwise from its hash. Virtual points smooth the key distribution and
// keep reassignment local when a replica leaves: only the keys whose
// owning point belonged to the dead replica move, each to its ring
// successor, so the other replicas' memo and plan caches stay hot.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int
}

// DefaultVirtualNodes is the per-replica virtual point count used by
// NewRing when vnodes <= 0; 64 keeps the max/min load ratio within a few
// percent for small clusters.
const DefaultVirtualNodes = 64

// NewRing builds a consistent-hash ring over replicas indices 0..n-1 with
// the given number of virtual points per replica (vnodes <= 0 means
// DefaultVirtualNodes). It panics if n <= 0 — a gateway without replicas
// is a configuration error, not a runtime condition.
func NewRing(n, vnodes int) *Ring {
	if n <= 0 {
		panic("gateway: NewRing needs at least one replica")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{replicas: n, points: make([]ringPoint, 0, n*vnodes)}
	for rep := 0; rep < n; rep++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    fnv1a(fmt.Sprintf("replica-%d/vnode-%d", rep, v)),
				replica: rep,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Replicas implements Router.
func (r *Ring) Replicas() int { return r.replicas }

// Route implements Router: binary-search the first virtual point at or
// clockwise past the key's hash, then walk the ring until a healthy
// replica owns a point. The walk visits each replica at most once, so a
// fully unhealthy cluster answers ok=false instead of spinning.
func (r *Ring) Route(key string, healthy func(int) bool) (int, bool) {
	h := fnv1a(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[int]bool, r.replicas)
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.replica] {
			continue
		}
		if healthy == nil || healthy(p.replica) {
			return p.replica, true
		}
		seen[p.replica] = true
		if len(seen) == r.replicas {
			break
		}
	}
	return 0, false
}
