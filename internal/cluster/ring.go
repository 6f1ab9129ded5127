package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/service"
)

// RouteKey is the cluster routing identity of a request: the benchmark and
// scale determine the generated program bit-for-bit, so hashing them is
// hashing the program fingerprint one compile earlier. Every request for the
// same program — any configuration, any sweep family — routes to the same
// node, which is what lets that node's recording cache interpret the program
// once and replay it for every variant the cluster sees.
func RouteKey(benchmark string, scale int) string {
	return fmt.Sprintf("%s/%d", benchmark, service.ScaleOf(scale))
}

// Ring is a consistent-hash ring over named nodes. Each member is projected
// onto the ring at `replicas` virtual points (FNV-64a of "name#i"), and a
// key's owner is the first alive member clockwise from the key's hash.
// Members can be marked dead without being removed: the ring keeps their
// points, so a revived node reclaims exactly the arcs it owned before —
// membership changes move only the keys they must (the consistent-hashing
// contract), and two ring views that agree on the member set and the alive
// set agree on every owner.
//
// Ring is safe for concurrent use.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []ringPoint // sorted by hash
	alive    map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultRingReplicas is the virtual-node count used when NewRing is given
// replicas <= 0. 64 points per node keeps the ownership split of a 3-node
// ring within a few percent of even.
const DefaultRingReplicas = 64

// NewRing builds a ring over the given member names, all initially alive.
func NewRing(members []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultRingReplicas
	}
	r := &Ring{replicas: replicas, alive: make(map[string]bool, len(members))}
	for _, m := range members {
		r.addLocked(m)
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// addLocked projects one member onto the ring (callers sort r.points).
func (r *Ring) addLocked(name string) {
	if _, ok := r.alive[name]; ok {
		return
	}
	r.alive[name] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", name, i)), node: name})
	}
}

// Add projects a new member onto the ring at runtime — the gossip-join
// path. Adding an existing member is a no-op (in particular it does not
// resurrect a dead member; use SetAlive for state). Because the member's
// virtual points depend only on its name, every node that learns of the
// join converges on the identical ring.
func (r *Ring) Add(name string) {
	if name == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.alive[name]; ok {
		return
	}
	r.addLocked(name)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// Alive returns the currently-alive member names, sorted.
func (r *Ring) Alive() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.alive))
	for m, ok := range r.alive {
		if ok {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// IsAlive reports whether name is a member currently marked alive.
func (r *Ring) IsAlive(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.alive[name]
}

// SetAlive marks a member alive or dead. Marking dead reshards its arcs to
// their clockwise successors; marking alive hands exactly those arcs back.
// Unknown names are ignored (members enter the ring only through NewRing
// or Add).
func (r *Ring) SetAlive(name string, alive bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.alive[name]; ok {
		r.alive[name] = alive
	}
}

// Owner returns the alive member owning key, walking clockwise from the
// key's hash past dead members. ok is false when no member is alive.
func (r *Ring) Owner(key string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if r.alive[p.node] {
			return p.node, true
		}
	}
	return "", false
}

// Successors returns the first n distinct alive members clockwise from
// key's hash — the replica set for an object stored under key, owner
// first. Every node with the same member and alive sets computes the
// identical list, which is what makes "who holds a copy" answerable
// without any coordination. Fewer than n members may be returned when the
// ring has fewer alive members.
func (r *Ring) Successors(key string, n int) []string {
	if n <= 0 {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] || !r.alive[p.node] {
			continue
		}
		seen[p.node] = true
		out = append(out, p.node)
	}
	return out
}
