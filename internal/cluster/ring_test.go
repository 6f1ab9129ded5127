package cluster

import (
	"fmt"
	"testing"
)

func TestRouteKeyDefaultsScale(t *testing.T) {
	if k := RouteKey("parser", 0); k != "parser/1" {
		t.Fatalf("RouteKey(parser, 0) = %q", k)
	}
	if k := RouteKey("parser", -3); k != "parser/1" {
		t.Fatalf("RouteKey(parser, -3) = %q", k)
	}
	if k := RouteKey("mcf", 4); k != "mcf/4" {
		t.Fatalf("RouteKey(mcf, 4) = %q", k)
	}
}

func ringTestKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = RouteKey(fmt.Sprintf("bench%03d", i%40), 1+i/40)
	}
	return keys
}

func TestRingOwnersAgreeAcrossViews(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"}, 0)
	b := NewRing([]string{"n3", "n1", "n2"}, 0) // construction order is irrelevant
	for _, k := range ringTestKeys(400) {
		oa, oka := a.Owner(k)
		ob, okb := b.Owner(k)
		if !oka || !okb || oa != ob {
			t.Fatalf("views disagree on %q: (%s,%v) vs (%s,%v)", k, oa, oka, ob, okb)
		}
	}
}

func TestRingDeadReshardMovesOnlyDeadArcs(t *testing.T) {
	r := NewRing([]string{"n1", "n2", "n3"}, 0)
	keys := ringTestKeys(600)
	orig := make(map[string]string, len(keys))
	owned := map[string]int{}
	for _, k := range keys {
		o, ok := r.Owner(k)
		if !ok {
			t.Fatalf("no owner for %q", k)
		}
		orig[k] = o
		owned[o]++
	}
	// 64 virtual points per node keep the split close enough to even that
	// every node owns some of 600 keys.
	for _, n := range []string{"n1", "n2", "n3"} {
		if owned[n] == 0 {
			t.Fatalf("node %s owns nothing: %v", n, owned)
		}
	}

	r.SetAlive("n2", false)
	for _, k := range keys {
		o, ok := r.Owner(k)
		if !ok || o == "n2" {
			t.Fatalf("dead node still owns %q (%s, %v)", k, o, ok)
		}
		if orig[k] != "n2" && o != orig[k] {
			t.Fatalf("key %q moved from %s to %s though its owner is alive", k, orig[k], o)
		}
	}

	// Revival reclaims exactly the original arcs.
	r.SetAlive("n2", true)
	for _, k := range keys {
		if o, _ := r.Owner(k); o != orig[k] {
			t.Fatalf("after revival %q owned by %s, want %s", k, o, orig[k])
		}
	}
}

func TestRingOwnerNoneAlive(t *testing.T) {
	r := NewRing([]string{"a", "b"}, 8)
	r.SetAlive("a", false)
	r.SetAlive("b", false)
	if o, ok := r.Owner("x/1"); ok {
		t.Fatalf("owner %q on a fully dead ring", o)
	}
	if _, ok := NewRing(nil, 0).Owner("x/1"); ok {
		t.Fatal("owner on an empty ring")
	}
	// Unknown names are ignored, not added.
	r.SetAlive("ghost", true)
	if _, ok := r.Owner("x/1"); ok {
		t.Fatal("SetAlive invented a member")
	}
}

// TestRingAddConvergesWithConstruction: a ring grown with Add answers
// identically to one constructed with the full member list — joins need no
// coordination because point positions depend only on the name.
func TestRingAddConvergesWithConstruction(t *testing.T) {
	grown := NewRing([]string{"n1"}, 0)
	grown.Add("n2")
	grown.Add("n3")
	grown.Add("n3") // idempotent
	full := NewRing([]string{"n1", "n2", "n3"}, 0)
	for _, k := range ringTestKeys(400) {
		og, okg := grown.Owner(k)
		of, okf := full.Owner(k)
		if !okg || !okf || og != of {
			t.Fatalf("grown ring disagrees on %q: (%s,%v) vs (%s,%v)", k, og, okg, of, okf)
		}
	}
	// An added node is routable immediately.
	owned := map[string]int{}
	for _, k := range ringTestKeys(600) {
		o, _ := grown.Owner(k)
		owned[o]++
	}
	if owned["n2"] == 0 || owned["n3"] == 0 {
		t.Fatalf("added nodes own nothing: %v", owned)
	}
}

func TestRingSuccessorsDistinctAliveClockwise(t *testing.T) {
	r := NewRing([]string{"n1", "n2", "n3", "n4"}, 0)
	for _, k := range ringTestKeys(100) {
		succ := r.Successors(k, 2)
		if len(succ) != 2 || succ[0] == succ[1] {
			t.Fatalf("Successors(%q, 2) = %v", k, succ)
		}
		if owner, _ := r.Owner(k); succ[0] != owner {
			t.Fatalf("replica set of %q does not start at its owner: %v vs %s", k, succ, owner)
		}
	}
	// Dead members never appear in a replica set.
	r.SetAlive("n2", false)
	for _, k := range ringTestKeys(100) {
		for _, n := range r.Successors(k, 3) {
			if n == "n2" {
				t.Fatalf("dead member in replica set of %q", k)
			}
		}
	}
	// n larger than the alive membership returns everyone alive once.
	succ := r.Successors("x/1", 10)
	if len(succ) != 3 {
		t.Fatalf("Successors over-asked = %v, want the 3 alive members", succ)
	}
	seen := map[string]bool{}
	for _, n := range succ {
		if seen[n] {
			t.Fatalf("duplicate %s in %v", n, succ)
		}
		seen[n] = true
	}
	if r2 := NewRing(nil, 0); r2.Successors("x/1", 2) != nil {
		t.Fatal("successors on an empty ring")
	}
}
