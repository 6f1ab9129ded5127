package multispec

import "testing"

func TestPolicyParseRoundTrip(t *testing.T) {
	for _, k := range []PolicyKind{SchedInOrder, SchedStride, SchedEager} {
		if !k.Valid() {
			t.Errorf("%v not valid", k)
		}
		got, err := ParsePolicy(k.String())
		if err != nil || got != k {
			t.Errorf("ParsePolicy(%q) = %v, %v", k.String(), got, err)
		}
	}
	if k, err := ParsePolicy(""); err != nil || k != SchedInOrder {
		t.Errorf("empty policy = %v, %v; want inorder", k, err)
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
	if PolicyKind(99).Valid() {
		t.Error("PolicyKind(99) reported valid")
	}
}

func TestLiveInParseRoundTrip(t *testing.T) {
	for _, m := range []LiveInMode{LiveInSVP, LiveInSlice} {
		got, err := ParseLiveIn(m.String())
		if err != nil || got != m {
			t.Errorf("ParseLiveIn(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseLiveIn("psychic"); err == nil {
		t.Error("bad live-in mode accepted")
	}
}

func TestSchedulerNormalization(t *testing.T) {
	s := NewScheduler(SchedInOrder, 0, 7)
	if s.Cores != 2 || s.SpecCores() != 1 {
		t.Errorf("zero cores normalized to %d", s.Cores)
	}
	if s.Stride() != 1 {
		t.Errorf("in-order stride = %d, want 1 (stride only applies to SchedStride)", s.Stride())
	}
	if s.EagerSquash() {
		t.Error("in-order must not eager-squash")
	}
	s = NewScheduler(SchedStride, 4, 3)
	if s.Stride() != 3 {
		t.Errorf("stride = %d, want 3", s.Stride())
	}
	s = NewScheduler(SchedStride, 4, 0)
	if s.Stride() != 1 {
		t.Errorf("zero stride normalized to %d, want 1", s.Stride())
	}
	s = NewScheduler(SchedStride, 4, MaxStride)
	if s.Stride() != MaxStride {
		t.Errorf("largest valid stride normalized to %d, want %d", s.Stride(), MaxStride)
	}
	if !NewScheduler(SchedEager, 8, 0).EagerSquash() {
		t.Error("eager policy must eager-squash")
	}
	// A policy that cannot act is the in-order machine.
	for _, c := range []struct {
		kind          PolicyKind
		cores, stride int
		want          PolicyKind
	}{
		{SchedEager, 0, 0, SchedInOrder},
		{SchedEager, 2, 5, SchedInOrder},
		{SchedEager, 4, 0, SchedEager},
		{SchedStride, 0, 0, SchedInOrder},
		{SchedStride, 8, 1, SchedInOrder},
		{SchedStride, 0, 2, SchedStride},
	} {
		if got := NewScheduler(c.kind, c.cores, c.stride).Kind; got != c.want {
			t.Errorf("%s at cores=%d stride=%d runs as %s, want %s", c.kind, c.cores, c.stride, got, c.want)
		}
	}
}

func TestChainCommitArbitration(t *testing.T) {
	var c Chain
	a := c.Spawn()
	b := c.Spawn()
	d := c.Spawn()
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// A younger thread must not commit past its predecessor.
	if err := c.Commit(b); err == nil {
		t.Fatal("out-of-order commit admitted")
	}
	if err := c.Commit(a); err != nil {
		t.Fatalf("in-order commit rejected: %v", err)
	}
	// Squash drops the version and its successors, never predecessors.
	if n := c.Squash(d); n != 1 {
		t.Fatalf("Squash(%d) removed %d, want 1", d, n)
	}
	if n := c.Squash(d); n != 0 {
		t.Fatalf("re-squash removed %d, want 0", n)
	}
	if err := c.Commit(b); err != nil {
		t.Fatalf("commit after squash: %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after draining", c.Len())
	}
}

func TestChainSquashCascade(t *testing.T) {
	var c Chain
	c.Spawn()
	b := c.Spawn()
	c.Spawn()
	c.Spawn()
	if n := c.Squash(b); n != 3 {
		t.Fatalf("Squash removed %d, want 3 (the version and both successors)", n)
	}
	if c.Len() != 1 {
		t.Fatalf("predecessor squashed too: len %d", c.Len())
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset left versions in flight")
	}
}
