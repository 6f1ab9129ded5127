package artifact

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
)

// TestIntegrityEvictsMutatedRunStats: cached values are shared and must be
// treated as read-only; with integrity on, a caller that mutates one is
// caught at the next lookup — the poisoned entry is evicted and recomputed,
// never served.
func TestIntegrityEvictsMutatedRunStats(t *testing.T) {
	c := NewBounded(16)
	c.EnableIntegrity()
	p := tinyProgram(1)
	cfg := arch.DefaultConfig()
	calls := 0
	run := func() (*arch.RunStats, error) { calls++; return &arch.RunStats{Cycles: 42}, nil }

	first, err := simulateOne(c, p, cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	first.Cycles = 999 // corrupt the shared artifact in place

	second, err := simulateOne(c, p, cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("corrupted entry was served from cache (computed %d times, want 2)", calls)
	}
	if second.Cycles != 42 {
		t.Fatalf("recomputed stats wrong: cycles = %d", second.Cycles)
	}
	if got := c.Stats().IntegrityEvictions; got != 1 {
		t.Fatalf("IntegrityEvictions = %d, want 1", got)
	}

	// The recomputed entry is intact: the next lookup is a clean hit.
	third, err := simulateOne(c, p, cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 || third != second {
		t.Fatalf("clean entry not served from cache (calls=%d)", calls)
	}
}

// TestIntegrityEvictsMutatedProgram: the program checksum hashes the
// disassembly fresh (not the memoized Fingerprint, which would report the
// pre-corruption hash), so in-place mutation of a cached program is caught.
func TestIntegrityEvictsMutatedProgram(t *testing.T) {
	c := NewBounded(16)
	c.EnableIntegrity()
	calls := 0
	buildProg := func() (*ir.Program, error) { calls++; return tinyProgram(7), nil }
	p1, err := c.Program("bench", 1, "opt", buildProg)
	if err != nil {
		t.Fatal(err)
	}
	p1.Funcs[0].Name = "mutated" // corrupt the cached program's content

	p2, err := c.Program("bench", 1, "opt", buildProg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("mutated program served from cache (built %d times, want 2)", calls)
	}
	if p2.Funcs[0].Name == "mutated" {
		t.Fatal("recomputed program still carries the mutation")
	}
	if got := c.Stats().IntegrityEvictions; got != 1 {
		t.Fatalf("IntegrityEvictions = %d, want 1", got)
	}
}

// TestIntegrityOffByDefault: the zero cache skips verification — local
// sweeps keep their hot path — so a mutation goes unnoticed.
func TestIntegrityOffByDefault(t *testing.T) {
	c := NewBounded(16)
	p := tinyProgram(2)
	cfg := arch.DefaultConfig()
	calls := 0
	run := func() (*arch.RunStats, error) { calls++; return &arch.RunStats{Cycles: 5}, nil }
	first, err := simulateOne(c, p, cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	first.Cycles = 11
	if _, err := simulateOne(c, p, cfg, run); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("integrity-off cache recomputed (%d calls)", calls)
	}
	if c.Stats().IntegrityEvictions != 0 {
		t.Fatal("integrity evictions counted with integrity off")
	}
}
