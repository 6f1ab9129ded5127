package artifact

// Tests for the recording artifact kind: byte-bounded LRU retention,
// per-kind hit/miss accounting, integrity checksums and bulk release.

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/trace"
)

// syntheticRecording captures n synthetic events into a Recording.
func syntheticRecording(n int) *trace.Recording { return recordInto(nil, n) }

// recordInto captures n synthetic events into a Recording whose chunks
// come from src.
func recordInto(src trace.ChunkSource, n int) *trace.Recording {
	r := trace.NewRecorder(src)
	ev := &trace.Event{}
	for i := 0; i < n; i++ {
		ev.Func = 0
		ev.ID = int32(i % 5)
		ev.Frame = int64(i / 9)
		ev.Val = int64(i) * 31
		r.Event(ev)
	}
	return r.Finalize(int64(n))
}

func TestRecordingCacheCoalesces(t *testing.T) {
	c := &Cache{}
	p := tinyProgram(1)
	calls := 0
	get := func() (*trace.Recording, error) {
		return c.Recording(p, 0, func() (*trace.Recording, error) {
			calls++
			return syntheticRecording(1000), nil
		})
	}
	a, err := get()
	if err != nil || a == nil {
		t.Fatalf("first capture: %v", err)
	}
	b, err := get()
	if err != nil {
		t.Fatalf("second capture: %v", err)
	}
	if a != b || calls != 1 {
		t.Fatalf("recording not coalesced: %d captures", calls)
	}
	// A different step limit is a different trace identity.
	if _, err := c.Recording(p, 500, func() (*trace.Recording, error) {
		calls++
		return syntheticRecording(500), nil
	}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.RecordingHits != 1 || st.RecordingMisses != 2 {
		t.Fatalf("recording stats = %d hits / %d misses; want 1/2", st.RecordingHits, st.RecordingMisses)
	}
	if st.Bytes != a.Bytes()+syntheticRecording(500).Bytes() {
		t.Fatalf("resident bytes %d do not match the stored recordings", st.Bytes)
	}
}

// TestRecordingJoinsCountInFlight: a lookup that arrives while the
// capture still runs is a hit and a join; one that arrives after it
// completed is a hit only.
func TestRecordingJoinsCountInFlight(t *testing.T) {
	c := &Cache{}
	p := tinyProgram(1)
	started, finish := make(chan struct{}), make(chan struct{})
	lease := func(capture func(trace.ChunkSource) (*trace.Recording, error)) chan error {
		done := make(chan error, 1)
		go func() {
			rec, err := c.LeaseRecording(p, 0, capture)
			if err == nil {
				rec.Release()
			}
			done <- err
		}()
		return done
	}
	unexpected := func(trace.ChunkSource) (*trace.Recording, error) {
		return nil, errors.New("a second capture ran")
	}
	owner := lease(func(src trace.ChunkSource) (*trace.Recording, error) {
		close(started)
		<-finish
		return recordInto(src, 1000), nil
	})
	<-started
	joiner := lease(unexpected)
	for c.Stats().RecordingHits == 0 {
		runtime.Gosched()
	}
	close(finish)
	for _, done := range []chan error{owner, joiner} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-lease(unexpected); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.RecordingMisses != 1 || st.RecordingHits != 2 || st.RecordingJoins != 1 {
		t.Fatalf("recording stats = %d misses / %d hits / %d joins; want 1/2/1", st.RecordingMisses, st.RecordingHits, st.RecordingJoins)
	}
}

func TestByteBoundEvictsRecordings(t *testing.T) {
	one := syntheticRecording(10).Bytes()
	// Room for roughly two recordings; storing four must evict.
	c := NewBoundedBytes(0, 2*one+one/2)
	progs := []int64{1, 2, 3, 4}
	for _, imm := range progs {
		if _, err := c.Recording(tinyProgram(imm), 0, func() (*trace.Recording, error) {
			return syntheticRecording(10), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("byte bound never evicted")
	}
	if st.Bytes > 2*one+one/2 {
		t.Fatalf("resident bytes %d exceed the bound %d", st.Bytes, 2*one+one/2)
	}
	if st.Bytes <= 0 {
		t.Fatalf("resident bytes %d; want > 0", st.Bytes)
	}
}

func TestByteBoundLeavesUnsizedAlone(t *testing.T) {
	c := NewBoundedBytes(0, 1) // absurdly small byte bound
	for i := int64(0); i < 5; i++ {
		imm := i
		if _, err := c.Program("p", int(imm), "opt", func() (*ir.Program, error) { return tinyProgram(imm), nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions != 0 || st.Entries != 5 {
		t.Fatalf("unsized artifacts were evicted by the byte bound: %+v", st)
	}
}

// TestByteBoundEvictsOnlySizedEntries: recordings pushing the cache over
// its byte bound evict recordings only. The program and its compilation
// sit at the cold end of the LRU list but count no bytes, so dropping them
// would free nothing and force a rebuild on the next request.
func TestByteBoundEvictsOnlySizedEntries(t *testing.T) {
	one := syntheticRecording(10).Bytes()
	c := NewBoundedBytes(4096, 2*one+one/2)
	builds, compiles := 0, 0
	program := func() *ir.Program {
		p, err := c.Program("p", 1, "opt", func() (*ir.Program, error) { builds++; return tinyProgram(100), nil })
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	compile := func(p *ir.Program) {
		if _, err := c.CompileResult(p, "default", func() (*compiler.Result, error) {
			compiles++
			return &compiler.Result{Program: p}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	compile(program())
	for imm := int64(1); imm <= 4; imm++ {
		if _, err := c.Recording(tinyProgram(imm), 0, func() (*trace.Recording, error) {
			return syntheticRecording(10), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Room for two of the four recordings: the two oldest go.
	if got := c.Evictions(); got != 2 {
		t.Fatalf("Evictions() = %d; want 2 (recordings only)", got)
	}
	compile(program())
	if builds != 1 || compiles != 1 {
		t.Fatalf("program built %d times, compiled %d times; want 1 each (never evicted)", builds, compiles)
	}
}

func TestRecordingIntegrityEviction(t *testing.T) {
	c := &Cache{}
	c.EnableIntegrity()
	p := tinyProgram(9)
	calls := 0
	get := func() (*trace.Recording, error) {
		return c.Recording(p, 0, func() (*trace.Recording, error) {
			calls++
			return syntheticRecording(2000), nil
		})
	}
	rec, err := get()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored recording in place; the next lookup must detect
	// the drift, evict it and recompute instead of serving it.
	rec.Truncate(1000)
	again, err := get()
	if err != nil {
		t.Fatal(err)
	}
	if again == rec || calls != 2 {
		t.Fatalf("corrupted recording was served (calls=%d)", calls)
	}
	if got := c.Stats().IntegrityEvictions; got != 1 {
		t.Fatalf("IntegrityEvictions = %d; want 1", got)
	}
}

// TestReleaseRecordings: bulk release evicts every recording and nothing
// else. A leased recording stays readable until its lease ends and is
// recycled then; the key is recomputable afterwards.
func TestReleaseRecordings(t *testing.T) {
	c := &Cache{}
	p := tinyProgram(3)
	rec, err := c.LeaseRecording(p, 0, func(src trace.ChunkSource) (*trace.Recording, error) {
		return recordInto(src, 100), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Program("keep", 1, "opt", func() (*ir.Program, error) { return tinyProgram(8), nil }); err != nil {
		t.Fatal(err)
	}
	c.ReleaseRecordings()
	if got := c.Stats().Entries; got != 1 {
		t.Fatalf("release dropped non-recording entries: %d left; want 1", got)
	}
	if rec.Len() != 100 {
		t.Fatal("release emptied a recording that is still leased")
	}
	rec.Release()
	if rec.Len() != 0 {
		t.Fatal("the last lease ended without recycling the evicted recording")
	}
	st := c.Stats()
	if st.Bytes != 0 {
		t.Fatalf("resident bytes %d after release; want 0", st.Bytes)
	}
	// The recording key must be recomputable afterwards.
	calls := 0
	if _, err := c.Recording(p, 0, func() (*trace.Recording, error) {
		calls++
		return syntheticRecording(100), nil
	}); err != nil || calls != 1 {
		t.Fatalf("recompute after release: err=%v calls=%d", err, calls)
	}
}
