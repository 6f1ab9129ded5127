package artifact

// Tests for recording leases and chunk reuse: eviction drops only the
// cache's reference, the last reference recycles the chunks, recordings
// handed out without a lease are never recycled, and a capture's chunks
// count against the byte bound as they fill.

import (
	"context"
	"testing"

	"repro/internal/trace"
)

// events replays rec into a slice for content comparisons.
func events(t *testing.T, rec *trace.Recording) []trace.Event {
	t.Helper()
	var out []trace.Event
	if err := rec.Replay(context.Background(), trace.HandlerFunc(func(ev *trace.Event) {
		out = append(out, *ev)
	})); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLeaseAfterLastReference: once a recording's last reference is gone
// its chunks may hold another capture, so it can never be leased again; a
// lookup of its key captures afresh.
func TestLeaseAfterLastReference(t *testing.T) {
	c := &Cache{}
	p := tinyProgram(21)
	calls := 0
	lease := func() *trace.Recording {
		rec, err := c.LeaseRecording(p, 0, func(src trace.ChunkSource) (*trace.Recording, error) {
			calls++
			return recordInto(src, 300), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	rec := lease()
	c.ReleaseRecordings() // the cache's reference
	rec.Release()         // the lease: the last reference
	if rec.Retain() {
		t.Fatal("a recording whose last reference was dropped was leased again")
	}
	again := lease()
	defer again.Release()
	if again == rec || calls != 2 || again.Len() != 300 {
		t.Fatalf("lookup after recycling: same=%v calls=%d len=%d; want a fresh capture", again == rec, calls, again.Len())
	}
}

// TestUnleasedRecordingNeverRecycled: Recording hands out no lease, so
// eviction must not recycle its chunks even when a capture is hungry for
// them; its contents stay intact.
func TestUnleasedRecordingNeverRecycled(t *testing.T) {
	c := NewBoundedBytes(0, 3*trace.ChunkBytes)
	n := 2*trace.ChunkEvents + 10
	rec, err := c.Recording(tinyProgram(22), 0, func() (*trace.Recording, error) {
		return syntheticRecording(n), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := events(t, rec)
	// A second capture overflows the bound and evicts rec.
	other, err := c.LeaseRecording(tinyProgram(23), 0, func(src trace.ChunkSource) (*trace.Recording, error) {
		return recordInto(src, n), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Release()
	if c.Evictions() == 0 {
		t.Fatal("the second capture evicted nothing; the test does not exercise recycling")
	}
	if rec.Len() != int64(n) {
		t.Fatalf("unleased recording emptied to %d events", rec.Len())
	}
	got := events(t, rec)
	for i := range want {
		if got[i].Val != want[i].Val || got[i].ID != want[i].ID || got[i].Frame != want[i].Frame {
			t.Fatalf("unleased recording overwritten at event %d", i)
		}
	}
}

// TestCaptureAloneExceedsBound: a capture larger than the whole byte bound
// has nothing to evict but itself; it still completes, serves its caller
// under a lease, and is evicted once complete.
func TestCaptureAloneExceedsBound(t *testing.T) {
	c := NewBoundedBytes(0, 2*trace.ChunkBytes)
	n := 5 * trace.ChunkEvents
	var peak int64
	rec, err := c.LeaseRecording(tinyProgram(24), 0, func(src trace.ChunkSource) (*trace.Recording, error) {
		r := trace.NewRecorder(src)
		ev := &trace.Event{}
		for i := 0; i < n; i++ {
			ev.ID, ev.Val = int32(i%5), int64(i)
			r.Event(ev)
			if i%trace.ChunkEvents == 0 {
				peak = max(peak, c.Stats().CaptureBytes)
			}
		}
		return r.Finalize(int64(n)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak < 4*trace.ChunkBytes {
		t.Errorf("running capture charged at most %d bytes; want its chunks counted as they fill", peak)
	}
	if rec.Len() != int64(n) || !rec.Complete() {
		t.Fatalf("oversized capture served %d events (complete=%v); want %d", rec.Len(), rec.Complete(), n)
	}
	for i, ev := range events(t, rec) {
		if ev.Val != int64(i) {
			t.Fatalf("event %d holds %d", i, ev.Val)
		}
	}
	st := c.Stats()
	if st.Bytes != 0 || st.CaptureBytes != 0 || st.Evictions != 1 {
		t.Fatalf("after completion: %d resident / %d capture bytes, %d evictions; want 0/0/1", st.Bytes, st.CaptureBytes, st.Evictions)
	}
	rec.Release()
}

// TestCaptureReusesEvictedChunks: a capture that overflows the bound evicts
// the least recently used recording and, once nobody leases it, fills its
// freed chunks instead of allocating.
func TestCaptureReusesEvictedChunks(t *testing.T) {
	c := NewBoundedBytes(0, 3*trace.ChunkBytes)
	n := 2*trace.ChunkEvents - 5
	first, err := c.LeaseRecording(tinyProgram(25), 0, func(src trace.ChunkSource) (*trace.Recording, error) {
		return recordInto(src, n), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	first.Release() // only the cache holds it now
	alloc0, reused0 := trace.ChunkCounts()
	second, err := c.LeaseRecording(tinyProgram(26), 0, func(src trace.ChunkSource) (*trace.Recording, error) {
		return recordInto(src, n), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Release()
	alloc1, reused1 := trace.ChunkCounts()
	if first.Len() != 0 {
		t.Fatal("the evicted, unleased recording was not recycled")
	}
	if reused1-reused0 < 1 || alloc1-alloc0 > 1 {
		t.Errorf("second capture allocated %d and reused %d chunks; want the evicted chunks reused", alloc1-alloc0, reused1-reused0)
	}
	for i, ev := range events(t, second) {
		if ev.ID != int32(i%5) || ev.Val != int64(i)*31 {
			t.Fatalf("reused chunk corrupt at event %d: %+v", i, ev)
		}
	}
}
