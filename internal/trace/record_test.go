package trace

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// synthEvents builds a deterministic synthetic stream of n events; every
// snapEvery-th event carries a snapshot whose length varies so the sparse
// side-table sees uneven entries. snapEvery <= 0 disables snapshots.
func synthEvents(n int, snapEvery int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		ev := Event{
			Func:  int32(i % 7),
			ID:    int32(i % 113),
			Frame: int64(i / 13),
			Addr:  int64(i * 3),
			Val:   int64(i)*2654435761 + 17,
			Taken: i%3 == 0,
		}
		if snapEvery > 0 && i%snapEvery == 0 {
			snap := make([]int64, 1+i%5)
			for j := range snap {
				snap[j] = int64(i + j)
			}
			ev.Snapshot = snap
		}
		evs[i] = ev
	}
	return evs
}

// record captures evs through a Recorder, reusing one Event value the way a
// real producer does.
func record(evs []Event) *Recording {
	r := NewRecorder(nil)
	var scratch Event
	for i := range evs {
		scratch = evs[i]
		if evs[i].Snapshot != nil {
			scratch.Snapshot = append([]int64(nil), evs[i].Snapshot...)
		}
		r.Event(&scratch)
	}
	return r.Finalize(int64(len(evs)))
}

// collect replays rec into a copying handler.
func collect(t *testing.T, rec *Recording) []Event {
	t.Helper()
	var got []Event
	err := rec.Replay(context.Background(), HandlerFunc(func(ev *Event) {
		cp := *ev
		if ev.Snapshot != nil {
			cp.Snapshot = append([]int64(nil), ev.Snapshot...)
		}
		got = append(got, cp)
	}))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestRecordingRoundTrip(t *testing.T) {
	// Cross two chunk boundaries so chunk handoff and the per-chunk
	// snapshot tables are both exercised.
	evs := synthEvents(2*ChunkEvents+1234, 97)
	rec := record(evs)
	if rec.Len() != int64(len(evs)) || rec.Steps() != int64(len(evs)) || !rec.Complete() {
		t.Fatalf("Len=%d Steps=%d Complete=%v; want %d/%d/true", rec.Len(), rec.Steps(), rec.Complete(), len(evs), len(evs))
	}
	got := collect(t, rec)
	if len(got) != len(evs) {
		t.Fatalf("replayed %d events; want %d", len(got), len(evs))
	}
	for i := range evs {
		if !reflect.DeepEqual(got[i], evs[i]) {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], evs[i])
		}
	}
}

func TestRecordingReplayLimit(t *testing.T) {
	evs := synthEvents(5000, 0)
	rec := record(evs)
	var n int64
	var rp Replayer
	if err := rp.Replay(context.Background(), rec, HandlerFunc(func(*Event) { n++ }), 777); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != 777 {
		t.Fatalf("limit replay fed %d events; want 777", n)
	}
}

func TestReplayCtxCancel(t *testing.T) {
	evs := synthEvents(100000, 0)
	rec := record(evs)
	ctx, cancel := context.WithCancel(context.Background())
	var n int64
	err := rec.Replay(ctx, HandlerFunc(func(*Event) {
		n++
		if n == 2000 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	if n >= rec.Len() || n < 2000 {
		t.Fatalf("cancellation fed %d of %d events", n, rec.Len())
	}
}

func TestRecordingTruncate(t *testing.T) {
	evs := synthEvents(ChunkEvents+500, 33)
	rec := record(evs)
	cut := int64(ChunkEvents + 10)
	rec.Truncate(cut)
	if rec.Len() != cut {
		t.Fatalf("Len after truncate = %d; want %d", rec.Len(), cut)
	}
	if rec.Steps() == rec.Len() {
		t.Fatal("truncation should leave Steps() != Len()")
	}
	got := collect(t, rec)
	if int64(len(got)) != cut {
		t.Fatalf("replayed %d events after truncate; want %d", len(got), cut)
	}
	for i := range got {
		want := evs[i]
		if want.Snapshot == nil {
			want.Snapshot = nil
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("event %d after truncate: got %+v want %+v", i, got[i], want)
		}
	}
}

func TestRecordingChecksum(t *testing.T) {
	evs := synthEvents(10000, 50)
	a, b := record(evs), record(evs)
	if a.Checksum() != b.Checksum() {
		t.Fatal("identical recordings disagree on checksum")
	}
	evs[5000].Val++
	c := record(evs)
	if a.Checksum() == c.Checksum() {
		t.Fatal("single-word mutation left the checksum unchanged")
	}
	a.Truncate(9000)
	if a.Checksum() == b.Checksum() {
		t.Fatal("truncation left the checksum unchanged")
	}
}

// TestRecordingChecksumMemoInvalidation exercises the checksum memo's
// lifecycle under -race: many concurrent Checksum callers while the memo is
// cold (racing to publish it) and warm (reading it), then Truncate and
// Release invalidations with fresh concurrent readers after each. The
// mutations themselves are sole-owner operations (the type's contract), so
// they run alone between WaitGroup barriers; the shared state under test is
// the sum/sumOK pair.
func TestRecordingChecksumMemoInvalidation(t *testing.T) {
	const readers = 8
	evs := synthEvents(2*ChunkEvents+100, 25)
	rec, twin := record(evs), record(evs)

	// checksums fans out concurrent Checksum calls and asserts they agree.
	checksums := func(r *Recording) uint64 {
		t.Helper()
		got := make([]uint64, readers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = r.Checksum()
			}(i)
		}
		wg.Wait()
		for i := 1; i < readers; i++ {
			if got[i] != got[0] {
				t.Fatalf("concurrent checksums disagree: %#x vs %#x", got[i], got[0])
			}
		}
		return got[0]
	}

	full := checksums(rec) // memo cold: every reader computes, one publishes
	if full != twin.Checksum() {
		t.Fatal("identical recordings disagree on checksum")
	}
	if again := checksums(rec); again != full { // memo warm: pure loads
		t.Fatalf("memoized checksum %#x != computed %#x", again, full)
	}

	cut := int64(ChunkEvents + 7)
	rec.Truncate(cut)
	truncated := checksums(rec)
	if truncated == full {
		t.Fatal("truncation did not invalidate the checksum memo")
	}
	twin.Truncate(cut)
	if truncated != twin.Checksum() {
		t.Fatal("identically truncated recordings disagree on checksum")
	}

	rec.Release()
	released := checksums(rec)
	if released == truncated {
		t.Fatal("release did not invalidate the checksum memo")
	}
	if released != (&Recording{}).Checksum() {
		t.Fatal("released recording's checksum differs from an empty recording's")
	}
	twin.Release()
}

func TestRecordingBytesAndRelease(t *testing.T) {
	rec := record(synthEvents(3*ChunkEvents, 11))
	if rec.Bytes() <= 0 {
		t.Fatal("finished recording reports zero bytes")
	}
	rec.Release()
	rec.Release() // idempotent
	if rec.Len() != 0 || rec.Bytes() != 0 {
		t.Fatalf("released recording still holds %d events / %d bytes", rec.Len(), rec.Bytes())
	}
	// Recycled chunks must come back clean for the next capture.
	evs := synthEvents(ChunkEvents/2, 7)
	again := record(evs)
	got := collect(t, again)
	for i := range evs {
		if !reflect.DeepEqual(got[i], evs[i]) {
			t.Fatalf("post-release capture corrupt at event %d", i)
		}
	}
}

func TestRecorderAbort(t *testing.T) {
	r := NewRecorder(nil)
	evs := synthEvents(100, 10)
	for i := range evs {
		r.Event(&evs[i])
	}
	r.Abort() // must not panic, and must be safe to abort twice
	r.Abort()
}

// TestRecorderWindow reads a capture in place while it fills, the way an
// engine bank does: At and Snapshot agree with the events appended so far,
// and Trim drops whole chunks below its bound and reuses them for later
// events without disturbing anything at or past the bound.
func TestRecorderWindow(t *testing.T) {
	evs := synthEvents(3*ChunkEvents+77, 19)
	r := NewWindow()
	win := r.Recording()
	a0, _ := ChunkCounts()
	low := int64(0)
	for i := range evs {
		r.Event(&evs[i])
		if i%1000 != 999 {
			continue
		}
		for p := low; p <= int64(i); p += 97 {
			want := evs[p]
			v := win.At(p)
			got := Event{Func: v.Func(), ID: v.ID(), Frame: v.Frame(), Addr: v.Addr(), Val: v.Val(), Taken: v.Taken(), Snapshot: win.Snapshot(p)}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("event %d read in place: got %+v want %+v", p, got, want)
			}
		}
		low = max(0, int64(i)-5000)
		r.Trim(low)
	}
	if a1, _ := ChunkCounts(); a1-a0 > 2 {
		t.Errorf("a trimmed window allocated %d chunks; want at most 2 (the rest reused)", a1-a0)
	}
	r.Abort()
}

// TestReplaySteadyStateAllocs mirrors arch.TestSpeculationSteadyStateAllocs:
// replaying a warm recording through a persistent Replayer allocates
// nothing.
func TestReplaySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	rec := record(synthEvents(ChunkEvents+999, 61))
	var sink int64
	h := HandlerFunc(func(ev *Event) { sink += ev.Val + int64(len(ev.Snapshot)) })
	var rp Replayer
	ctx := context.Background()
	if err := rp.Replay(ctx, rec, h, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := rp.Replay(ctx, rec, h, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state replay allocates %.1f times per pass; want 0", allocs)
	}
	_ = sink
}
