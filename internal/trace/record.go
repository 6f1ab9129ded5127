package trace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// This file implements the record-once/replay-many encoding of an event
// stream. A Recording is a compact columnar copy of every Event a producer
// emitted, chunked so capture never needs one giant contiguous allocation
// and so released recordings recycle fixed-size blocks through a pool.
// Columns cost ~33 bytes per event against 56+ for []Event, and the sparse
// snapshot side-table costs nothing for the (vast majority of) events that
// carry no register snapshot.

// chunkEvents is the fixed capacity of one recording chunk. 32 Ki events
// ≈ 1 MiB per chunk of column data: large enough to amortize chunk
// bookkeeping, small enough that pooling them bounds fragmentation.
const chunkEvents = 1 << 15

// replayCtxMask mirrors the interpreter's cadence: the replay context is
// polled every time the low bits of the event index wrap.
const replayCtxMask = 1<<10 - 1

// chunk is one fixed-capacity block of columnar event storage. The event
// columns are allocated once at full capacity and indexed by n; the sparse
// snapshot columns grow per chunk and keep their capacity across pool
// cycles.
type chunk struct {
	n      int32
	funcs  []int32
	ids    []int32
	frames []int64
	addrs  []int64
	vals   []int64
	taken  []bool

	// Sparse snapshot side-table: snapAt holds the chunk-local indices of
	// events that carried a snapshot (ascending), snapOff[i] is the offset
	// of snapshot i in snapData (its end is snapOff[i+1], or len(snapData)
	// for the last one).
	snapAt   []int32
	snapOff  []int32
	snapData []int64
}

var chunkPool = sync.Pool{New: func() any {
	return &chunk{
		funcs:  make([]int32, chunkEvents),
		ids:    make([]int32, chunkEvents),
		frames: make([]int64, chunkEvents),
		addrs:  make([]int64, chunkEvents),
		vals:   make([]int64, chunkEvents),
		taken:  make([]bool, chunkEvents),
	}
}}

func grabChunk() *chunk {
	c := chunkPool.Get().(*chunk)
	c.n = 0
	c.snapAt = c.snapAt[:0]
	c.snapOff = c.snapOff[:0]
	c.snapData = c.snapData[:0]
	return c
}

// snapRange returns the [start, end) window of snapshot i in snapData.
func (c *chunk) snapRange(i int) (int32, int32) {
	start := c.snapOff[i]
	end := int32(len(c.snapData))
	if i+1 < len(c.snapOff) {
		end = c.snapOff[i+1]
	}
	return start, end
}

// bytes is the chunk's resident footprint (capacities, not lengths — the
// columns are preallocated at full capacity).
func (c *chunk) bytes() int64 {
	return int64(cap(c.funcs))*4 + int64(cap(c.ids))*4 +
		int64(cap(c.frames))*8 + int64(cap(c.addrs))*8 + int64(cap(c.vals))*8 +
		int64(cap(c.taken)) +
		int64(cap(c.snapAt))*4 + int64(cap(c.snapOff))*4 + int64(cap(c.snapData))*8
}

// Recording is an immutable captured event stream. It is safe for
// concurrent replay once finalized; Release returns its chunks to the
// shared pool and must only be called when no replay can still be reading
// it.
type Recording struct {
	chunks   []*chunk
	n        int64 // events stored
	steps    int64 // producer-reported dynamic instruction count
	complete bool

	// Memoized Checksum result. A finalized recording is immutable, so the
	// digest is computed once and reused by every subsequent integrity
	// check; Truncate (and Release) invalidate it. Two concurrent first
	// calls both compute the same value, so the unsynchronized store is
	// benign.
	sum   atomic.Uint64
	sumOK atomic.Bool

	releaseOnce sync.Once
}

// Len returns the number of recorded events.
func (r *Recording) Len() int64 {
	if r == nil {
		return 0
	}
	return r.n
}

// Steps returns the producer's dynamic instruction count at Finalize. A
// healthy recording has Steps() == Len(); a mismatch means truncation.
func (r *Recording) Steps() int64 {
	if r == nil {
		return 0
	}
	return r.steps
}

// Complete reports whether the recording was finalized by its producer.
func (r *Recording) Complete() bool { return r != nil && r.complete }

// Bytes returns the recording's resident memory footprint.
func (r *Recording) Bytes() int64 {
	if r == nil {
		return 0
	}
	var b int64
	for _, c := range r.chunks {
		b += c.bytes()
	}
	return b
}

// CacheBytes implements the artifact cache's size interface: recordings are
// bounded by bytes, not entry count.
func (r *Recording) CacheBytes() int64 { return r.Bytes() }

// Checksum returns a word-granular FNV-1a digest over every column and the
// step count. It is an integrity witness (bit flips, post-completion
// mutation), not a cryptographic hash. For a finalized recording the digest
// is memoized — recordings are immutable once complete, so per-hit cache
// integrity checks stop re-hashing the full event stream. The memo is
// dropped by Truncate and Release, which are the only sanctioned mutations.
func (r *Recording) Checksum() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	if r == nil {
		return h
	}
	if r.sumOK.Load() {
		return r.sum.Load()
	}
	mix(uint64(r.steps))
	mix(uint64(r.n))
	for _, c := range r.chunks {
		n := int(c.n)
		for i := 0; i < n; i++ {
			mix(uint64(uint32(c.funcs[i])))
			mix(uint64(uint32(c.ids[i])))
			mix(uint64(c.frames[i]))
			mix(uint64(c.addrs[i]))
			mix(uint64(c.vals[i]))
			if c.taken[i] {
				mix(1)
			} else {
				mix(0)
			}
		}
		for _, at := range c.snapAt {
			mix(uint64(uint32(at)))
		}
		for _, v := range c.snapData {
			mix(uint64(v))
		}
	}
	if r.complete {
		// Store the value before publishing the flag so a concurrent reader
		// that observes sumOK also observes the digest.
		r.sum.Store(h)
		r.sumOK.Store(true)
	}
	return h
}

// Truncate drops every event past n while leaving the recorded step count
// untouched, so Len() != Steps() flags the recording as torn. It exists for
// corruption testing; truncating a shared cached recording would corrupt it
// for every other replayer.
func (r *Recording) Truncate(n int64) {
	if r == nil || n >= r.n {
		return
	}
	if n < 0 {
		n = 0
	}
	r.sumOK.Store(false) // the memoized digest no longer matches the bytes
	keep := int((n + chunkEvents - 1) / chunkEvents)
	r.chunks = r.chunks[:keep]
	if keep > 0 {
		c := r.chunks[keep-1]
		local := int32(n - int64(keep-1)*chunkEvents)
		c.n = local
		// Trim the snapshot side-table to the surviving events.
		for i, at := range c.snapAt {
			if at >= local {
				c.snapData = c.snapData[:c.snapOff[i]]
				c.snapAt = c.snapAt[:i]
				c.snapOff = c.snapOff[:i]
				break
			}
		}
	}
	r.n = n
}

// Release returns the recording's chunks to the shared pool and empties it.
// It is idempotent, but must only be called by a sole owner: a released
// chunk is immediately reusable by concurrent recorders, so releasing a
// recording another goroutine is still replaying corrupts that replay.
func (r *Recording) Release() {
	if r == nil {
		return
	}
	r.releaseOnce.Do(func() {
		for _, c := range r.chunks {
			chunkPool.Put(c)
		}
		r.chunks = nil
		r.n = 0
		r.steps = 0
		r.complete = false
		r.sumOK.Store(false)
	})
}

// Recorder captures an event stream into a Recording. It implements
// Handler, optionally teeing every event (unmodified, snapshot aliasing
// intact) to a downstream handler, so capture can ride along a live
// simulation. Not safe for concurrent use; producers are sequential.
type Recorder struct {
	tee Handler
	rec *Recording
	cur *chunk
}

// NewRecorder returns a recorder; tee (may be nil) receives every event
// after it is captured.
func NewRecorder(tee Handler) *Recorder {
	return &Recorder{tee: tee, rec: &Recording{}}
}

// Event implements Handler.
func (r *Recorder) Event(ev *Event) {
	c := r.cur
	if c == nil || c.n == chunkEvents {
		c = grabChunk()
		r.rec.chunks = append(r.rec.chunks, c)
		r.cur = c
	}
	i := c.n
	c.funcs[i] = ev.Func
	c.ids[i] = ev.ID
	c.frames[i] = ev.Frame
	c.addrs[i] = ev.Addr
	c.vals[i] = ev.Val
	c.taken[i] = ev.Taken
	if ev.Snapshot != nil {
		c.snapAt = append(c.snapAt, i)
		c.snapOff = append(c.snapOff, int32(len(c.snapData)))
		c.snapData = append(c.snapData, ev.Snapshot...)
	}
	c.n = i + 1
	r.rec.n++
	if r.tee != nil {
		r.tee.Event(ev)
	}
}

// Finalize seals the capture with the producer's dynamic step count and
// returns the finished Recording. The recorder must not be used afterwards.
func (r *Recorder) Finalize(steps int64) *Recording {
	rec := r.rec
	rec.steps = steps
	rec.complete = true
	r.rec, r.cur = nil, nil
	return rec
}

// Abort discards the capture (producer failed mid-run), returning its
// chunks to the pool.
func (r *Recorder) Abort() {
	if r.rec != nil {
		r.rec.Release()
	}
	r.rec, r.cur = nil, nil
}

// Replayer re-emits recordings. The zero value is ready; reusing one
// Replayer across Replay calls keeps the steady state allocation-free (the
// replayed Event lives in the Replayer, not on a per-call heap escape).
type Replayer struct {
	ev Event
}

// Replay feeds the first limit events (limit <= 0: all) of rec to h in
// order, polling ctx on the interpreter's cadence (every 1024 events). The
// emitted Event is reused between calls and its Snapshot aliases the
// recording's storage — handlers must copy anything they keep, exactly as
// with a live producer. Events recorded without a snapshot replay with a
// nil Snapshot; zero-length snapshots may also replay as nil (consumers
// treat empty and missing snapshots alike).
func (rp *Replayer) Replay(ctx context.Context, rec *Recording, h Handler, limit int64) error {
	if rec == nil {
		return nil
	}
	if limit <= 0 || limit > rec.n {
		limit = rec.n
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	ev := &rp.ev
	var fed int64
	for _, c := range rec.chunks {
		if fed >= limit {
			break
		}
		n := int64(c.n)
		if rem := limit - fed; n > rem {
			n = rem
		}
		si := 0
		for i := int64(0); i < n; i++ {
			if fed&replayCtxMask == replayCtxMask && done != nil {
				select {
				case <-done:
					return fmt.Errorf("trace: replay interrupted after %d events: %w", fed, ctx.Err())
				default:
				}
			}
			ev.Func = c.funcs[i]
			ev.ID = c.ids[i]
			ev.Frame = c.frames[i]
			ev.Addr = c.addrs[i]
			ev.Val = c.vals[i]
			ev.Taken = c.taken[i]
			ev.Snapshot = nil
			if si < len(c.snapAt) && c.snapAt[si] == int32(i) {
				start, end := c.snapRange(si)
				ev.Snapshot = c.snapData[start:end:end]
				si++
			}
			h.Event(ev)
			fed++
		}
	}
	return nil
}

// Replay feeds the whole recording to h; see Replayer.Replay for the
// aliasing contract. Callers replaying repeatedly should hold their own
// Replayer to avoid its per-call allocation.
func (r *Recording) Replay(ctx context.Context, h Handler) error {
	var rp Replayer
	return rp.Replay(ctx, r, h, 0)
}
