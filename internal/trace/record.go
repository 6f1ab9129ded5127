package trace

import (
	"context"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// A Recording is a compact columnar copy of every Event a producer
// emitted, chunked so capture never needs one giant allocation and so
// released recordings recycle fixed-size blocks. Columns cost ~33 bytes
// per event, and the sparse snapshot side-table costs nothing for the
// events that carry no register snapshot. A recording is also an event
// window: consumers read its columns in place (At, Snapshot), even while a
// Recorder is still filling it.

// One chunk holds 32 Ki events ≈ 1 MiB of column data.
const (
	chunkShift  = 15
	ChunkEvents = 1 << chunkShift
	chunkMask   = ChunkEvents - 1
)

// replayCtxMask mirrors the interpreter's cadence: the replay context is
// polled every time the low bits of the event index wrap.
const replayCtxMask = 1<<10 - 1

// Chunk is one block of columnar event storage. The event columns are
// arrays indexed by the low bits of an event's position; the snapshot
// columns keep their capacity when the chunk is recycled.
type Chunk struct {
	n      int32
	funcs  [ChunkEvents]int32
	ids    [ChunkEvents]int32
	frames [ChunkEvents]int64
	addrs  [ChunkEvents]int64
	vals   [ChunkEvents]int64
	taken  [ChunkEvents]bool

	// Sparse snapshot side-table: snapAt holds the chunk-local indices of
	// events that carried a snapshot (ascending), snapOff[i] is the offset
	// of snapshot i in snapData (its end is snapOff[i+1], or len(snapData)
	// for the last one).
	snapAt   []int32
	snapOff  []int32
	snapData []int64
}

// ChunkBytes is the resident size of a chunk's event columns, the part of
// its footprint that does not depend on the snapshots it holds.
const ChunkBytes = int64(unsafe.Sizeof(Chunk{}))

// reset empties a chunk for reuse, keeping its snapshot table capacity.
func (c *Chunk) reset() {
	c.n = 0
	c.snapAt = c.snapAt[:0]
	c.snapOff = c.snapOff[:0]
	c.snapData = c.snapData[:0]
}

// snapRange returns the [start, end) window of snapshot i in snapData.
func (c *Chunk) snapRange(i int) (int32, int32) {
	start := c.snapOff[i]
	end := int32(len(c.snapData))
	if i+1 < len(c.snapOff) {
		end = c.snapOff[i+1]
	}
	return start, end
}

// Bytes is the chunk's resident footprint: the columns plus the capacity
// of its snapshot table.
func (c *Chunk) Bytes() int64 {
	return ChunkBytes + int64(cap(c.snapAt))*4 + int64(cap(c.snapOff))*4 + int64(cap(c.snapData))*8
}

// digestSeed keys recording digests. Digests are compared only within one
// process, so a per-process seed is enough.
var digestSeed = maphash.MakeSeed()

// digest hashes the chunk's filled prefix: every column and the snapshot
// side-table.
func (c *Chunk) digest() uint64 {
	var h maphash.Hash
	h.SetSeed(digestSeed)
	n := int(c.n)
	h.Write(bytesOf(c.funcs[:n]))
	h.Write(bytesOf(c.ids[:n]))
	h.Write(bytesOf(c.frames[:n]))
	h.Write(bytesOf(c.addrs[:n]))
	h.Write(bytesOf(c.vals[:n]))
	h.Write(bytesOf(c.taken[:n]))
	h.Write(bytesOf(c.snapAt))
	h.Write(bytesOf(c.snapOff))
	h.Write(bytesOf(c.snapData))
	return h.Sum64()
}

// bytesOf views a column as raw bytes for hashing.
func bytesOf[T int32 | int64 | bool](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var z T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(z)))
}

// fnv folds word v into FNV-1a state h.
func fnv(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

const fnvOffset = 14695981039346656037

// ChunkSource recycles recording chunks. A capture asks it for every chunk
// it fills (Take; nil means allocate a fresh one), and a recording captured
// from it hands all its chunks back (Put) once its last reference is
// dropped.
type ChunkSource interface {
	Take() *Chunk
	Put([]*Chunk)
}

// Recording is a captured event stream. Once finalized it is immutable and
// safe for concurrent reading. It is reference counted: the capture holds
// the first reference, Retain adds one and Release drops one, and dropping
// the last returns the chunks to the ChunkSource they came from (or to the
// garbage collector when there is none).
type Recording struct {
	chunks   []*Chunk
	first    int64 // chunk index of chunks[0]: > 0 once a window dropped its head
	n        int64 // events stored
	steps    int64 // producer-reported dynamic instruction count
	complete bool

	// Memoized Checksum result: the recorder folds each chunk's digest in
	// as the chunk fills, so a finalized recording arrives with its digest
	// already known. Truncate (and the last Release) invalidate it. Two
	// concurrent recomputations store the same value, so the
	// unsynchronized store is benign.
	sum   atomic.Uint64
	sumOK atomic.Bool

	refs atomic.Int32
	src  ChunkSource
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
		b += c.Bytes()
	}
	return b
}

// CacheBytes implements the artifact cache's size interface: recordings are
// bounded by bytes, not entry count.
func (r *Recording) CacheBytes() int64 { return r.Bytes() }

// At returns a view of event abs. abs must lie in [0, Len()) and, in a
// window, at or after its last Trim bound.
func (r *Recording) At(abs int64) View {
	return View{c: r.chunks[abs>>chunkShift-r.first], i: abs}
}

// View is one recorded event read in place: its accessors, named after
// Event's fields, each load one column entry, and nothing is copied. The
// event's snapshot is read separately (Recording.Snapshot).
type View struct {
	c *Chunk
	i int64 // absolute event index; its low bits index the chunk
}

func (v View) Func() int32  { return v.c.funcs[v.i&chunkMask] }
func (v View) ID() int32    { return v.c.ids[v.i&chunkMask] }
func (v View) Frame() int64 { return v.c.frames[v.i&chunkMask] }
func (v View) Addr() int64  { return v.c.addrs[v.i&chunkMask] }
func (v View) Val() int64   { return v.c.vals[v.i&chunkMask] }
func (v View) Taken() bool  { return v.c.taken[v.i&chunkMask] }

// Snapshot returns the register snapshot recorded with event abs, or nil.
// The slice aliases the recording's storage and must not be modified.
func (r *Recording) Snapshot(abs int64) []int64 {
	c := r.chunks[abs>>chunkShift-r.first]
	k, ok := slices.BinarySearch(c.snapAt, int32(abs&chunkMask))
	if !ok {
		return nil
	}
	start, end := c.snapRange(k)
	return c.snapData[start:end:end]
}

// Checksum returns a digest over every column and the step count. It is an
// integrity witness (bit flips, post-completion mutation), not a
// cryptographic hash, and it is only comparable within one process. A
// finalized recording carries its digest from capture; Truncate and the
// last Release drop the memo, which is then recomputed.
func (r *Recording) Checksum() uint64 {
	if r == nil {
		return fnv(fnv(fnvOffset, 0), 0)
	}
	if r.sumOK.Load() {
		return r.sum.Load()
	}
	h := uint64(fnvOffset)
	for _, c := range r.chunks {
		h = fnv(h, c.digest())
	}
	h = fnv(fnv(h, uint64(r.steps)), uint64(r.n))
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
	keep := int((n + ChunkEvents - 1) / ChunkEvents)
	r.chunks = r.chunks[:keep]
	if keep > 0 {
		c := r.chunks[keep-1]
		local := int32(n - int64(keep-1)*ChunkEvents)
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

// addRef adds d to the references of a recording that still has some and
// returns the new count; with none left it changes nothing and returns 0.
func (r *Recording) addRef(d int32) int32 {
	for {
		n := r.refs.Load()
		if n <= 0 {
			return 0
		}
		if r.refs.CompareAndSwap(n, n+d) {
			return n + d
		}
	}
}

// Retain adds a reference. It fails once the last reference has been
// dropped: the chunks may already hold another capture.
func (r *Recording) Retain() bool { return r.addRef(1) > 0 }

// Release drops one reference. Dropping the last empties the recording
// and hands its chunks back to their source for reuse, so every holder
// must release exactly once and read nothing afterwards. Releasing a
// recording with no references left does nothing.
func (r *Recording) Release() {
	if r == nil || r.addRef(-1) > 0 {
		return
	}
	chunks := r.chunks
	r.chunks = nil
	r.first, r.n, r.steps = 0, 0, 0
	r.complete = false
	r.sumOK.Store(false)
	if r.src != nil && len(chunks) > 0 {
		r.src.Put(chunks)
	}
}

// Recorder captures an event stream into a Recording. It implements
// Handler. The recording it fills is readable in place while it grows
// (Recording), from the producer's goroutine. Not safe for concurrent use;
// producers are sequential.
type Recorder struct {
	rec    *Recording
	cur    *Chunk
	spare  []*Chunk // chunks Trim dropped, reused before asking the source
	sum    uint64   // running digest over sealed chunks
	window bool     // never finalized: no digest, and Trim may drop the head
}

// NewRecorder returns a recorder that takes its chunks from src (nil:
// fresh allocations); the finished recording returns them there.
func NewRecorder(src ChunkSource) *Recorder {
	rec := &Recording{src: src}
	rec.refs.Store(1)
	return &Recorder{rec: rec, sum: fnvOffset}
}

// NewWindow returns a recorder whose capture is only a sliding event
// window: it is never finalized, Trim recycles its head as the stream
// moves on, and Abort hands its chunks to the next window.
func NewWindow() *Recorder {
	r := NewRecorder(windowChunks{})
	r.window = true
	return r
}

// windowPool recycles the chunks of finished windows. A window holds a few
// chunks for the length of one pass, so consecutive passes reuse them
// instead of re-zeroing a megabyte per chunk; the pool empties when the
// garbage collector runs.
var windowPool sync.Pool

// windowChunks is the chunk source of windows.
type windowChunks struct{}

// Take implements ChunkSource.
func (windowChunks) Take() *Chunk {
	c, _ := windowPool.Get().(*Chunk)
	return c
}

// Put implements ChunkSource.
func (windowChunks) Put(chunks []*Chunk) {
	for _, c := range chunks {
		windowPool.Put(c)
	}
}

// Recording returns the recording being filled. Events [0, Len()) are
// readable with At and Snapshot until the next Trim.
func (r *Recorder) Recording() *Recording { return r.rec }

// grab returns an empty chunk: a trimmed one, the source's, or a fresh one.
func (r *Recorder) grab() *Chunk {
	var c *Chunk
	if n := len(r.spare); n > 0 {
		c = r.spare[n-1]
		r.spare = r.spare[:n-1]
	} else if r.rec.src != nil {
		c = r.rec.src.Take()
	}
	if c != nil {
		c.reset()
		return c
	}
	return new(Chunk)
}

// Event implements Handler.
func (r *Recorder) Event(ev *Event) {
	c := r.cur
	if c == nil || c.n == ChunkEvents {
		if c != nil && !r.window {
			r.sum = fnv(r.sum, c.digest()) // sealed while its columns are warm
		}
		c = r.grab()
		r.rec.chunks = append(r.rec.chunks, c)
		r.cur = c
	}
	i := c.n & chunkMask
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
}

// Trim drops a window's whole chunks before event low and keeps them to
// hold later events, so a window that only ever reads from low onwards
// stays a few chunks long however far the stream runs.
func (r *Recorder) Trim(low int64) {
	rec := r.rec
	if !r.window {
		panic("trace: Trim of a capture that can be finalized")
	}
	k := min(int(low>>chunkShift-rec.first), len(rec.chunks)-1) // the chunk being filled stays
	if k <= 0 {
		return
	}
	r.spare = append(r.spare, rec.chunks[:k]...)
	rec.chunks = append(rec.chunks[:0], rec.chunks[k:]...)
	rec.first += int64(k)
}

// Finalize seals the capture with the producer's dynamic step count and
// returns the finished Recording, which carries the recorder's reference.
// The recorder must not be used afterwards.
func (r *Recorder) Finalize(steps int64) *Recording {
	rec := r.rec
	if r.window {
		panic("trace: Finalize of a window")
	}
	sum := r.sum
	if r.cur != nil {
		sum = fnv(sum, r.cur.digest())
	}
	rec.steps = steps
	rec.complete = true
	rec.sum.Store(fnv(fnv(sum, uint64(steps)), uint64(rec.n)))
	rec.sumOK.Store(true)
	r.rec, r.cur, r.spare = nil, nil, nil
	return rec
}

// Abort discards the capture (producer failed mid-run, or the stream was
// only a window), returning its chunks to the source.
func (r *Recorder) Abort() {
	if r.rec != nil {
		r.rec.chunks = append(r.rec.chunks, r.spare...)
		r.rec.Release()
	}
	r.rec, r.cur, r.spare = nil, nil, nil
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
	if limit <= 0 || limit > rec.Len() {
		limit = rec.Len()
	}
	ev := &rp.ev
	si := 0 // next snapshot of the current chunk
	for p := int64(0); p < limit; p++ {
		if p&replayCtxMask == replayCtxMask && ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("trace: replay interrupted after %d events: %w", p, ctx.Err())
		}
		v := rec.At(p)
		c, i := v.c, int32(p&chunkMask)
		if i == 0 {
			si = 0
		}
		*ev = Event{Func: c.funcs[i], ID: c.ids[i], Frame: c.frames[i], Addr: c.addrs[i], Val: c.vals[i], Taken: c.taken[i]}
		if si < len(c.snapAt) && c.snapAt[si] == i {
			start, end := c.snapRange(si)
			ev.Snapshot = c.snapData[start:end:end]
			si++
		}
		h.Event(ev)
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
