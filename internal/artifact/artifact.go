// Package artifact memoizes the expensive artifacts of the evaluation
// pipeline — generated benchmark programs, compile results, profiles and
// simulation statistics — so that sweeps revisiting the same
// (program, configuration) point do the work exactly once.
//
// Programs are identified by content: ir.Program.Fingerprint hashes the
// canonical disassembly, so two structurally identical programs share
// cache lines no matter how they were produced. Simulation results are
// additionally keyed by the canonicalized machine configuration
// (arch.Config.Canonical), which folds away speculation parameters that
// cannot influence a baseline run — one baseline simulation then serves a
// whole ablation sweep.
//
// Concurrency: the cache is safe for concurrent use and deduplicates
// in-flight computations (single-flight): when several goroutines request
// the same key, one computes while the rest wait for its result. Errors and
// panics are never cached — a failed computation is retried by the next
// caller. Cached values are shared between callers and must be treated as
// read-only.
package artifact

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// kindRecording is the key namespace of captured execution traces; they are
// the only artifact kind bounded by bytes rather than entry count.
const kindRecording = "recording"

// Sized is implemented by artifact values whose retention is bounded by
// bytes (trace.Recording). The cache reads the size once, at completion.
type Sized interface {
	CacheBytes() int64
}

// key identifies one cached artifact. kind separates the namespaces;
// a and b carry the content identity (fingerprint, benchmark name, options
// rendering); cfg is the canonical machine configuration for simulations
// and the zero Config otherwise. arch.Config is comparable, so the whole
// key is directly usable as a map key.
type key struct {
	kind string
	a, b string
	cfg  arch.Config
}

// entry is one single-flight cache slot. done is closed when the
// computation finishes; val/err are immutable afterwards. elem is the
// entry's recency-list node (nil once evicted or after a Reset).
type entry struct {
	done chan struct{}
	val  any
	err  error
	elem *list.Element

	// bytes is what the entry counts against the byte bound: a running
	// capture's chunks while it is in flight, the completed value's
	// CacheBytes afterwards (0 for unsized values). Guarded by Cache.mu.
	bytes int64

	// Integrity (when enabled on the cache): sum is the sha256 of the
	// completed value's canonical encoding, recorded once at completion.
	// summed is false for value types with no stable encoding — those are
	// exempt from verification rather than spuriously evicted.
	sum    string
	summed bool
}

// completed reports whether the entry's computation has finished.
func (e *entry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Cache memoizes pipeline artifacts. The zero value is ready to use and
// unbounded; a nil *Cache is valid and caches nothing (every call computes
// directly), so plumbing can pass an optional cache without branching.
// NewBounded builds a cache with an entry cap for long-running processes.
type Cache struct {
	mu       sync.Mutex
	entries  map[key]*entry
	lru      *list.List // element values are keys; front = most recent
	max      int        // entry cap (0 = unbounded)
	maxBytes int64      // byte cap over Sized values (0 = unbounded)
	curBytes int64      // resident Sized bytes, running captures included; guarded by mu

	// Recording chunks. capBytes is the part of curBytes that running
	// captures hold. free holds chunks of evicted recordings whose last
	// reference is gone, kept only while curBytes+freeBytes stays within
	// maxBytes; captures take from it before allocating. dropped collects
	// the recordings an eviction removed under mu, whose cache reference
	// unlock releases. All guarded by mu.
	capBytes  int64
	free      []*trace.Chunk
	freeBytes int64
	dropped   []*trace.Recording

	work Work // guarded by mu

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	recHits   atomic.Int64
	recJoins  atomic.Int64
	recMisses atomic.Int64

	integrity          atomic.Bool
	integrityEvictions atomic.Int64
}

// EnableIntegrity turns on artifact checksumming: completed entries record
// a sha256 over their canonical encoding, every hit re-verifies it, and an
// entry whose bytes no longer match is evicted and recomputed — a corrupted
// artifact is never served. The daemon enables this; the zero cache leaves
// it off so hot local sweeps skip the verification cost.
func (c *Cache) EnableIntegrity() {
	if c == nil {
		return
	}
	c.integrity.Store(true)
}

// checksumOf returns the sha256 of v's canonical encoding. Only value types
// with a stable canonical form participate: simulation statistics (field
// rendering with the per-loop map sorted) and programs (disassembly —
// hashed fresh, NOT through the memoized ir.Program.Fingerprint, which
// would return the pre-corruption hash for a mutated program). Other types
// report ok=false and are exempt.
func checksumOf(v any) (sum string, ok bool) {
	switch t := v.(type) {
	case *arch.RunStats:
		if t == nil {
			return "", false
		}
		return checksumRunStats(t), true
	case *ir.Program:
		if t == nil {
			return "", false
		}
		s := sha256.Sum256([]byte(t.Disasm()))
		return hex.EncodeToString(s[:]), true
	case *trace.Recording:
		if t == nil {
			return "", false
		}
		return fmt.Sprintf("%016x", t.Checksum()), true
	}
	return "", false
}

// checksumRunStats renders RunStats deterministically: the scalar fields
// via %+v with the PerLoop map detached (map iteration order — and
// json.Marshal, which rejects struct-keyed maps — are both unusable), then
// the per-loop entries in sorted key order.
func checksumRunStats(rs *arch.RunStats) string {
	cp := *rs
	cp.PerLoop = nil
	var sb strings.Builder
	fmt.Fprintf(&sb, "%+v\n", cp)
	keys := make([]profiler.LoopKey, 0, len(rs.PerLoop))
	for k := range rs.PerLoop {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Func != keys[j].Func {
			return keys[i].Func < keys[j].Func
		}
		return keys[i].Header < keys[j].Header
	})
	for _, k := range keys {
		if ls := rs.PerLoop[k]; ls != nil {
			fmt.Fprintf(&sb, "%s/%s %+v\n", k.Func, k.Header, *ls)
		}
	}
	s := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(s[:])
}

// verifyLocked re-derives a completed entry's checksum and compares it to
// the one recorded at completion. Exempt entries always verify.
func verifyLocked(e *entry) bool {
	if !e.summed || e.err != nil {
		return true
	}
	sum, ok := checksumOf(e.val)
	return !ok || sum == e.sum
}

// NewBounded returns a cache holding at most maxEntries completed
// artifacts: inserting beyond the cap evicts the least recently used
// completed entry. In-flight computations are never evicted (waiters hold
// references to them), so the cache can transiently exceed the cap by the
// number of concurrent distinct computations. maxEntries <= 0 means
// unbounded.
func NewBounded(maxEntries int) *Cache {
	return &Cache{max: maxEntries}
}

// NewBoundedBytes is NewBounded with an additional byte bound over Sized
// artifacts (recordings): when their resident bytes exceed maxBytes, least
// recently used completed entries are evicted until the cache fits again.
// Unsized artifacts count zero bytes and are governed only by the entry
// cap. maxBytes <= 0 means no byte bound.
func NewBoundedBytes(maxEntries int, maxBytes int64) *Cache {
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &Cache{max: maxEntries, maxBytes: maxBytes}
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits               int64 // calls served from a completed or in-flight computation
	Misses             int64 // calls that had to compute
	Entries            int   // currently cached artifacts
	Evictions          int64 // completed artifacts dropped by the LRU bound
	IntegrityEvictions int64 // artifacts evicted because their checksum no longer matched

	RecordingHits   int64 // recording lookups that coalesced onto an existing capture
	RecordingJoins  int64 // the RecordingHits whose capture was still running
	RecordingMisses int64 // recording lookups that had to interpret
	Bytes           int64 // resident bytes of Sized artifacts (recordings), running captures included
	CaptureBytes    int64 // bytes of chunks running captures hold

	Work
}

// Work tallies what the cache's own computations did: the simulation
// batches SimulateBatch computed and the recording chunks captures took.
type Work struct {
	BroadcastPasses int64 // computed batches of two or more simulations, each one trace pass
	BatchedVariants int64 // simulations those passes fed

	// Speculation outcomes summed over the simulations that completed.
	FastCommits int64
	Replays     int64
	Squashes    [arch.NumSquashCauses]int64

	ChunksAllocated int64 // recording chunks captures allocated fresh
	ChunksReused    int64 // recording chunks captures took from evicted recordings
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any traffic.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	n := len(c.entries)
	bytes, capBytes, work := c.curBytes, c.capBytes, c.work
	c.mu.Unlock()
	return Stats{
		Hits:               c.hits.Load(),
		Misses:             c.misses.Load(),
		Entries:            n,
		Evictions:          c.evictions.Load(),
		IntegrityEvictions: c.integrityEvictions.Load(),
		RecordingHits:      c.recHits.Load(),
		RecordingJoins:     c.recJoins.Load(),
		RecordingMisses:    c.recMisses.Load(),
		Bytes:              bytes,
		CaptureBytes:       capBytes,
		Work:               work,
	}
}

// Len returns the number of currently cached artifacts (including
// in-flight computations).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Evictions returns how many completed artifacts the LRU bound has dropped.
func (c *Cache) Evictions() int64 {
	if c == nil {
		return 0
	}
	return c.evictions.Load()
}

// Reset drops every cached artifact and zeroes the counters. In-flight
// computations complete normally but are not retained.
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	for _, e := range c.entries {
		e.elem = nil // detach so late evict/complete paths ignore the old list
		if e.completed() {
			c.dropLocked(e)
		} else {
			e.bytes = 0 // a running capture's charge leaves with its entry
		}
	}
	c.entries = nil
	c.lru = nil
	c.curBytes, c.capBytes = 0, 0
	c.free, c.freeBytes = nil, 0
	c.work = Work{}
	c.unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.integrityEvictions.Store(0)
	c.recHits.Store(0)
	c.recMisses.Store(0)
}

// enforceCapLocked evicts least-recently-used completed entries until the
// cache fits its bound. Entries still computing are skipped: their waiters
// hold the entry, and dropping it would duplicate in-flight work. While
// only the byte bound is over, unsized entries are skipped too: dropping
// one frees no bytes and costs a recomputation.
func (c *Cache) enforceCapLocked() {
	if c.lru == nil {
		return
	}
	for el := c.lru.Back(); el != nil; {
		entriesOver := c.max > 0 && len(c.entries) > c.max
		if !entriesOver && (c.maxBytes <= 0 || c.curBytes <= c.maxBytes) {
			return
		}
		prev := el.Prev()
		k := el.Value.(key)
		if e, ok := c.entries[k]; ok && e.completed() && (entriesOver || e.bytes > 0) {
			delete(c.entries, k)
			c.lru.Remove(el)
			e.elem = nil
			c.curBytes -= e.bytes
			c.dropLocked(e)
			c.evictions.Add(1)
		}
		el = prev
	}
}

// staleLocked evicts a completed entry whose stored bytes no longer match
// the checksum recorded at completion (a caller mutated a shared value, or
// memory was corrupted). It reports whether the entry was evicted; callers
// then fall through to a fresh computation so a corrupted artifact is never
// served. Must be called with c.mu held.
func (c *Cache) staleLocked(k key, e *entry) bool {
	if !c.integrity.Load() || !e.completed() || verifyLocked(e) {
		return false
	}
	delete(c.entries, k)
	if e.elem != nil && c.lru != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
	c.curBytes -= e.bytes
	c.dropLocked(e)
	c.integrityEvictions.Add(1)
	return true
}

// dropLocked queues the cache's reference to a removed entry's recording
// for release by unlock: the recording's chunks are recycled once its
// last lease ends. Must be called with c.mu held.
func (c *Cache) dropLocked(e *entry) {
	if r, ok := e.val.(*trace.Recording); ok && r != nil && e.err == nil {
		c.dropped = append(c.dropped, r)
	}
}

// unlock releases c.mu, then the cache's references to the recordings
// evicted while it was held. Releasing may recycle chunks into the free
// list, which takes c.mu again.
func (c *Cache) unlock() {
	drop := c.dropped
	c.dropped = nil
	c.mu.Unlock()
	for _, r := range drop {
		r.Release()
	}
}

// claimLocked installs a fresh in-flight entry for k. Must be called with
// c.mu held; the caller owns completing the entry via complete.
func (c *Cache) claimLocked(k key) *entry {
	e := &entry{done: make(chan struct{})}
	if c.entries == nil {
		c.entries = map[key]*entry{}
	}
	if c.lru == nil {
		c.lru = list.New()
	}
	e.elem = c.lru.PushFront(k)
	c.entries[k] = e
	return e
}

// complete publishes a claimed entry's result: failed computations are
// evicted so the next caller retries, successful ones record their
// integrity checksum and byte footprint (replacing a capture's running
// charge), and done is closed on every path so waiters never block
// forever. A completed recording carries the reference the cache holds
// until the entry is evicted.
func (c *Cache) complete(k key, e *entry) {
	var size int64
	if e.err == nil {
		if c.integrity.Load() {
			e.sum, e.summed = checksumOf(e.val) // before close: hits read after <-done
		}
		if s, ok := e.val.(Sized); ok {
			size = s.CacheBytes()
		}
	}
	c.mu.Lock()
	if c.entries[k] == e {
		c.curBytes -= e.bytes
		c.capBytes -= e.bytes
		e.bytes = 0
		if e.err != nil {
			delete(c.entries, k)
			if e.elem != nil && c.lru != nil {
				c.lru.Remove(e.elem)
				e.elem = nil
			}
		} else {
			e.bytes = size
			c.curBytes += size
		}
	}
	close(e.done)
	// Now that this entry is evictable, re-check the bound: inserts that
	// happened while it was in-flight may have left an overflow.
	c.enforceCapLocked()
	c.unlock()
}

// do returns the cached value for k, computing it with fn on first use;
// fn receives its in-flight entry (nil on a nil cache). Concurrent callers
// for the same key share one computation.
func (c *Cache) do(k key, fn func(e *entry) (any, error)) (any, error) {
	if c == nil {
		return fn(nil)
	}
	c.mu.Lock()
	if e, ok := c.entries[k]; ok && !c.staleLocked(k, e) {
		if e.elem != nil && c.lru != nil {
			c.lru.MoveToFront(e.elem)
		}
		joined := !e.completed()
		c.unlock()
		c.hits.Add(1)
		if k.kind == kindRecording {
			c.recHits.Add(1)
			if joined {
				c.recJoins.Add(1)
			}
		}
		<-e.done
		return e.val, e.err
	}
	e := c.claimLocked(k)
	c.enforceCapLocked()
	c.unlock()
	c.misses.Add(1)
	if k.kind == kindRecording {
		c.recMisses.Add(1)
	}

	defer func() {
		if r := recover(); r != nil {
			e.err = fmt.Errorf("artifact: computation panicked: %v", r)
			c.complete(k, e)
			panic(r)
		}
		c.complete(k, e)
	}()
	e.val, e.err = fn(e)
	return e.val, e.err
}

// cached adapts do to a typed computation.
func cached[T any](c *Cache, k key, fn func() (T, error)) (T, error) {
	v, err := c.do(k, func(*entry) (any, error) { return fn() })
	if t, ok := v.(T); ok {
		return t, err
	}
	var zero T
	return zero, err
}

// Program memoizes a generated (and possibly optimized) benchmark program.
// stage distinguishes different derivations of the same benchmark — e.g.
// the raw build used for coverage profiling vs. the optimized baseline.
func (c *Cache) Program(name string, scale int, stage string, build func() (*ir.Program, error)) (*ir.Program, error) {
	k := key{kind: "program", a: name, b: fmt.Sprintf("%d/%s", scale, stage)}
	return cached(c, k, build)
}

// CompileResult memoizes an SPT compilation of program p under the options
// rendered into optsKey (any stable rendering of the compiler options).
func (c *Cache) CompileResult(p *ir.Program, optsKey string, fn func() (*compiler.Result, error)) (*compiler.Result, error) {
	k := key{kind: "compile", a: p.Fingerprint(), b: optsKey}
	return cached(c, k, fn)
}

// Profile memoizes a profiling run of program p; extra distinguishes
// profiling variants (e.g. step limits).
func (c *Cache) Profile(p *ir.Program, extra string, fn func() (*profiler.Profile, error)) (*profiler.Profile, error) {
	k := key{kind: "profile", a: p.Fingerprint(), b: extra}
	return cached(c, k, fn)
}

// SimulateBatch memoizes a batch of simulations of one program in a single
// cache transaction. Configurations are canonicalized first, so baseline
// runs that differ only in speculation parameters share one simulation,
// and the returned stats are shared: callers must not mutate them. Every
// cached (or in-flight) configuration is served as a hit, duplicates within
// the batch coalesce onto one entry, and the remaining misses are claimed
// together and handed to compute as index positions into cfgs. compute
// runs exactly once per SimulateBatch call (if anything is missing) and
// must return one stats/err pair per miss index, in order — this is what
// lets a batch decode a shared recording once and broadcast it to all
// missing configurations. Failed entries are evicted so later
// callers retry; a panic in compute fails every claimed entry before
// propagating.
func (c *Cache) SimulateBatch(p *ir.Program, cfgs []arch.Config, compute func(miss []int) ([]*arch.RunStats, []error)) ([]*arch.RunStats, []error) {
	out := make([]*arch.RunStats, len(cfgs))
	errs := make([]error, len(cfgs))
	if len(cfgs) == 0 {
		return out, errs
	}
	if c == nil {
		all := make([]int, len(cfgs))
		for i := range all {
			all[i] = i
		}
		st, er := compute(all)
		copy(out, st)
		copy(errs, er)
		return out, errs
	}
	fp := p.Fingerprint()
	keys := make([]key, len(cfgs))
	wait := make([]*entry, len(cfgs)) // entry each index reads its result from
	mine := map[key]*entry{}          // entries claimed by THIS call
	var miss []int                    // first cfg index per claimed key
	var hits, misses int64

	c.mu.Lock()
	for i := range cfgs {
		k := key{kind: "simulate", a: fp, cfg: cfgs[i].Canonical()}
		keys[i] = k
		if e, ok := mine[k]; ok {
			// Duplicate within the batch: coalesce onto the first claim.
			wait[i] = e
			hits++
			continue
		}
		if e, ok := c.entries[k]; ok && !c.staleLocked(k, e) {
			if e.elem != nil && c.lru != nil {
				c.lru.MoveToFront(e.elem)
			}
			wait[i] = e
			hits++
			continue
		}
		e := c.claimLocked(k)
		mine[k] = e
		wait[i] = e
		miss = append(miss, i)
		misses++
	}
	c.enforceCapLocked()
	c.unlock()
	c.hits.Add(hits)
	c.misses.Add(misses)

	if len(miss) > 0 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					for _, i := range miss {
						e := mine[keys[i]]
						if !e.completed() {
							e.err = fmt.Errorf("artifact: computation panicked: %v", r)
							c.complete(keys[i], e)
						}
					}
					panic(r)
				}
			}()
			st, er := compute(miss)
			c.tallyBatch(len(miss), st, er)
			for j, i := range miss {
				e := mine[keys[i]]
				if j < len(st) {
					e.val = st[j]
				}
				if j < len(er) {
					e.err = er[j]
				}
				if e.val == nil && e.err == nil {
					e.err = fmt.Errorf("artifact: batch compute returned no result for index %d", i)
				}
				c.complete(keys[i], e)
			}
		}()
	}

	for i := range cfgs {
		e := wait[i]
		<-e.done
		if v, ok := e.val.(*arch.RunStats); ok {
			out[i] = v
		}
		errs[i] = e.err
	}
	return out, errs
}

// tallyBatch counts a computed batch of n simulations: one broadcast pass
// when it fed two or more engines, and the speculation outcomes of every
// simulation that completed.
func (c *Cache) tallyBatch(n int, st []*arch.RunStats, er []error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &c.work
	if n > 1 {
		w.BroadcastPasses++
		w.BatchedVariants += int64(n)
	}
	for j := 0; j < n && j < len(st); j++ {
		rs := st[j]
		if rs == nil || (j < len(er) && er[j] != nil) {
			continue
		}
		w.FastCommits += rs.FastCommits
		w.Replays += rs.Replays
		for k, v := range rs.Squashes {
			w.Squashes[k] += v
		}
	}
}

// recordingKey identifies the recording of p captured under stepLimit (a
// limit is part of the trace's identity: a capture that exceeds it fails,
// and errors are never cached).
func recordingKey(p *ir.Program, stepLimit int64) key {
	return key{kind: kindRecording, a: p.Fingerprint(), b: fmt.Sprintf("limit=%d", stepLimit)}
}

// LeaseRecording returns the captured execution trace of p under
// stepLimit, capturing it with capture on a miss. Concurrent callers
// coalesce onto one capture. The recording comes with a lease: the caller
// must Release it exactly once when done reading, and the cache recycles
// its chunks once it has been evicted and every lease has ended.
//
// capture fills its recording from the given chunk source: the cache
// charges each chunk against its byte bound as the capture takes it,
// evicting least recently used recordings when the charge overflows, and
// hands their chunks straight to the capture.
func (c *Cache) LeaseRecording(p *ir.Program, stepLimit int64, capture func(src trace.ChunkSource) (*trace.Recording, error)) (*trace.Recording, error) {
	k := recordingKey(p, stepLimit)
	for {
		leased := false
		v, err := c.do(k, func(e *entry) (any, error) {
			var src trace.ChunkSource
			if e != nil {
				src = &captureSource{c: c, k: k, e: e}
			}
			rec, err := capture(src)
			if err == nil && rec != nil {
				// The capture's own reference becomes the cache's; the
				// caller's lease is taken before anyone can evict it.
				leased = c == nil || rec.Retain()
			}
			return rec, err
		})
		rec, _ := v.(*trace.Recording)
		if err != nil || rec == nil {
			return nil, err
		}
		if leased || rec.Retain() {
			return rec, nil
		}
		// Evicted and recycled between its completion and this lease: the
		// next lookup misses and captures afresh.
	}
}

// Recording memoizes a captured execution trace of p, keyed like
// LeaseRecording. The recording is handed out without a lease, so it is
// never recycled: eviction drops the cache's reference and the garbage
// collector reclaims it once no caller can still be reading it.
func (c *Cache) Recording(p *ir.Program, stepLimit int64, fn func() (*trace.Recording, error)) (*trace.Recording, error) {
	// The lease is never released.
	return c.LeaseRecording(p, stepLimit, func(trace.ChunkSource) (*trace.Recording, error) { return fn() })
}

// ReleaseRecordings evicts every completed recording, dropping the
// cache's references: a recording nobody leases any more is recycled at
// once, a leased one when its last lease ends.
func (c *Cache) ReleaseRecordings() {
	if c == nil {
		return
	}
	c.mu.Lock()
	for k, e := range c.entries {
		if k.kind != kindRecording || !e.completed() {
			continue
		}
		delete(c.entries, k)
		if e.elem != nil && c.lru != nil {
			c.lru.Remove(e.elem)
			e.elem = nil
		}
		c.curBytes -= e.bytes
		c.dropLocked(e)
	}
	c.unlock()
}

// captureSource is the chunk source of one running capture (entry e under
// key k): it charges every chunk the capture takes against the byte bound
// and recycles the chunks of recordings the cache let go.
type captureSource struct {
	c *Cache
	k key
	e *entry
}

// Take implements trace.ChunkSource: a free chunk when there is one;
// otherwise the charge may evict recordings, whose chunks the capture then
// takes straight from the free list, or nil (allocate) when none came back.
func (s *captureSource) Take() *trace.Chunk {
	c := s.c
	c.mu.Lock()
	ch := c.popFreeLocked(s)
	if ch == nil {
		s.chargeLocked(trace.ChunkBytes)
		c.enforceCapLocked()
		c.unlock()
		c.mu.Lock()
		if ch = c.popFreeLocked(s); ch != nil {
			s.chargeLocked(-trace.ChunkBytes) // popFreeLocked charged its own size
		}
	}
	if ch != nil {
		c.work.ChunksReused++
	} else {
		c.work.ChunksAllocated++
	}
	c.mu.Unlock()
	return ch
}

// Put implements trace.ChunkSource.
func (s *captureSource) Put(chunks []*trace.Chunk) { s.c.putChunks(chunks) }

// chargeLocked counts n more bytes against the bound for the capture, as
// long as its entry is still the cache's.
func (s *captureSource) chargeLocked(n int64) {
	if s.c.entries[s.k] != s.e {
		return
	}
	s.e.bytes += n
	s.c.curBytes += n
	s.c.capBytes += n
}

// popFreeLocked takes a free chunk for capture s, moving its bytes from the
// free list to the capture's charge, or returns nil.
func (c *Cache) popFreeLocked(s *captureSource) *trace.Chunk {
	n := len(c.free)
	if n == 0 {
		return nil
	}
	ch := c.free[n-1]
	c.free[n-1] = nil
	c.free = c.free[:n-1]
	c.freeBytes -= ch.Bytes()
	s.chargeLocked(ch.Bytes())
	return ch
}

// putChunks takes back a recycled recording's chunks. The free list only
// fills the bound's headroom: a chunk that would push resident plus free
// bytes past maxBytes is left to the garbage collector, and so is every
// chunk of an unbounded cache.
func (c *Cache) putChunks(chunks []*trace.Chunk) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range chunks {
		b := ch.Bytes()
		if c.maxBytes <= 0 || c.curBytes+c.freeBytes+b > c.maxBytes {
			return
		}
		c.free = append(c.free, ch)
		c.freeBytes += b
	}
}
