// Package artifact memoizes the expensive artifacts of the evaluation
// pipeline — generated benchmark programs, compile results, profiles and
// simulation statistics — so that sweeps revisiting the same
// (program, configuration) point do the work exactly once.
//
// Programs are identified by content: Fingerprint hashes the canonical
// disassembly, so two structurally identical programs share cache lines no
// matter how they were produced. Simulation results are additionally keyed
// by the canonicalized machine configuration (arch.Config.Canonical), which
// folds away speculation parameters that cannot influence a baseline run —
// one baseline simulation then serves a whole ablation sweep.
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

// fpCache memoizes fingerprints per *ir.Program. Pipeline stages treat
// programs as immutable once built (the compiler clones its input), so a
// pointer identity maps to a stable hash.
var fpCache sync.Map // *ir.Program -> string

// Fingerprint returns a content hash of the program: the sha256 of its
// canonical disassembly. It is memoized per program pointer; callers must
// not mutate a program after fingerprinting it.
func Fingerprint(p *ir.Program) string {
	if p == nil {
		return ""
	}
	if v, ok := fpCache.Load(p); ok {
		return v.(string)
	}
	sum := sha256.Sum256([]byte(p.Disasm()))
	fp := hex.EncodeToString(sum[:])
	fpCache.Store(p, fp)
	return fp
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

	// bytes is the completed value's CacheBytes (0 for unsized values). It
	// is written before done closes and read only by eviction paths, which
	// all require a completed entry.
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
	curBytes int64      // resident Sized bytes; guarded by mu

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	recHits   atomic.Int64
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
// hashed fresh, NOT through the memoized Fingerprint, which would return
// the pre-corruption hash for a mutated program). Other types report
// ok=false and are exempt.
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
	RecordingMisses int64 // recording lookups that had to interpret
	Bytes           int64 // resident bytes of Sized artifacts (recordings)
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
	bytes := c.curBytes
	c.mu.Unlock()
	return Stats{
		Hits:               c.hits.Load(),
		Misses:             c.misses.Load(),
		Entries:            n,
		Evictions:          c.evictions.Load(),
		IntegrityEvictions: c.integrityEvictions.Load(),
		RecordingHits:      c.recHits.Load(),
		RecordingMisses:    c.recMisses.Load(),
		Bytes:              bytes,
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
	}
	c.entries = nil
	c.lru = nil
	c.curBytes = 0
	c.mu.Unlock()
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
	c.integrityEvictions.Add(1)
	return true
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
// integrity checksum and byte footprint, and done is closed on every path
// so waiters never block forever.
func (c *Cache) complete(k key, e *entry) {
	if e.err != nil {
		c.evict(k, e)
	} else {
		if c.integrity.Load() {
			e.sum, e.summed = checksumOf(e.val) // before close: hits read after <-done
		}
		if s, ok := e.val.(Sized); ok {
			// Record the footprint before done closes: every eviction
			// path requires a completed entry, so the add below is
			// always observed before any subtract.
			e.bytes = s.CacheBytes()
			c.mu.Lock()
			if c.entries[k] == e {
				c.curBytes += e.bytes
			} else {
				e.bytes = 0 // detached by a concurrent Reset
			}
			c.mu.Unlock()
		}
	}
	close(e.done)
	// Now that this entry is evictable, re-check the bound: inserts that
	// happened while it was in-flight may have left an overflow.
	c.mu.Lock()
	c.enforceCapLocked()
	c.mu.Unlock()
}

// do returns the cached value for k, computing it with fn on first use.
// Concurrent callers for the same key share one computation.
func (c *Cache) do(k key, fn func() (any, error)) (any, error) {
	if c == nil {
		return fn()
	}
	c.mu.Lock()
	if e, ok := c.entries[k]; ok && !c.staleLocked(k, e) {
		if e.elem != nil && c.lru != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		c.hits.Add(1)
		if k.kind == kindRecording {
			c.recHits.Add(1)
		}
		<-e.done
		return e.val, e.err
	}
	e := c.claimLocked(k)
	c.enforceCapLocked()
	c.mu.Unlock()
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
	e.val, e.err = fn()
	return e.val, e.err
}

// evict removes the entry for k if it is still the one we installed (a
// Reset may have dropped the whole map in between).
func (c *Cache) evict(k key, e *entry) {
	c.mu.Lock()
	if c.entries[k] == e {
		delete(c.entries, k)
		if e.elem != nil && c.lru != nil {
			c.lru.Remove(e.elem)
			e.elem = nil
		}
		c.curBytes -= e.bytes
	}
	c.mu.Unlock()
}

// cached adapts do to a typed computation.
func cached[T any](c *Cache, k key, fn func() (T, error)) (T, error) {
	v, err := c.do(k, func() (any, error) { return fn() })
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
	k := key{kind: "compile", a: Fingerprint(p), b: optsKey}
	return cached(c, k, fn)
}

// Profile memoizes a profiling run of program p; extra distinguishes
// profiling variants (e.g. step limits).
func (c *Cache) Profile(p *ir.Program, extra string, fn func() (*profiler.Profile, error)) (*profiler.Profile, error) {
	k := key{kind: "profile", a: Fingerprint(p), b: extra}
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
	fp := Fingerprint(p)
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
	c.mu.Unlock()
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

// Recording memoizes a captured execution trace of program p, keyed by the
// program fingerprint and the step limit it was captured under (a limit is
// part of the trace's identity: a capture that exceeds it fails, and errors
// are never cached). Concurrent simulations of the same program coalesce
// onto one interpretation and replay the shared capture; the recording is
// read-only for every caller (replay never mutates it) and must not be
// Released while the cache can still serve it.
func (c *Cache) Recording(p *ir.Program, stepLimit int64, fn func() (*trace.Recording, error)) (*trace.Recording, error) {
	k := key{kind: kindRecording, a: Fingerprint(p), b: fmt.Sprintf("limit=%d", stepLimit)}
	return cached(c, k, fn)
}

// ReleaseRecordings evicts every completed recording and returns their
// chunk storage to the shared pool. It is ONLY safe on a private cache
// whose users have all finished: a released recording's chunks are
// immediately reusable, so releasing under a still-running replayer
// corrupts that replay. Sweep-local caches call this after their last
// variant joins; long-lived shared caches (the daemon) must rely on LRU
// eviction plus garbage collection instead.
func (c *Cache) ReleaseRecordings() {
	if c == nil {
		return
	}
	var recs []*trace.Recording
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
		if r, ok := e.val.(*trace.Recording); ok && r != nil {
			recs = append(recs, r)
		}
	}
	c.mu.Unlock()
	for _, r := range recs {
		r.Release()
	}
}
