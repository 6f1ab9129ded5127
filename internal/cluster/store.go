// Package cluster turns a set of independent sptd daemons into one
// crash-tolerant simulation service: a tiered content-addressed result
// store (memory → checksummed disk spill → HTTP peer fetch), consistent-
// hash request routing on the program fingerprint, and journal-backed work
// stealing when a node dies. The design mirrors the paper's speculation
// discipline at the serving layer: every tier is allowed to be wrong
// (evicted, torn, stale) as long as mis-speculation is detected by
// checksum and recovery falls back to the next tier — ultimately to
// recomputation, which is always correct.
package cluster

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Key derives a store key: a sha256 over its NUL-separated arguments. The
// pipeline passes a single argument, the request's service.Identity.
func Key(kind string, parts ...string) string {
	h := sha256.New()
	io.WriteString(h, kind)
	for _, p := range parts {
		io.WriteString(h, "\x00")
		io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The in-process LRU holds at most memEntries results and memBytes of
// payload; the most recent entry stays even when it alone is larger.
const (
	memEntries = 512
	memBytes   = 64 << 20
)

// StoreConfig sizes a Store. Zero values take the documented defaults.
type StoreConfig struct {
	// Dir is the disk-spill root ("" = memory tier only). Layout:
	//
	//	index/<key>         one line: hex sha256 of the payload
	//	objects/<sha256hex> the payload; the filename IS its checksum
	//	quarantine/         corrupt files moved here, never served
	//
	// Writes are atomic (tmp + fsync + rename), so the spill survives
	// SIGKILL: a torn write is at worst an orphaned tmp file.
	Dir string
	// MaxObjectBytes bounds one stored object (default 64 MiB; negative =
	// unbounded). Put refuses larger payloads and the peer-fetch tier skips
	// them, both counted in the Oversized stat — otherwise a locally stored
	// object bigger than the fetch limit would be truncated on every peer
	// fetch, fail the checksum, and silently force recomputation.
	MaxObjectBytes int64
	// HTTPClient fetches from peers (nil = a 2s-timeout client).
	HTTPClient *http.Client
	// OnDegraded, when non-nil, is called with true when the disk tier
	// starts failing writes (the node keeps serving from memory and
	// recompute) and false when a later disk write succeeds.
	OnDegraded func(degraded bool)
	// OnPut, when non-nil, is called after every locally computed Put with
	// the stored key — the replication hook. PutReplica (objects arriving
	// FROM replication) deliberately does not fire it, or two replicas
	// would push the same object back and forth forever.
	OnPut func(key string)
	// QuarantineMaxFiles bounds how many corrupt files quarantine/ may hold
	// (default 64; negative = unbounded). Oldest files are evicted first.
	QuarantineMaxFiles int
	// QuarantineMaxBytes bounds quarantine/'s total payload bytes (default
	// 16 MiB; negative = unbounded).
	QuarantineMaxBytes int64
}

// StoreStats are the Store's lifetime counters.
type StoreStats struct {
	MemHits     int64
	DiskHits    int64
	PeerHits    int64
	Misses      int64
	Writes      int64
	WriteErrors int64
	Quarantined int64 // corrupt disk files detected, moved aside, never served
	Oversized   int64 // payloads rejected at Put or skipped at peer fetch for exceeding MaxObjectBytes
}

// Store is the tiered result store: in-process LRU over a content-
// addressed checksummed disk spill over HTTP peer fetch. All tiers are
// read-through: a hit in a lower tier populates the tiers above it.
type Store struct {
	cfg  StoreConfig
	http *http.Client

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recent
	bytes   int64
	peers   func() []string // alive peer base URLs (excluding self); nil = no peer tier

	degraded atomic.Bool

	memHits, diskHits, peerHits atomic.Int64
	misses, writes, writeErrors atomic.Int64
	quarantined, oversized      atomic.Int64

	qmu             sync.Mutex   // serializes quarantine-dir eviction scans
	quarantineBytes atomic.Int64 // bytes currently held in quarantine/
}

type memEntry struct {
	key     string
	payload []byte
}

// NewStore builds the store and creates the disk layout when Dir is set.
func NewStore(cfg StoreConfig) (*Store, error) {
	if cfg.MaxObjectBytes == 0 {
		cfg.MaxObjectBytes = 64 << 20
	}
	if cfg.MaxObjectBytes < 0 {
		cfg.MaxObjectBytes = 0 // unbounded
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 2 * time.Second}
	}
	if cfg.QuarantineMaxFiles == 0 {
		cfg.QuarantineMaxFiles = 64
	}
	if cfg.QuarantineMaxFiles < 0 {
		cfg.QuarantineMaxFiles = 0 // unbounded
	}
	if cfg.QuarantineMaxBytes == 0 {
		cfg.QuarantineMaxBytes = 16 << 20
	}
	if cfg.QuarantineMaxBytes < 0 {
		cfg.QuarantineMaxBytes = 0 // unbounded
	}
	s := &Store{
		cfg:     cfg,
		http:    cfg.HTTPClient,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
	if cfg.Dir != "" {
		for _, sub := range []string{"index", "objects", "quarantine"} {
			if err := os.MkdirAll(filepath.Join(cfg.Dir, sub), 0o755); err != nil {
				return nil, fmt.Errorf("cluster: store dir: %w", err)
			}
		}
		// A restart inherits whatever the previous process quarantined;
		// seed the gauge and re-apply the cap so the directory cannot keep
		// growing across process lifetimes.
		s.enforceQuarantineCap()
	}
	return s, nil
}

// SetPeerSource installs the alive-peers provider (the cluster Manager's
// view). Installed after construction because the manager itself needs the
// store for its HTTP middleware.
func (s *Store) SetPeerSource(peers func() []string) {
	s.mu.Lock()
	s.peers = peers
	s.mu.Unlock()
}

// SetOnPut installs the replication hook after construction (the manager
// owns the replicator but the store is built first, same dance as
// SetPeerSource). Put reads the hook without the LRU lock held, so a
// concurrent SetOnPut during startup is the owner's responsibility to
// sequence — sptd installs it before serving traffic.
func (s *Store) SetOnPut(fn func(key string)) { s.cfg.OnPut = fn }

// Stats snapshots the counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		MemHits:     s.memHits.Load(),
		DiskHits:    s.diskHits.Load(),
		PeerHits:    s.peerHits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrors.Load(),
		Quarantined: s.quarantined.Load(),
		Oversized:   s.oversized.Load(),
	}
}

// Degraded reports whether the disk tier is currently failing writes.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// Get resolves key through the tiers: memory, then disk (checksum
// verified; corrupt files quarantined and treated as misses), then alive
// peers. Lower-tier hits populate the tiers above. The final bool is false
// on a full miss — the caller recomputes.
func (s *Store) Get(key string) ([]byte, bool) {
	if p, ok := s.memGet(key); ok {
		s.memHits.Add(1)
		return p, true
	}
	if p, ok := s.diskGet(key); ok {
		s.diskHits.Add(1)
		s.memPut(key, p)
		return p, true
	}
	if p, ok := s.peerGet(key); ok {
		s.peerHits.Add(1)
		s.memPut(key, p)
		s.diskPut(key, p) // spill the fetched copy so a restart keeps it
		return p, true
	}
	s.misses.Add(1)
	return nil, false
}

// GetLocal resolves key through the local tiers only (memory, disk) — the
// read path of the peer-fetch HTTP endpoint, which must never recurse into
// its own peer tier.
func (s *Store) GetLocal(key string) ([]byte, bool) {
	if p, ok := s.memGet(key); ok {
		s.memHits.Add(1)
		return p, true
	}
	if p, ok := s.diskGet(key); ok {
		s.diskHits.Add(1)
		s.memPut(key, p)
		return p, true
	}
	return nil, false
}

// Put stores a computed payload in memory and on disk, then fires the
// OnPut replication hook. Payloads over MaxObjectBytes are refused and
// counted: storing one would poison the peer tier, whose bounded fetch
// would truncate it and fail the checksum on every sibling, silently
// recomputing forever.
func (s *Store) Put(key string, payload []byte) {
	if s.cfg.MaxObjectBytes > 0 && int64(len(payload)) > s.cfg.MaxObjectBytes {
		s.oversized.Add(1)
		return
	}
	s.writes.Add(1)
	s.memPut(key, payload)
	s.diskPut(key, payload)
	if s.cfg.OnPut != nil {
		s.cfg.OnPut(key)
	}
}

// PutReplica stores a payload that arrived FROM replication (a push or an
// anti-entropy pull). Identical to Put except it never fires OnPut: a
// replica landing must not re-trigger a push, or two replicas would bounce
// the same object between themselves forever.
func (s *Store) PutReplica(key string, payload []byte) {
	if s.cfg.MaxObjectBytes > 0 && int64(len(payload)) > s.cfg.MaxObjectBytes {
		s.oversized.Add(1)
		return
	}
	s.writes.Add(1)
	s.memPut(key, payload)
	s.diskPut(key, payload)
}

// Has reports whether key resolves locally (memory or disk index) without
// reading or verifying the payload — the cheap existence probe replication
// uses to decide what to push.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	_, inMem := s.entries[key]
	s.mu.Unlock()
	if inMem {
		return true
	}
	if s.cfg.Dir == "" {
		return false
	}
	_, err := os.Stat(s.indexPath(key))
	return err == nil
}

// KeySums enumerates every locally stored key with its payload sha256 (hex)
// — the raw material for anti-entropy digests. Disk is authoritative when
// present (index files already record the sum); with no disk tier the sums
// are computed from the memory entries. Keys are the sanitized on-disk
// form, which is the form peers address objects by.
func (s *Store) KeySums() map[string]string {
	out := make(map[string]string)
	if s.cfg.Dir != "" {
		entries, err := os.ReadDir(filepath.Join(s.cfg.Dir, "index"))
		if err == nil {
			for _, e := range entries {
				if e.IsDir() || strings.HasPrefix(e.Name(), ".tmp-") {
					continue
				}
				sumBytes, err := os.ReadFile(filepath.Join(s.cfg.Dir, "index", e.Name()))
				if err != nil {
					continue
				}
				sum := strings.TrimSpace(string(sumBytes))
				if isHex(sum) && len(sum) == sha256.Size*2 {
					out[e.Name()] = sum
				}
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, el := range s.entries {
		sk := sanitizeKey(key)
		if _, ok := out[sk]; ok {
			continue
		}
		sum := sha256.Sum256(el.Value.(*memEntry).payload)
		out[sk] = hex.EncodeToString(sum[:])
	}
	return out
}

// --- memory tier ---

func (s *Store) memGet(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*memEntry).payload, true
}

func (s *Store) memPut(key string, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		old := el.Value.(*memEntry)
		s.bytes += int64(len(payload)) - int64(len(old.payload))
		old.payload = payload
	} else {
		s.entries[key] = s.lru.PushFront(&memEntry{key: key, payload: payload})
		s.bytes += int64(len(payload))
	}
	for s.lru.Len() > memEntries || (s.bytes > memBytes && s.lru.Len() > 1) {
		el := s.lru.Back()
		ent := el.Value.(*memEntry)
		s.lru.Remove(el)
		delete(s.entries, ent.key)
		s.bytes -= int64(len(ent.payload))
	}
}

// --- disk tier ---

func (s *Store) indexPath(key string) string {
	return filepath.Join(s.cfg.Dir, "index", sanitizeKey(key))
}

func (s *Store) objectPath(sum string) string {
	return filepath.Join(s.cfg.Dir, "objects", sum)
}

// sanitizeKey keeps arbitrary keys filesystem-safe (keys from Key() are
// already hex, but the store does not require that).
func sanitizeKey(key string) string {
	if isHex(key) {
		return key
	}
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func isHex(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

func (s *Store) diskGet(key string) ([]byte, bool) {
	if s.cfg.Dir == "" {
		return nil, false
	}
	idx := s.indexPath(key)
	sumBytes, err := os.ReadFile(idx)
	if err != nil {
		return nil, false
	}
	sum := strings.TrimSpace(string(sumBytes))
	if !isHex(sum) || len(sum) != sha256.Size*2 {
		// The index file itself is corrupt: quarantine it; the object (if
		// any) stays — another intact index may still reference it.
		s.quarantine(idx)
		return nil, false
	}
	payload, err := os.ReadFile(s.objectPath(sum))
	if err != nil {
		return nil, false
	}
	if got := sha256.Sum256(payload); hex.EncodeToString(got[:]) != sum {
		// Bit rot or a torn write that slipped past rename atomicity: the
		// object's content no longer matches its name. Quarantine both
		// sides so nothing ever serves it, and miss — the caller
		// recomputes and rewrites a good copy.
		s.quarantine(s.objectPath(sum))
		s.quarantine(idx)
		return nil, false
	}
	return payload, true
}

// quarantine moves a corrupt file into the quarantine/ directory (best
// effort; removal is the fallback so a corrupt file is never re-read),
// then evicts oldest-first past the configured count/byte caps so an
// ongoing corruption source cannot fill the disk with evidence.
func (s *Store) quarantine(path string) {
	s.quarantined.Add(1)
	dst := filepath.Join(s.cfg.Dir, "quarantine", filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		_ = os.Remove(path)
		return
	}
	s.enforceQuarantineCap()
}

// enforceQuarantineCap rescans quarantine/, refreshes the byte gauge, and
// deletes oldest files until both the file-count and byte caps hold.
func (s *Store) enforceQuarantineCap() {
	if s.cfg.Dir == "" {
		return
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	dir := filepath.Join(s.cfg.Dir, "quarantine")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type qfile struct {
		name string
		size int64
		mod  time.Time
	}
	var files []qfile
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, qfile{name: e.Name(), size: info.Size(), mod: info.ModTime()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod)
		}
		return files[i].name < files[j].name // deterministic tie-break
	})
	for len(files) > 0 &&
		((s.cfg.QuarantineMaxFiles > 0 && len(files) > s.cfg.QuarantineMaxFiles) ||
			(s.cfg.QuarantineMaxBytes > 0 && total > s.cfg.QuarantineMaxBytes)) {
		victim := files[0]
		files = files[1:]
		if err := os.Remove(filepath.Join(dir, victim.name)); err == nil {
			total -= victim.size
		}
	}
	s.quarantineBytes.Store(total)
}

func (s *Store) diskPut(key string, payload []byte) {
	if s.cfg.Dir == "" {
		return
	}
	sum := sha256.Sum256(payload)
	sumHex := hex.EncodeToString(sum[:])
	// Object first, index second: an index must never point at an object
	// that does not exist yet. A crash between the two leaves an orphaned
	// object — wasted bytes, not wrong answers.
	if err := atomicWrite(s.objectPath(sumHex), payload); err != nil {
		s.recordWriteError()
		return
	}
	if err := atomicWrite(s.indexPath(key), []byte(sumHex+"\n")); err != nil {
		s.recordWriteError()
		return
	}
	s.recordWriteOK()
}

func (s *Store) recordWriteError() {
	s.writeErrors.Add(1)
	if !s.degraded.Swap(true) && s.cfg.OnDegraded != nil {
		s.cfg.OnDegraded(true)
	}
}

func (s *Store) recordWriteOK() {
	if s.degraded.Swap(false) && s.cfg.OnDegraded != nil {
		s.cfg.OnDegraded(false)
	}
}

// atomicWrite writes data so a SIGKILL never leaves a half-written file at
// path: tmp in the same directory, fsync, rename.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// --- peer tier ---

// storeContentHeader carries the payload's sha256 on the peer-fetch
// response; the fetcher verifies it before trusting the bytes.
const storeContentHeader = "X-Spt-Store-Sha256"

func (s *Store) peerGet(key string) ([]byte, bool) {
	s.mu.Lock()
	peers := s.peers
	s.mu.Unlock()
	if peers == nil {
		return nil, false
	}
	for _, base := range peers() {
		resp, err := s.http.Get(base + "/v1/store/" + sanitizeKey(key))
		if err != nil {
			continue
		}
		var body io.Reader = resp.Body
		if s.cfg.MaxObjectBytes > 0 {
			// One byte past the bound distinguishes "exactly at the limit"
			// from "too large" without reading an unbounded response.
			body = io.LimitReader(resp.Body, s.cfg.MaxObjectBytes+1)
		}
		payload, err := io.ReadAll(body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		if s.cfg.MaxObjectBytes > 0 && int64(len(payload)) > s.cfg.MaxObjectBytes {
			s.oversized.Add(1)
			continue // the peer accepts bigger objects than this store does
		}
		want := resp.Header.Get(storeContentHeader)
		sum := sha256.Sum256(payload)
		if want == "" || hex.EncodeToString(sum[:]) != want {
			continue // a peer serving corrupt bytes is treated as absent
		}
		return payload, true
	}
	return nil, false
}

// ServeKey handles one local-only store read over HTTP (mounted by the
// cluster manager at GET /v1/store/{key}).
func (s *Store) ServeKey(w http.ResponseWriter, key string) {
	payload, ok := s.GetLocal(key)
	if !ok {
		http.Error(w, "not in local store", http.StatusNotFound)
		return
	}
	sum := sha256.Sum256(payload)
	w.Header().Set(storeContentHeader, hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(payload)
}

// Metrics renders the store counters as Prometheus text (appended to the
// daemon's /metrics through service.Config.ExtraMetrics).
func (s *Store) Metrics(w io.Writer) {
	st := s.Stats()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("sptd_store_mem_hits_total", "Tiered-store reads served from the in-process LRU.", st.MemHits)
	counter("sptd_store_disk_hits_total", "Tiered-store reads served from the checksummed disk spill.", st.DiskHits)
	counter("sptd_store_peer_hits_total", "Tiered-store reads served by fetching from an alive peer.", st.PeerHits)
	counter("sptd_store_misses_total", "Tiered-store reads that fell through to recomputation.", st.Misses)
	counter("sptd_store_writes_total", "Computed results written into the store.", st.Writes)
	counter("sptd_store_write_errors_total", "Disk-spill writes that failed (store runs degraded while these grow).", st.WriteErrors)
	counter("sptd_store_quarantined_total", "Corrupt disk files detected by checksum, moved to quarantine, never served.", st.Quarantined)
	counter("sptd_store_oversized_total", "Payloads refused at Put or skipped at peer fetch for exceeding MaxObjectBytes.", st.Oversized)
	deg := 0
	if s.Degraded() {
		deg = 1
	}
	fmt.Fprintf(w, "# HELP sptd_store_degraded 1 while the disk tier is failing writes.\n# TYPE sptd_store_degraded gauge\nsptd_store_degraded %d\n", deg)
	fmt.Fprintf(w, "# HELP sptd_store_quarantine_bytes Bytes currently held in the capped quarantine directory.\n# TYPE sptd_store_quarantine_bytes gauge\nsptd_store_quarantine_bytes %d\n", s.quarantineBytes.Load())
}

// QuarantineBytes reports the byte gauge for tests and the cluster view.
func (s *Store) QuarantineBytes() int64 { return s.quarantineBytes.Load() }
