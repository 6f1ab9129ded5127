package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/service"
	"repro/spt/client"
)

func newDiskStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := NewStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s
}

func TestStoreDiskSpillSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	key := Key("simulate", "parser", "1")
	payload := []byte(`{"benchmark":"parser","speedup":1.5}`)

	s1 := newDiskStore(t, dir)
	s1.Put(key, payload)
	if got, ok := s1.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("writer Get = (%q, %v)", got, ok)
	}
	if st := s1.Stats(); st.MemHits != 1 || st.Writes != 1 {
		t.Fatalf("writer stats = %+v", st)
	}

	// A fresh store over the same dir is a daemon restart: the memory tier
	// is cold, the disk tier serves.
	s2 := newDiskStore(t, dir)
	if got, ok := s2.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("post-restart Get = (%q, %v)", got, ok)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("post-restart stats = %+v, want one disk hit, zero misses", st)
	}
	// The disk hit repopulated memory.
	s2.Get(key)
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("second read stats = %+v, want a mem hit", st)
	}
}

func TestStoreCorruptObjectQuarantinedThenRecomputed(t *testing.T) {
	dir := t.TempDir()
	key := Key("simulate", "mcf", "1")
	payload := []byte(`{"benchmark":"mcf"}`)
	newDiskStore(t, dir).Put(key, payload)

	// Rot a bit in the object file behind the store's back.
	objects := filepath.Join(dir, "objects")
	entries, err := os.ReadDir(objects)
	if err != nil || len(entries) != 1 {
		t.Fatalf("objects dir: %v entries, err %v", len(entries), err)
	}
	objPath := filepath.Join(objects, entries[0].Name())
	data, err := os.ReadFile(objPath)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(objPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s := newDiskStore(t, dir)
	if _, ok := s.Get(key); ok {
		t.Fatal("store served a corrupt payload")
	}
	st := s.Stats()
	if st.Quarantined < 1 || st.Misses != 1 {
		t.Fatalf("stats after corruption = %+v, want quarantine + miss", st)
	}
	// The corrupt file left the serving path.
	if _, err := os.Stat(objPath); !os.IsNotExist(err) {
		t.Fatalf("corrupt object still in objects/: %v", err)
	}
	q, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
	if len(q) < 1 {
		t.Fatal("quarantine dir is empty")
	}

	// The recompute-and-rewrite path heals the spill for the next restart.
	s.Put(key, payload)
	if got, ok := newDiskStore(t, dir).Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("post-heal restart Get = (%q, %v)", got, ok)
	}
}

func TestStoreCorruptIndexQuarantined(t *testing.T) {
	dir := t.TempDir()
	key := Key("compile", "gzip", "1")
	newDiskStore(t, dir).Put(key, []byte(`{"benchmark":"gzip"}`))

	idxPath := filepath.Join(dir, "index", key)
	if err := os.WriteFile(idxPath, []byte("zzz not a checksum\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newDiskStore(t, dir)
	if _, ok := s.Get(key); ok {
		t.Fatal("store followed a corrupt index")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want exactly the index quarantined", st)
	}
	if _, err := os.Stat(idxPath); !os.IsNotExist(err) {
		t.Fatalf("corrupt index still in index/: %v", err)
	}
}

func TestStoreDegradedOnWriteFailureAndRecovery(t *testing.T) {
	dir := t.TempDir()
	var flips []bool
	s, err := NewStore(StoreConfig{Dir: dir, OnDegraded: func(d bool) { flips = append(flips, d) }})
	if err != nil {
		t.Fatal(err)
	}
	// Replace objects/ with a regular file: every spill write now fails.
	objects := filepath.Join(dir, "objects")
	if err := os.RemoveAll(objects); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(objects, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	s.Put(Key("k", "1"), []byte("x"))
	if !s.Degraded() {
		t.Fatal("store not degraded after a failed spill write")
	}
	if len(flips) != 1 || !flips[0] {
		t.Fatalf("OnDegraded calls = %v, want [true]", flips)
	}
	// Staying degraded does not re-fire the callback.
	s.Put(Key("k", "2"), []byte("y"))
	if len(flips) != 1 {
		t.Fatalf("OnDegraded re-fired while already degraded: %v", flips)
	}
	if st := s.Stats(); st.WriteErrors != 2 {
		t.Fatalf("WriteErrors = %d, want 2", st.WriteErrors)
	}
	// Degraded means "no spill", not "no service": memory still answers.
	if got, ok := s.Get(Key("k", "1")); !ok || !bytes.Equal(got, []byte("x")) {
		t.Fatalf("memory tier lost data while degraded: (%q, %v)", got, ok)
	}

	// Disk comes back: the next successful write clears the condition.
	if err := os.Remove(objects); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(objects, 0o755); err != nil {
		t.Fatal(err)
	}
	s.Put(Key("k", "3"), []byte("z"))
	if s.Degraded() {
		t.Fatal("store still degraded after a successful write")
	}
	if len(flips) != 2 || flips[1] {
		t.Fatalf("OnDegraded calls = %v, want [true false]", flips)
	}
}

func TestStorePeerFetchVerifiedAndSpilled(t *testing.T) {
	dirA := t.TempDir()
	a := newDiskStore(t, dirA)
	key := Key("simulate", "twolf", "1")
	payload := []byte(`{"benchmark":"twolf"}`)
	a.Put(key, payload)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a.ServeKey(w, strings.TrimPrefix(r.URL.Path, "/v1/store/"))
	}))
	defer ts.Close()

	dirB := t.TempDir()
	b := newDiskStore(t, dirB)
	b.SetPeerSource(func() []string { return []string{ts.URL} })
	if got, ok := b.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("peer Get = (%q, %v)", got, ok)
	}
	if st := b.Stats(); st.PeerHits != 1 || st.Misses != 0 {
		t.Fatalf("fetcher stats = %+v, want one peer hit", st)
	}
	// The serving node answered from its local tiers, never recursing into
	// its own peer tier.
	if st := a.Stats(); st.PeerHits != 0 {
		t.Fatalf("server stats = %+v, peer recursion detected", st)
	}
	// The fetched copy was spilled: a cold restart of B (no peers) serves
	// it from disk.
	b2 := newDiskStore(t, dirB)
	if got, ok := b2.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("post-restart Get on fetcher = (%q, %v)", got, ok)
	}
	if st := b2.Stats(); st.DiskHits != 1 {
		t.Fatalf("post-restart fetcher stats = %+v, want a disk hit", st)
	}
}

func TestStorePeerCorruptionRejected(t *testing.T) {
	payload := []byte(`{"benchmark":"vpr"}`)
	wrongSum := sha256.Sum256([]byte("something else"))
	lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Spt-Store-Sha256", hex.EncodeToString(wrongSum[:]))
		_, _ = w.Write(payload)
	}))
	defer lying.Close()
	headerless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(payload)
	}))
	defer headerless.Close()

	s, err := NewStore(StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetPeerSource(func() []string { return []string{lying.URL, headerless.URL} })
	if _, ok := s.Get(Key("simulate", "vpr", "1")); ok {
		t.Fatal("accepted a peer payload whose checksum did not verify")
	}
	if st := s.Stats(); st.Misses != 1 || st.PeerHits != 0 {
		t.Fatalf("stats = %+v, want a clean miss", st)
	}
}

// TestStoreOversizedRejectedAtPutAndPeerFetch: an object over
// MaxObjectBytes is refused at Put (storing it would make every peer fetch
// truncate it and fail the checksum) and skipped — counted, not silently
// recomputed — when a peer serves one anyway.
func TestStoreOversizedRejectedAtPutAndPeerFetch(t *testing.T) {
	st, err := NewStore(StoreConfig{Dir: t.TempDir(), MaxObjectBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	st.Put("big", bytes.Repeat([]byte{0xab}, 9))
	if _, ok := st.Get("big"); ok {
		t.Fatal("oversized payload was stored")
	}
	if got := st.Stats(); got.Oversized != 1 || got.Writes != 0 {
		t.Fatalf("stats = %+v, want Oversized=1 Writes=0", got)
	}
	// Exactly at the bound is fine.
	st.Put("fits", []byte("12345678"))
	if p, ok := st.Get("fits"); !ok || !bytes.Equal(p, []byte("12345678")) {
		t.Fatalf("at-bound payload lost: (%q, %v)", p, ok)
	}

	// A peer with a larger bound serves a 9-byte object with a valid
	// checksum; the bounded fetcher must skip it and count the skip.
	big := bytes.Repeat([]byte{0xcd}, 9)
	sum := sha256.Sum256(big)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Spt-Store-Sha256", hex.EncodeToString(sum[:]))
		_, _ = w.Write(big)
	}))
	defer peer.Close()
	st.SetPeerSource(func() []string { return []string{peer.URL} })
	if _, ok := st.Get("huge-elsewhere"); ok {
		t.Fatal("accepted a peer object over MaxObjectBytes")
	}
	if got := st.Stats(); got.Oversized != 2 {
		t.Fatalf("stats = %+v, want the peer skip counted (Oversized=2)", got)
	}
}

// countingPipeline is a service.Pipeline that counts real computations.
type countingPipeline struct {
	compiles, simulates, sweeps atomic.Int64
}

func (p *countingPipeline) Compile(ctx context.Context, req client.CompileRequest, b guard.Budget) (*client.CompileResponse, error) {
	p.compiles.Add(1)
	return &client.CompileResponse{Benchmark: req.Benchmark, Fingerprint: "fp-" + req.Benchmark}, nil
}

func (p *countingPipeline) Simulate(ctx context.Context, req client.SimulateRequest, b guard.Budget) (*client.SimulateResponse, error) {
	p.simulates.Add(1)
	return &client.SimulateResponse{Benchmark: req.Benchmark, Speedup: 1.25}, nil
}

func (p *countingPipeline) Sweep(ctx context.Context, req client.SweepRequest, b guard.Budget) (*client.SweepResponse, error) {
	p.sweeps.Add(1)
	return &client.SweepResponse{Benchmark: req.Benchmark, Sweep: req.Sweep}, nil
}

var _ service.Pipeline = (*countingPipeline)(nil)

func TestPipelineReadThroughKeysOnResultFields(t *testing.T) {
	store, err := NewStore(StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cp := &countingPipeline{}
	p := NewPipeline(cp, store)
	ctx := context.Background()

	req := client.SimulateRequest{Benchmark: "parser", SRB: 64}
	r1, err := p.Simulate(ctx, req, guard.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Simulate(ctx, req, guard.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if cp.simulates.Load() != 1 {
		t.Fatalf("simulate computed %d times, want 1 (second call hits the store)", cp.simulates.Load())
	}
	if r2.Speedup != r1.Speedup || r2.Benchmark != r1.Benchmark {
		t.Fatalf("cached response %+v != computed %+v", r2, r1)
	}

	// A different result-determining field is a different key.
	req2 := req
	req2.SRB = 128
	if _, err := p.Simulate(ctx, req2, guard.Budget{}); err != nil {
		t.Fatal(err)
	}
	if cp.simulates.Load() != 2 {
		t.Fatalf("SRB change did not recompute: %d", cp.simulates.Load())
	}

	// Every other machine field of the request is result-determining too.
	for _, tc := range []struct {
		field string
		mut   func(*client.SimulateRequest)
	}{
		{"Cores", func(r *client.SimulateRequest) { r.Cores = 4 }},
		// The policy counts where it can act: eager restart needs a
		// successor core to squash, the stride policy a stride above 1.
		{"Sched", func(r *client.SimulateRequest) { r.Sched = "eager"; r.Cores = 4 }},
		{"Sched", func(r *client.SimulateRequest) { r.Sched = "stride"; r.Cores = 4; r.Stride = 3 }},
		// The stride counts under the stride policy only.
		{"Stride", func(r *client.SimulateRequest) { r.Sched = "stride"; r.Stride = 2 }},
		{"LiveIn", func(r *client.SimulateRequest) { r.LiveIn = "slice" }},
	} {
		mreq := req
		tc.mut(&mreq)
		before := cp.simulates.Load()
		if _, err := p.Simulate(ctx, mreq, guard.Budget{}); err != nil {
			t.Fatal(err)
		}
		if cp.simulates.Load() != before+1 {
			t.Errorf("simulate %s change was served from the store", tc.field)
		}
	}
	// Cores sets the machine of the sched and livein sweep families.
	for _, cores := range []int{2, 4} {
		before := cp.sweeps.Load()
		sweep := client.SweepRequest{Benchmark: "parser", Sweep: "livein", Cores: cores}
		if _, err := p.Sweep(ctx, sweep, guard.Budget{}); err != nil {
			t.Fatal(err)
		}
		if cp.sweeps.Load() != before+1 {
			t.Errorf("sweep cores=%d was served from the store", cores)
		}
	}
	base := cp.simulates.Load()

	// Budgets only bound execution; they must not fragment the store.
	budgeted := req
	budgeted.Cycles = 999999
	if _, err := p.Simulate(ctx, budgeted, guard.Budget{Cycles: 999999}); err != nil {
		t.Fatal(err)
	}
	if cp.simulates.Load() != base {
		t.Fatalf("budget fields leaked into the store key: %d computes", cp.simulates.Load())
	}

	// Scale 0 and scale 1 are the same program.
	if _, err := p.Compile(ctx, client.CompileRequest{Benchmark: "gap"}, guard.Budget{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Compile(ctx, client.CompileRequest{Benchmark: "gap", Scale: 1}, guard.Budget{}); err != nil {
		t.Fatal(err)
	}
	if cp.compiles.Load() != 1 {
		t.Fatalf("scale default fragmented the key space: %d computes", cp.compiles.Load())
	}

	// The key is the canonical machine, not the spelling: each of eight
	// knobs omitted or spelled at its default, all 2^8 ways, is one result.
	// A stride outside the stride policy is a default spelling too.
	defaults := []func(*client.SimulateRequest){
		func(r *client.SimulateRequest) { r.Cores = 2 },
		func(r *client.SimulateRequest) { r.Stride = 1 },
		func(r *client.SimulateRequest) { r.Recovery = "srxfc" },
		func(r *client.SimulateRequest) { r.RegCheck = "value" },
		func(r *client.SimulateRequest) { r.SRB = 1024 },
		func(r *client.SimulateRequest) { r.Sched = "inorder" },
		func(r *client.SimulateRequest) { r.LiveIn = "svp" },
		func(r *client.SimulateRequest) { r.Stride = 2 },
	}
	before := cp.simulates.Load()
	for mask := 0; mask < 1<<len(defaults); mask++ {
		spelled := client.SimulateRequest{Benchmark: "mcf"}
		for i, set := range defaults {
			if mask&(1<<i) != 0 {
				set(&spelled)
			}
		}
		if _, err := p.Simulate(ctx, spelled, guard.Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := cp.simulates.Load() - before; got != 1 {
		t.Fatalf("256 spellings of the default machine computed %d times, want 1", got)
	}
	// A policy that cannot act spells the default machine too.
	for _, spelled := range []client.SimulateRequest{
		{Benchmark: "mcf", Sched: "eager"},
		{Benchmark: "mcf", Sched: "eager", Cores: 2},
		{Benchmark: "mcf", Sched: "stride"},
		{Benchmark: "mcf", Sched: "stride", Stride: 1},
	} {
		if SimulateKey(spelled) != SimulateKey(client.SimulateRequest{Benchmark: "mcf"}) {
			t.Errorf("%+v: store key differs from the default machine's", spelled)
		}
		if _, err := p.Simulate(ctx, spelled, guard.Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := cp.simulates.Load() - before; got != 1 {
		t.Fatalf("sched spellings of the default machine computed %d times in all, want 1", got)
	}
	if SimulateKey(client.SimulateRequest{Benchmark: "mcf", Sched: "eager", Cores: 4}) ==
		SimulateKey(client.SimulateRequest{Benchmark: "mcf", Cores: 4}) {
		t.Error("eager restart on 4 cores shares the in-order machine's store key")
	}

	// A sweep's Cores and Points count only through the variants they
	// produce: families that ignore Cores, and points spelling out the
	// default list, share the key of the plain request.
	sweepOnce := func(what, benchmark string, reqs ...client.SweepRequest) {
		t.Helper()
		before := cp.sweeps.Load()
		for _, r := range reqs {
			r.Benchmark = benchmark
			if _, err := p.Sweep(ctx, r, guard.Budget{}); err != nil {
				t.Fatal(err)
			}
		}
		if got := cp.sweeps.Load() - before; got != 1 {
			t.Errorf("%s: %d computes, want 1", what, got)
		}
	}
	for _, family := range []string{"srb", "recovery", "regcheck", "overhead", "cores"} {
		sweepOnce(family+" sweep with cores 4", "gzip", client.SweepRequest{Sweep: family},
			client.SweepRequest{Sweep: family, Cores: 4})
	}
	for family, points := range map[string][]int{
		"srb": {16, 64, 256, 1024}, "overhead": {1, 4, 16}, "cores": {2, 4, 8}, "sched": {2, 4},
	} {
		sweepOnce(family+" sweep with its default points", "twolf", client.SweepRequest{Sweep: family},
			client.SweepRequest{Sweep: family, Points: points})
	}
	sweepOnce("livein sweep at the default 4 cores", "gzip", client.SweepRequest{Sweep: "livein"},
		client.SweepRequest{Sweep: "livein", Cores: 4})

	// Different points are different variants.
	before = cp.sweeps.Load()
	if _, err := p.Sweep(ctx, client.SweepRequest{Benchmark: "gzip", Sweep: "srb", Points: []int{16, 64}}, guard.Budget{}); err != nil {
		t.Fatal(err)
	}
	if cp.sweeps.Load() != before+1 {
		t.Errorf("srb sweep with other points was served from the store")
	}

	// A request the pipeline rejects has no key: it is never stored, so
	// the wrapped pipeline sees it every time.
	bad := client.SimulateRequest{Benchmark: "parser", Recovery: "psychic"}
	if SimulateKey(bad) != "" {
		t.Fatalf("invalid request got a store key")
	}
	before = cp.simulates.Load()
	for i := 0; i < 2; i++ {
		if _, err := p.Simulate(ctx, bad, guard.Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	if cp.simulates.Load() != before+2 {
		t.Fatalf("invalid request was served from the store")
	}
}

// TestStoreQuarantineCapEvictsOldest: quarantine/ is bounded by file count
// and bytes; an ongoing corruption source evicts the oldest evidence rather
// than filling the disk, and the byte gauge tracks what remains.
func TestStoreQuarantineCapEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(StoreConfig{Dir: dir, QuarantineMaxFiles: 3, QuarantineMaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Quarantine five distinct files with strictly increasing mod times so
	// oldest-first is deterministic.
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("corrupt-%d", i)
		path := filepath.Join(dir, "index", name)
		if err := os.WriteFile(path, []byte("bad bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, base.Add(time.Duration(i)*time.Minute), base.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
		s.quarantine(path)
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 3 {
		t.Fatalf("quarantine holds %d files, want cap of 3", len(q))
	}
	var names []string
	for _, e := range q {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if names[0] != "corrupt-2" || names[2] != "corrupt-4" {
		t.Fatalf("survivors = %v, want the three newest", names)
	}
	if got := s.QuarantineBytes(); got != 3*int64(len("bad bytes")) {
		t.Fatalf("QuarantineBytes = %d, want %d", got, 3*len("bad bytes"))
	}
	var buf bytes.Buffer
	s.Metrics(&buf)
	if !strings.Contains(buf.String(), fmt.Sprintf("sptd_store_quarantine_bytes %d", s.QuarantineBytes())) {
		t.Fatal("metrics missing the sptd_store_quarantine_bytes gauge")
	}
}

// TestStoreQuarantineByteCap: the byte bound evicts independently of the
// file-count bound.
func TestStoreQuarantineByteCap(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(StoreConfig{Dir: dir, QuarantineMaxFiles: -1, QuarantineMaxBytes: 20})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 4; i++ {
		path := filepath.Join(dir, "index", fmt.Sprintf("big-%d", i))
		if err := os.WriteFile(path, []byte("8 bytes!"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, base.Add(time.Duration(i)*time.Minute), base.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
		s.quarantine(path)
	}
	// 4×8 = 32 bytes quarantined; the 20-byte cap keeps the newest two.
	q, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
	if len(q) != 2 {
		t.Fatalf("quarantine holds %d files, want 2 under the byte cap", len(q))
	}
	if got := s.QuarantineBytes(); got != 16 {
		t.Fatalf("QuarantineBytes = %d, want 16", got)
	}
}

// TestStoreQuarantineCapAppliedOnBoot: a restart inherits the previous
// process's quarantine and immediately re-applies the cap.
func TestStoreQuarantineCapAppliedOnBoot(t *testing.T) {
	dir := t.TempDir()
	qdir := filepath.Join(dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 6; i++ {
		path := filepath.Join(qdir, fmt.Sprintf("old-%d", i))
		if err := os.WriteFile(path, []byte("leftover"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, base.Add(time.Duration(i)*time.Minute), base.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewStore(StoreConfig{Dir: dir, QuarantineMaxFiles: 2, QuarantineMaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := os.ReadDir(qdir)
	if len(q) != 2 {
		t.Fatalf("boot left %d quarantine files, want cap of 2", len(q))
	}
	if got := s.QuarantineBytes(); got != 2*int64(len("leftover")) {
		t.Fatalf("QuarantineBytes after boot = %d", got)
	}
}
