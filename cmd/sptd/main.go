// Command sptd serves the SPT pipeline as a daemon: a batching,
// backpressured simulation-as-a-service layer over the compile → profile →
// baseline → SPT-simulate pipeline (internal/service).
//
// Usage:
//
//	sptd -addr :8750
//	sptd -addr :8750 -queue 128 -workers 8 -cache-entries 8192
//	sptd -addr :8750 -timeout 30s -cycles 500000000 -drain-timeout 20s
//	sptd -addr :8750 -cache-bytes 268435456
//	sptd -addr :8751 -node-id n1 -cluster-journal-root /srv/spt/journals \
//	     -store-dir /srv/spt/store1
//	sptd -addr :8752 -node-id n2 -join http://h1:8751 -advertise http://h2:8752 \
//	     -cluster-journal-root /srv/spt/journals -store-dir /srv/spt/store2
//
// Endpoints:
//
//	POST /v1/compile         {"benchmark":"parser","scale":1}
//	POST /v1/simulate        {"benchmark":"parser","cores":4,"srb":64}
//	POST /v1/sweep           {"benchmark":"parser","sweep":"srb","points":[16,64]}
//	GET  /v1/jobs/{id}       poll an async job ("async": true on any POST)
//	GET  /v1/store/{key}     fetch a stored result by content key (peer tier)
//	GET  /v1/cluster         gossip member table, stolen journals, replication
//	GET  /livez              process liveness only — restart-worthy failures
//	GET  /readyz             queue state; 503 while draining / replaying /
//	                         store-degraded / replication-lagged
//	GET  /metrics            Prometheus text exposition
//
// A full queue rejects with 429 + Retry-After (backpressure); SIGTERM or
// SIGINT begins a graceful drain: admission stops (503), queued and
// in-flight jobs finish under -drain-timeout, then the process exits 0 on
// a clean drain and 1 if jobs had to be canceled.
//
// With -node-id, daemons form a crash-tolerant cluster: membership spreads
// by gossip (the first node is a bare seed; every other node starts with
// -join and needs only one live seed URL), submissions to any node are
// forwarded one hop to the consistent-hash owner of the request's
// benchmark/scale, results read
// through a tiered store (memory → checksummed disk under -store-dir →
// alive peers) and are replicated ahead of failure to -replicas ring
// successors with background anti-entropy repair, and each node gossips
// with the others — when one dies, exactly one survivor steals its journal
// under -cluster-journal-root (atomic rename), adopts its jobs, and
// restores its journaled results into the store. See ARCHITECTURE.md,
// "Distributed operation".
//
// Memory: every trace is captured by the interpreter into a recording on
// the Go heap, and -cache-bytes (default 512 MiB, -1 = unbounded) bounds the
// recordings the artifact cache keeps. sptd sets the runtime's GC percent
// to 25 and, when the bound is set, its soft memory limit to -cache-bytes
// plus 256 MiB; GOGC or GOMEMLIMIT in the environment overrides the
// matching setting. -native-cache-dir is accepted for compatibility and
// ignored.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/guard"
	"repro/internal/service"
)

// advertiseURL derives the base URL peers reach this node at: the explicit
// -advertise wins; otherwise it is built from -addr, substituting
// 127.0.0.1 for a wildcard host.
func advertiseURL(advertise, addr string) string {
	if advertise != "" {
		return strings.TrimRight(advertise, "/")
	}
	host, port, ok := strings.Cut(addr, ":")
	if !ok {
		return "http://" + addr
	}
	if host == "" || host == "0.0.0.0" || host == "[::]" {
		host = "127.0.0.1"
	}
	return "http://" + host + ":" + port
}

// memPolicy is the runtime memory configuration sptd applies at start;
// a zero field leaves that runtime setting alone.
type memPolicy struct {
	gcPercent int
	limit     int64
}

// memoryPolicy derives the runtime memory configuration from the recording
// byte bound (0 = the default, negative = unbounded). Recording columns are
// pointer-free and make up most of the heap, so a GC cycle costs little
// more with them present, while the default GOGC=100 would reserve as much
// memory again as they occupy: hence GC percent 25. The soft limit leaves
// 256 MiB above the bound for everything else. GOGC and GOMEMLIMIT in the
// environment win over the matching setting.
func memoryPolicy(cacheBytes int64, getenv func(string) string) memPolicy {
	var p memPolicy
	if getenv("GOGC") == "" {
		p.gcPercent = 25
	}
	if cacheBytes == 0 {
		cacheBytes = service.DefaultCacheBytes
	}
	if cacheBytes > 0 && getenv("GOMEMLIMIT") == "" {
		p.limit = cacheBytes + 256<<20
	}
	return p
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8750", "listen address")
		queueCap     = flag.Int("queue", 64, "job queue bound (full queue answers 429)")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		cacheEntries = flag.Int("cache-entries", 4096, "artifact cache bound (LRU-evicted; -1 = unbounded)")
		cacheBytes   = flag.Int64("cache-bytes", service.DefaultCacheBytes, "trace recording cache byte bound (LRU-evicted; -1 = unbounded); also sets the soft memory limit to this plus 256 MiB")
		timeout      = flag.Duration("timeout", 0, "default wall-clock budget per job stage (0 = unlimited)")
		steps        = flag.Int64("budget", 0, "default architectural step budget per simulation (0 = unlimited)")
		cycles       = flag.Int64("cycles", 0, "default cycle budget per simulation (0 = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight jobs")
		journalDir   = flag.String("journal-dir", "", "write-ahead journal directory for durable async jobs (empty = no journal)")
		maxAttempts  = flag.Int("max-attempts", 0, "executions per durable async job before it fails terminally (0 = default 3)")
		compactEvery = flag.Int("compact-every", 0, "auto-compact the journal after this many appends (0 = default 256, negative = manual only)")
		chaosSeed    = flag.Int64("chaos-seed", 0, "enable the built-in chaos fault plan with this seed (0 = off)")
		chaosPlan    = flag.String("chaos-plan", "", "JSON fault-plan file (overrides -chaos-seed's default plan)")
		_            = flag.String("native-cache-dir", "", "ignored; accepted for compatibility (traces are always captured by the interpreter)")

		nodeID      = flag.String("node-id", "", "this node's cluster name (enables cluster mode)")
		joinSpec    = flag.String("join", "", "comma-separated seed URLs of existing members to gossip-join (empty = this node is the first seed)")
		advertise   = flag.String("advertise", "", "base URL peers reach this node at (default derived from -addr; required behind NAT)")
		storeDir    = flag.String("store-dir", "", "tiered result store disk-spill directory (survives restarts; empty = memory tier only)")
		journalRoot = flag.String("cluster-journal-root", "", "shared directory of per-node journal dirs (<root>/<node>/jobs.journal) enabling work stealing")
		gossipEvery = flag.Duration("gossip-interval", 500*time.Millisecond, "gossip round interval")
		missesMax   = flag.Int("heartbeat-misses", 3, "consecutive missed gossip exchanges before indirect probes and suspicion")
		suspectFor  = flag.Duration("suspect-after", 0, "grace between suspect and dead, during which a live peer can refute (0 = 3x gossip interval)")
		replicas    = flag.Int("replicas", 2, "store replication factor RF, copies per object including the owner (1 = off)")
		aeEvery     = flag.Duration("anti-entropy-interval", 2*time.Second, "store digest-exchange cadence")
		testHooks   = flag.Bool("cluster-test-hooks", false, "mount POST /v1/gossip/block (partition testing only; never in production)")
	)
	flag.Parse()
	pol := memoryPolicy(*cacheBytes, os.Getenv)
	if pol.gcPercent != 0 {
		debug.SetGCPercent(pol.gcPercent)
	}
	if pol.limit != 0 {
		debug.SetMemoryLimit(pol.limit)
	}

	cfg := service.Config{
		QueueCapacity: *queueCap,
		Workers:       *workers,
		CacheEntries:  *cacheEntries,
		CacheBytes:    *cacheBytes,
		MaxAttempts:   *maxAttempts,
		CompactEvery:  *compactEvery,
		NodeName:      *nodeID,
		DefaultBudget: guard.Budget{Timeout: *timeout, Steps: *steps, Cycles: *cycles},
	}
	clustered := *nodeID != ""
	jdir := *journalDir
	if clustered && *journalRoot != "" {
		// In cluster mode the journal lives under the shared root so peers
		// can steal it; an explicit -journal-dir still wins.
		if jdir == "" {
			jdir = filepath.Join(*journalRoot, *nodeID)
		}
	}
	if jdir != "" {
		jn, err := service.OpenJournal(jdir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sptd: open journal:", err)
			os.Exit(1)
		}
		cfg.Journal = jn
	}
	var injector *chaos.Injector
	if *chaosPlan != "" {
		plan, err := chaos.LoadPlan(*chaosPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sptd:", err)
			os.Exit(1)
		}
		injector = chaos.New(plan)
	} else if *chaosSeed != 0 {
		injector = chaos.New(chaos.DefaultPlan(*chaosSeed))
	}

	// The tiered store is useful standalone too (-store-dir without
	// -node-id): warm restarts serve from disk instead of recomputing.
	var store *cluster.Store
	var srv *service.Server // captured by the degradation callback below
	if *storeDir != "" || clustered {
		st, err := cluster.NewStore(cluster.StoreConfig{
			Dir: *storeDir,
			OnDegraded: func(degraded bool) {
				if srv != nil {
					srv.SetCondition(service.CondStoreDegraded, degraded)
				}
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sptd:", err)
			os.Exit(1)
		}
		store = st
	}

	// Pipeline composition, innermost first: real pipeline, chaos faults,
	// store read-through. The store wraps chaos so a stored result is
	// served without re-exposing the job to fault injection — exactly like
	// a cache hit skips recomputation.
	cfg.WrapPipeline = func(p service.Pipeline) service.Pipeline {
		if injector != nil {
			p = injector.WrapPipeline(p)
		}
		if store != nil {
			p = cluster.NewPipeline(p, store)
		}
		return p
	}
	// extras is appended to after construction (the cluster manager needs
	// the server first); the closure reads it at scrape time.
	var extras []func(io.Writer)
	if injector != nil {
		extras = append(extras, injector.Metrics)
		fmt.Fprintln(os.Stderr, "sptd: chaos fault injection ENABLED")
	}
	if store != nil {
		extras = append(extras, store.Metrics)
	}
	cfg.ExtraMetrics = func(w io.Writer) {
		for _, f := range extras {
			f(w)
		}
	}

	s, err := service.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sptd:", err)
		os.Exit(1)
	}
	srv = s
	handler := srv.Handler()
	if injector != nil {
		handler = injector.Middleware(handler)
	}

	var mgr *cluster.Manager
	if clustered {
		var seeds []string
		for _, s := range strings.Split(*joinSpec, ",") {
			if s = strings.TrimRight(strings.TrimSpace(s), "/"); s != "" {
				seeds = append(seeds, s)
			}
		}
		mgr, err = cluster.NewManager(cluster.ManagerConfig{
			Self:                *nodeID,
			SelfURL:             advertiseURL(*advertise, *addr),
			Seeds:               seeds,
			JournalRoot:         *journalRoot,
			Heartbeat:           *gossipEvery,
			MissThreshold:       *missesMax,
			SuspectAfter:        *suspectFor,
			Replicas:            *replicas,
			AntiEntropyInterval: *aeEvery,
			EnableTestHooks:     *testHooks,
			Store:               store,
			Server:              srv,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sptd:", err)
			os.Exit(1)
		}
		extras = append(extras, mgr.Metrics)
		handler = mgr.Middleware(handler)
		fmt.Fprintf(os.Stderr, "sptd: cluster mode, node %s", *nodeID)
		if len(seeds) > 0 {
			fmt.Fprintf(os.Stderr, ", joining via %s", strings.Join(seeds, ","))
		}
		fmt.Fprintln(os.Stderr)
		if *testHooks {
			fmt.Fprintln(os.Stderr, "sptd: cluster test hooks ENABLED (partition endpoint mounted)")
		}
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	if mgr != nil {
		mgr.Start()
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "sptd: listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "sptd:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "sptd: %v — draining (deadline %s)\n", sig, *drainTimeout)
	}

	// Stop admission first so in-flight request handlers see 503, then let
	// queued + running jobs finish under the deadline.
	srv.BeginDrain()
	if mgr != nil {
		mgr.Stop()
	}
	drainErr := srv.Drain(*drainTimeout)

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "sptd: http shutdown:", err)
	}
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "sptd:", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "sptd: drained cleanly")
}
