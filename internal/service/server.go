// Package service is the serving layer of the SPT reproduction: a batching,
// backpressured simulation-as-a-service daemon core. It exposes the full
// compile → profile → baseline → SPT-simulate pipeline over HTTP/JSON
// (cmd/sptd is the thin binary around it) with:
//
//   - a bounded, priority-classed job queue with admission control: a full
//     queue rejects with 429 + Retry-After (backpressure) instead of
//     buffering unboundedly;
//   - a worker pool sized to GOMAXPROCS whose executions flow through the
//     singleflight artifact cache, so concurrent clients asking for the
//     same (program, configuration) share one underlying simulation;
//   - per-request guard.Budget deadlines and panic isolation: a panicking
//     job becomes a structured 500, never a dead daemon;
//   - graceful drain: admission stops, queued and in-flight jobs finish
//     under a shutdown deadline, stragglers are canceled.
//
// The wire types live in repro/spt/client, which is also the typed Go
// client used by tests and the sptbench load generator.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/guard"
	"repro/spt/client"
)

// DefaultCacheBytes is the default byte bound on cached trace recordings,
// shared by Config and sptd's -cache-bytes flag.
const DefaultCacheBytes = 512 << 20

// Config sizes the daemon. Zero values take the documented defaults.
type Config struct {
	// QueueCapacity bounds the admission queue (default 64). Pushes beyond
	// it are rejected with 429.
	QueueCapacity int
	// Workers sizes the worker pool (default GOMAXPROCS).
	Workers int
	// DefaultBudget bounds jobs that do not carry their own budget fields;
	// a request's non-zero fields override the corresponding defaults.
	DefaultBudget guard.Budget
	// CacheEntries bounds the artifact cache (default 4096 entries,
	// LRU-evicted; negative = unbounded).
	CacheEntries int
	// CacheBytes bounds the resident bytes of cached trace recordings, one
	// per SPT program and step limit (default DefaultCacheBytes,
	// LRU-evicted; negative = unbounded).
	// Recordings let concurrent requests for the same program coalesce
	// onto a single interpretation, but a multi-hundred-MB trace must
	// never pin the daemon's memory — the byte bound, not the entry bound,
	// governs them. Recordings live on the Go heap; sptd derives the
	// runtime's GC percent and soft memory limit from this bound.
	CacheBytes int64
	// RetainJobs bounds how many finished jobs stay pollable via
	// GET /v1/jobs/{id} (default 512, FIFO-evicted).
	RetainJobs int
	// Pipeline overrides the execution layer; nil means the real SPT
	// pipeline. Tests inject stubs here.
	Pipeline Pipeline
	// WrapPipeline decorates the resolved pipeline (real or injected) —
	// the chaos fault injector hooks in here without the service layer
	// knowing about it.
	WrapPipeline func(Pipeline) Pipeline
	// Journal, when non-nil, write-ahead-logs every async job so it
	// survives daemon restarts: on construction the server replays the
	// journal, re-enqueues queued jobs, marks interrupted running jobs
	// retryable and resumes them.
	Journal *Journal
	// MaxAttempts bounds executions per durable async job (default 3): a
	// failed attempt below the bound re-enqueues the job instead of
	// finishing it. Crash interruptions do not consume attempts.
	MaxAttempts int
	// NodeName, when set, namespaces job ids as "<node>-j000001" so jobs
	// adopted from a dead peer's journal can never collide with local ones,
	// and reports the node in /readyz. Empty for a standalone daemon.
	NodeName string
	// CompactEvery auto-compacts the journal after this many appends
	// (default 256; negative = manual compaction only). Boot replay always
	// compacts.
	CompactEvery int
	// ExtraMetrics, when non-nil, is rendered at the end of every /metrics
	// scrape (the chaos injector publishes its fault counters through it).
	ExtraMetrics func(io.Writer)
}

func (c Config) withDefaults() Config {
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0 // unbounded
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.CacheBytes < 0 {
		c.CacheBytes = 0 // unbounded
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 512
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 256
	}
	if c.CompactEvery < 0 {
		c.CompactEvery = 0 // manual only
	}
	return c
}

// Server is the daemon core: queue, worker pool, job registry, artifact
// cache and metrics. Construct with New; serve its Handler; stop with
// Drain.
type Server struct {
	cfg     Config
	pipe    Pipeline
	cache   *artifact.Cache
	queue   *queue
	met     *metrics
	journal *Journal

	mu        sync.Mutex
	jobs      map[string]*job
	doneOrder []string          // finished job ids, oldest first (retention)
	running   map[*job]struct{} // jobs currently executing (forced-drain cancel)
	conds     map[string]bool   // active not-ready conditions (journal-replay, store-degraded, ...)

	inflight atomic.Int64
	nextID   atomic.Int64
	draining atomic.Bool
	idPrefix string // "<node>-" when NodeName is set
	start    time.Time
	wg       sync.WaitGroup
}

// New builds the server, replays its journal (when configured) and starts
// the worker pool. A journal replay failure is a construction failure: a
// daemon that silently dropped durable jobs would be worse than one that
// refuses to start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   artifact.NewBoundedBytes(cfg.CacheEntries, cfg.CacheBytes),
		queue:   newQueue(cfg.QueueCapacity),
		met:     newMetrics(KindCompile, KindSimulate, KindSweep),
		jobs:    make(map[string]*job),
		running: make(map[*job]struct{}),
		conds:   make(map[string]bool),
		journal: cfg.Journal,
		start:   time.Now(),
	}
	s.cache.EnableIntegrity()
	if cfg.NodeName != "" {
		s.idPrefix = cfg.NodeName + "-"
	}
	if s.journal != nil {
		s.journal.SetAutoCompact(cfg.CompactEvery)
	}
	s.pipe = cfg.Pipeline
	if s.pipe == nil {
		s.pipe = &sptPipeline{cache: s.cache}
	}
	if cfg.WrapPipeline != nil {
		s.pipe = cfg.WrapPipeline(s.pipe)
	}
	if err := s.replayJournal(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// MustNew is New for callers whose configuration cannot fail (no journal).
// It panics on error.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// replayJournal reconstructs the durable job set after a restart: finished
// jobs become pollable again (their results were journaled), queued jobs
// are re-enqueued as-is, and jobs that were running when the process died
// are marked retryable and re-enqueued — their re-execution is idempotent
// because results flow through the content-keyed artifact cache.
func (s *Server) replayJournal() error {
	if s.journal == nil {
		return nil
	}
	replayed, truncated, err := s.journal.Replay()
	if err != nil {
		return err
	}
	if truncated > 0 {
		s.met.journalTruncatedBytes.Add(truncated)
	}
	var maxID int64
	for _, rj := range replayed {
		if n := numericJobID(rj.Submit.ID); n > maxID {
			maxID = n
		}
		switch rj.State {
		case client.StateDone:
			s.resurrectDone(rj)
		default:
			if err := s.resurrectPending(rj); err != nil {
				return err
			}
		}
	}
	s.nextID.Store(maxID)
	return s.journal.Compact(replayed)
}

// numericJobID parses the sequence number out of a "j%06d" or
// "<node>-j%06d" id (0 when the id does not match). Adopted peer ids carry
// a foreign node prefix and never advance the local sequence because
// replayJournal compares against ids as a whole only via this function —
// a foreign prefix still yields its numeric tail, which is fine: sequence
// numbers only need to be monotonic per prefix, and ids are compared as
// full strings everywhere else.
func numericJobID(id string) int64 {
	if i := lastIndexByte(id, '-'); i >= 0 {
		id = id[i+1:]
	}
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	var n int64
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

func lastIndexByte(s string, b byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// resurrectDone restores a finished job's polling view from the journal.
func (s *Server) resurrectDone(rj ReplayedJob) {
	j := &job{
		id:        rj.Submit.ID,
		kind:      rj.Submit.Kind,
		journaled: true,
		state:     client.StateDone,
		outcome:   rj.Outcome,
		attempts:  rj.Attempts,
		rawResult: rj.Result,
		done:      make(chan struct{}),
		cancel:    func() {},
	}
	if rj.Error != "" {
		j.err = errors.New(rj.Error)
	}
	close(j.done)
	s.mu.Lock()
	s.jobs[j.id] = j
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.cfg.RetainJobs {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
	s.mu.Unlock()
}

// resurrectPending re-enqueues an unfinished journaled job.
func (s *Server) resurrectPending(rj ReplayedJob) error {
	label, runner, err := s.runnerFor(rj.Submit.Kind, rj.Submit.Req)
	if err != nil {
		// The journal outlived the API shape that produced it; surface the
		// job as failed rather than dropping it silently.
		s.resurrectDone(ReplayedJob{
			Submit: rj.Submit, State: client.StateDone,
			Outcome: client.OutcomeFailed, Error: "journal replay: " + err.Error(),
			Attempts: rj.Attempts,
		})
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:        rj.Submit.ID,
		kind:      rj.Submit.Kind,
		label:     label,
		priority:  client.Priority(rj.Submit.Priority),
		ctx:       ctx,
		cancel:    cancel,
		raw:       rj.Submit.Req,
		journaled: s.journal != nil,
		attempts:  rj.Attempts,
		state:     client.StateQueued,
		done:      make(chan struct{}),
	}
	j.run = func(ctx context.Context) (any, error) { return runner(ctx, j.id) }
	interrupted := rj.State == client.StateRunning || rj.State == client.StateRetryable
	if interrupted {
		// The crash tore this job mid-execution; its next run is a recovery
		// replay, not a failure-charged retry.
		j.state = client.StateRetryable
		s.met.replayedInterrupted.Add(1)
	} else {
		s.met.replayedQueued.Add(1)
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	if !s.queue.forcePush(j) {
		return fmt.Errorf("service: queue closed during journal replay")
	}
	return nil
}

// CacheStats exposes the artifact cache counters (tests, metrics).
func (s *Server) CacheStats() artifact.Stats { return s.cache.Stats() }

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool { return s.draining.Load() }

// Node returns the configured cluster node name ("" standalone).
func (s *Server) Node() string { return s.cfg.NodeName }

// SetCondition raises (or clears, when active is false) a named not-ready
// condition — "journal-replay" while adopting a dead peer's jobs,
// "store-degraded" while the spill store is quarantining, and so on. A node
// with any active condition keeps serving traffic it already holds but
// reports 503 on /readyz so routers stop sending it new work.
func (s *Server) SetCondition(name string, active bool) {
	s.mu.Lock()
	if active {
		s.conds[name] = true
	} else {
		delete(s.conds, name)
	}
	s.mu.Unlock()
}

// Well-known readiness conditions.
const (
	CondDraining      = "draining"
	CondJournalReplay = "journal-replay"
	CondStoreDegraded = "store-degraded"
	// CondReplicationLag is raised while this node's store has a backlog of
	// artifacts not yet pushed to their replicas — killing it now would make
	// those artifacts single-copy again.
	CondReplicationLag = "replication-lag"
)

// ReadyState reports liveness-independent readiness: ready is true only
// when no condition is active. Conditions are ordered dominant-first:
// draining, then journal-replay, then store-degraded, then
// replication-lag, then anything else alphabetically.
func (s *Server) ReadyState() (ready bool, conditions []string) {
	if s.draining.Load() {
		conditions = append(conditions, CondDraining)
	}
	ordered := []string{CondJournalReplay, CondStoreDegraded, CondReplicationLag}
	s.mu.Lock()
	for _, name := range ordered {
		if s.conds[name] {
			conditions = append(conditions, name)
		}
	}
	var rest []string
	for name, on := range s.conds {
		if on && name != CondJournalReplay && name != CondStoreDegraded && name != CondReplicationLag {
			rest = append(rest, name)
		}
	}
	s.mu.Unlock()
	sort.Strings(rest)
	conditions = append(conditions, rest...)
	return len(conditions) == 0, conditions
}

// Adopt ingests a dead peer's folded journal: finished jobs become pollable
// here (so clients polling the dead node's job ids find them on the
// adopter), unfinished jobs are re-journaled into this node's own journal —
// making the adoption itself crash-durable — and re-enqueued. Duplicate ids
// (already adopted, or re-delivered by a second steal attempt) are skipped,
// which makes adoption idempotent. The journal-replay readiness condition
// is raised for the duration so routers don't pile new work onto a node
// busy absorbing a peer's backlog.
func (s *Server) Adopt(jobs []ReplayedJob, from string) (adoptedPending, adoptedDone int) {
	if len(jobs) == 0 {
		return 0, 0
	}
	s.SetCondition(CondJournalReplay, true)
	defer s.SetCondition(CondJournalReplay, false)
	for _, rj := range jobs {
		if _, exists := s.lookup(rj.Submit.ID); exists {
			continue
		}
		if s.journal != nil {
			// Write-ahead before resurrection, exactly like live admission:
			// if this node dies mid-adoption, the next thief re-folds these
			// records (duplicate submits fold to first-wins).
			sub := rj.Submit
			sub.Attempts = rj.Attempts
			if err := s.journal.Append(sub); err != nil {
				s.met.journalErrors.Add(1)
			}
		}
		if rj.State == client.StateDone {
			s.resurrectDone(rj)
			if s.journal != nil {
				if err := s.journal.Append(journalRecord{
					Type: recDone, ID: rj.Submit.ID, Outcome: rj.Outcome,
					Error: rj.Error, Attempts: rj.Attempts, Result: rj.Result,
				}); err != nil {
					s.met.journalErrors.Add(1)
				}
			}
			adoptedDone++
			s.met.adoptedDone.Add(1)
			continue
		}
		if rj.State == client.StateRunning || rj.State == client.StateRetryable {
			if s.journal != nil {
				if err := s.journal.Append(journalRecord{
					Type: recState, ID: rj.Submit.ID, State: client.StateRetryable, Attempts: rj.Attempts,
				}); err != nil {
					s.met.journalErrors.Add(1)
				}
			}
		}
		if err := s.resurrectPending(rj); err != nil {
			// Queue closed (we are draining): the job stays in our journal
			// for the next steal; nothing more to do here.
			continue
		}
		adoptedPending++
		s.met.adoptedPending.Add(1)
	}
	return adoptedPending, adoptedDone
}

// budgetFor merges a request's budget fields over the server default.
func (s *Server) budgetFor(jr client.JobRequest) guard.Budget {
	b := s.cfg.DefaultBudget
	if jr.TimeoutMS > 0 {
		b.Timeout = time.Duration(jr.TimeoutMS) * time.Millisecond
	}
	if jr.Steps > 0 {
		b.Steps = jr.Steps
	}
	if jr.Cycles > 0 {
		b.Cycles = jr.Cycles
	}
	return b
}

// runnerFor rebuilds a job's execution closure from its kind and raw
// request payload. It is the single dispatch point shared by live HTTP
// submissions and journal replays, so a replayed job runs exactly the code
// a fresh one would.
func (s *Server) runnerFor(kind string, raw json.RawMessage) (label string, runner func(ctx context.Context, id string) (any, error), err error) {
	switch kind {
	case KindCompile:
		var req client.CompileRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return "", nil, fmt.Errorf("service: decode %s request: %w", kind, err)
		}
		budget := s.budgetFor(req.JobRequest)
		return req.Benchmark, func(ctx context.Context, id string) (any, error) {
			resp, err := s.pipe.Compile(ctx, req, budget)
			if err != nil {
				return nil, err
			}
			resp.JobID = id
			return resp, nil
		}, nil
	case KindSimulate:
		var req client.SimulateRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return "", nil, fmt.Errorf("service: decode %s request: %w", kind, err)
		}
		budget := s.budgetFor(req.JobRequest)
		return req.Benchmark, func(ctx context.Context, id string) (any, error) {
			resp, err := s.pipe.Simulate(ctx, req, budget)
			if err != nil {
				return nil, err
			}
			resp.JobID = id
			return resp, nil
		}, nil
	case KindSweep:
		var req client.SweepRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return "", nil, fmt.Errorf("service: decode %s request: %w", kind, err)
		}
		budget := s.budgetFor(req.JobRequest)
		return req.Benchmark, func(ctx context.Context, id string) (any, error) {
			resp, err := s.pipe.Sweep(ctx, req, budget)
			if err != nil {
				return nil, err
			}
			resp.JobID = id
			return resp, nil
		}, nil
	default:
		return "", nil, fmt.Errorf("service: unknown job kind %q", kind)
	}
}

// enqueue admits one job built from its kind and raw request payload.
// reqCtx is the submitting request's context for synchronous jobs and nil
// for async jobs (which must survive the submitting connection — and,
// under a journal, the daemon itself).
func (s *Server) enqueue(reqCtx context.Context, kind string, prio client.Priority, raw json.RawMessage) (*job, error) {
	if s.draining.Load() {
		s.met.countOutcome("rejected")
		return nil, ErrDraining
	}
	label, runner, err := s.runnerFor(kind, raw)
	if err != nil {
		return nil, err
	}
	base := reqCtx
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	j := &job{
		id:        fmt.Sprintf("%sj%06d", s.idPrefix, s.nextID.Add(1)),
		kind:      kind,
		label:     label,
		priority:  prio,
		ctx:       ctx,
		cancel:    cancel,
		raw:       raw,
		journaled: reqCtx == nil && s.journal != nil,
		state:     client.StateQueued,
		done:      make(chan struct{}),
	}
	j.run = func(ctx context.Context) (any, error) { return runner(ctx, j.id) }
	if j.journaled {
		// Write-ahead: the submission is durable before it is acknowledged.
		if err := s.journal.Append(journalRecord{
			Type: recSubmit, ID: j.id, Kind: kind, Priority: string(prio), Req: raw,
		}); err != nil {
			cancel()
			return nil, err
		}
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	if err := s.queue.push(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		cancel()
		if j.journaled {
			s.journalDone(j, client.OutcomeCanceled, "rejected at admission", nil)
		}
		s.met.countOutcome("rejected")
		return nil, err
	}
	return j, nil
}

// journalState appends a state-transition record; journal write failures
// degrade durability, not liveness, so they only count a metric.
func (s *Server) journalState(j *job, state string) {
	if err := s.journal.Append(journalRecord{
		Type: recState, ID: j.id, State: state, Attempts: j.attemptCount(),
	}); err != nil {
		s.met.journalErrors.Add(1)
	}
}

// journalDone appends a job's terminal record, result included, so a
// restarted daemon can serve its polling view.
func (s *Server) journalDone(j *job, outcome, errMsg string, result any) {
	rec := journalRecord{Type: recDone, ID: j.id, Outcome: outcome, Error: errMsg, Attempts: j.attemptCount()}
	if result != nil {
		if raw, err := json.Marshal(result); err == nil {
			rec.Result = raw
		}
	}
	if err := s.journal.Append(rec); err != nil {
		s.met.journalErrors.Add(1)
	}
}

// lookup returns a registered job by id.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker is one pool goroutine: it pops jobs until the queue closes and
// drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job with panic isolation and records its outcome.
func (s *Server) runJob(j *job) {
	// A job whose submitter is already gone (sync client disconnected
	// while queued) is finished as canceled without running.
	if err := j.ctx.Err(); err != nil {
		s.finishJob(j, nil, fmt.Errorf("canceled while queued: %w", err), 0)
		return
	}
	j.setRunning()
	if j.journaled {
		s.journalState(j, client.StateRunning)
	}
	s.mu.Lock()
	s.running[j] = struct{}{}
	s.mu.Unlock()
	s.inflight.Add(1)
	started := time.Now()

	var res any
	// guard.Run converts a panic anywhere in the job into a structured
	// *guard.StageError: the worker (and the daemon) survive, and the
	// client sees a 500 carrying the stage and the panic flag.
	err := guard.Run(j.label, j.kind, func() error {
		var rerr error
		res, rerr = j.run(j.ctx)
		return rerr
	})
	elapsed := time.Since(started)

	s.inflight.Add(-1)
	s.mu.Lock()
	delete(s.running, j)
	s.mu.Unlock()
	s.finishJob(j, res, err, elapsed)
}

// finishJob records the terminal state, updates metrics and enforces the
// finished-job retention bound. Durable async jobs that fail below their
// attempt bound are re-enqueued instead of finished — at-least-once
// execution, idempotent through the artifact cache.
func (s *Server) finishJob(j *job, res any, err error, elapsed time.Duration) {
	if err != nil && j.ctx.Err() != nil && errors.Is(err, context.Canceled) {
		// Normalize: cancellation through any wrapping is one outcome.
		err = fmt.Errorf("job canceled: %w", context.Canceled)
	}
	if err != nil && j.journaled && !errors.Is(err, context.Canceled) &&
		j.attemptCount()+1 < s.cfg.MaxAttempts {
		j.setRetryable()
		s.journalState(j, client.StateRetryable)
		if s.queue.forcePush(j) {
			s.met.jobsRetried.Add(1)
			if elapsed > 0 {
				s.met.observeStage(j.kind, elapsed.Seconds())
			}
			return
		}
		// Queue closed (drain): fall through to a terminal failure.
	}
	j.finish(res, err)
	if j.journaled {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		s.journalDone(j, j.outcomeOf(), msg, res)
	}
	s.met.countOutcome(j.outcomeOf())
	if elapsed > 0 {
		s.met.observeStage(j.kind, elapsed.Seconds())
	}
	s.mu.Lock()
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.cfg.RetainJobs {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
	s.mu.Unlock()
}

// BeginDrain stops admission: every subsequent submit is rejected with 503.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain gracefully shuts the worker pool down: admission stops, queued and
// in-flight jobs run to completion under the timeout, and stragglers are
// canceled (their clients see a canceled outcome). It returns nil on a
// clean drain and an error when jobs had to be canceled.
func (s *Server) Drain(timeout time.Duration) error {
	s.BeginDrain()
	s.queue.close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
	}
	// Deadline passed: cancel whatever is still running and wait for the
	// workers to observe it.
	s.mu.Lock()
	n := len(s.running)
	for j := range s.running {
		j.cancel()
	}
	s.mu.Unlock()
	<-done
	return fmt.Errorf("service: drain deadline exceeded; canceled %d in-flight job(s)", n)
}

// retryAfterSeconds derives the backpressure hint a shed request should
// honor: the queue's expected drain time for this job class —
// (depth+1) × observed mean service time ÷ workers — instead of a
// constant. Deterministic given the same queue state and latency history;
// clamped to [1s, 60s]. With no latency history yet, one second.
func (s *Server) retryAfterSeconds(kind string) int {
	mean := s.met.meanStageSeconds(kind)
	if mean <= 0 {
		return 1
	}
	secs := math.Ceil(float64(s.queue.depth()+1) * mean / float64(s.cfg.Workers))
	switch {
	case secs < 1:
		return 1
	case secs > 60:
		return 60
	default:
		return int(secs)
	}
}

// gcCycles reads the process's completed GC cycle count.
func gcCycles() int64 {
	s := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// gaugesNow snapshots the live state for a metrics scrape.
func (s *Server) gaugesNow() gauges {
	var jbytes, jcompactions int64
	if s.journal != nil {
		jbytes = s.journal.SizeBytes()
		jcompactions = s.journal.Compactions()
	}
	return gauges{
		journalBytes:       jbytes,
		journalCompactions: jcompactions,
		uptimeSeconds:      time.Since(s.start).Seconds(),
		queueDepth:         s.queue.depth(),
		queueCapacity:      s.cfg.QueueCapacity,
		workers:            s.cfg.Workers,
		inflight:           s.inflight.Load(),
		draining:           s.draining.Load(),
		retryAfter:         s.retryAfterSeconds(""),
		gcCycles:           gcCycles(),
		cache:              s.cache.Stats(),
	}
}
