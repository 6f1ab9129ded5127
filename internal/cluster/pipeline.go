package cluster

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/guard"
	"repro/internal/service"
	"repro/spt/client"
)

// Pipeline is a service.Pipeline decorator that consults the tiered Store
// before computing and writes every computed result back. Keys cover
// exactly the fields that determine the result — budgets, priorities and
// async flags are excluded, so a result computed under one budget serves
// every later request for the same work.
//
// Cache-hit responses are decoded into fresh values, so the daemon's
// post-processing (stamping the job id) never mutates stored bytes: what
// the disk holds is the bit-identical computation output.
type Pipeline struct {
	next  service.Pipeline
	store *Store
}

// NewPipeline wraps next with the store read-through.
func NewPipeline(next service.Pipeline, store *Store) *Pipeline {
	return &Pipeline{next: next, store: store}
}

func scaleOf(s int) int {
	if s <= 0 {
		return 1
	}
	return s
}

// CompileKey is the store key of a compile request.
func CompileKey(req client.CompileRequest) string {
	return Key(service.KindCompile, req.Benchmark, fmt.Sprint(scaleOf(req.Scale)))
}

// SimulateKey is the store key of a simulate request: every field that
// shapes the simulated machine, and none of the budgets.
func SimulateKey(req client.SimulateRequest) string {
	return Key(service.KindSimulate, req.Benchmark, fmt.Sprint(scaleOf(req.Scale)),
		req.Recovery, req.RegCheck, fmt.Sprint(req.SRB),
		fmt.Sprint(req.Cores), req.Sched, fmt.Sprint(req.Stride), req.LiveIn)
}

// SweepKey is the store key of a sweep request. Cores sets the machine of
// the sched and livein families.
func SweepKey(req client.SweepRequest) string {
	parts := []string{req.Benchmark, fmt.Sprint(scaleOf(req.Scale)), req.Sweep, fmt.Sprint(req.Cores)}
	for _, p := range req.Points {
		parts = append(parts, fmt.Sprint(p))
	}
	return Key(service.KindSweep, parts...)
}

// lookup decodes a stored payload into out, reporting whether it hit. A
// payload that fails to decode (format drift across versions) is treated
// as a miss and recomputed.
func (p *Pipeline) lookup(key string, out any) bool {
	payload, ok := p.store.Get(key)
	if !ok {
		return false
	}
	return json.Unmarshal(payload, out) == nil
}

func (p *Pipeline) put(key string, v any) {
	payload, err := json.Marshal(v)
	if err != nil {
		return
	}
	p.store.Put(key, payload)
}

// Compile implements service.Pipeline.
func (p *Pipeline) Compile(ctx context.Context, req client.CompileRequest, budget guard.Budget) (*client.CompileResponse, error) {
	key := CompileKey(req)
	var cached client.CompileResponse
	if p.lookup(key, &cached) {
		return &cached, nil
	}
	resp, err := p.next.Compile(ctx, req, budget)
	if err != nil {
		return nil, err
	}
	p.put(key, resp)
	return resp, nil
}

// Simulate implements service.Pipeline.
func (p *Pipeline) Simulate(ctx context.Context, req client.SimulateRequest, budget guard.Budget) (*client.SimulateResponse, error) {
	key := SimulateKey(req)
	var cached client.SimulateResponse
	if p.lookup(key, &cached) {
		return &cached, nil
	}
	resp, err := p.next.Simulate(ctx, req, budget)
	if err != nil {
		return nil, err
	}
	p.put(key, resp)
	return resp, nil
}

// Sweep implements service.Pipeline.
func (p *Pipeline) Sweep(ctx context.Context, req client.SweepRequest, budget guard.Budget) (*client.SweepResponse, error) {
	key := SweepKey(req)
	var cached client.SweepResponse
	if p.lookup(key, &cached) {
		return &cached, nil
	}
	resp, err := p.next.Sweep(ctx, req, budget)
	if err != nil {
		return nil, err
	}
	p.put(key, resp)
	return resp, nil
}
