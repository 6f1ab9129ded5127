package cluster

import (
	"context"
	"encoding/json"

	"repro/internal/guard"
	"repro/internal/service"
	"repro/spt/client"
)

// Pipeline is a service.Pipeline decorator that consults the tiered Store
// before computing and writes every computed result back. A result is keyed
// by its service.Identity — the program and the canonical machine it
// builds — so every spelling of the same work shares one stored result,
// and a result computed under one budget serves every later request.
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

// resultKey hashes a request's service.Identity into its store key. A
// request the pipeline will reject has no identity and gets "".
func resultKey(req any) string {
	id, err := service.Identity(req)
	if err != nil {
		return ""
	}
	return Key(id)
}

// CompileKey is the store key of a compile request.
func CompileKey(req client.CompileRequest) string { return resultKey(req) }

// SimulateKey is the store key of a simulate request ("" if invalid).
func SimulateKey(req client.SimulateRequest) string { return resultKey(req) }

// SweepKey is the store key of a sweep request ("" if invalid).
func SweepKey(req client.SweepRequest) string { return resultKey(req) }

// readThrough serves key from the store or computes and stores it. A
// payload that fails to decode (format drift across versions) is treated
// as a miss and recomputed; an empty key skips the store, so the wrapped
// pipeline reports the request's validation error.
func readThrough[Resp any](s *Store, key string, compute func() (*Resp, error)) (*Resp, error) {
	if key != "" {
		if payload, ok := s.Get(key); ok {
			var cached Resp
			if json.Unmarshal(payload, &cached) == nil {
				return &cached, nil
			}
		}
	}
	resp, err := compute()
	if err != nil {
		return nil, err
	}
	if payload, err := json.Marshal(resp); key != "" && err == nil {
		s.Put(key, payload)
	}
	return resp, nil
}

// Compile implements service.Pipeline.
func (p *Pipeline) Compile(ctx context.Context, req client.CompileRequest, budget guard.Budget) (*client.CompileResponse, error) {
	return readThrough(p.store, CompileKey(req), func() (*client.CompileResponse, error) {
		return p.next.Compile(ctx, req, budget)
	})
}

// Simulate implements service.Pipeline.
func (p *Pipeline) Simulate(ctx context.Context, req client.SimulateRequest, budget guard.Budget) (*client.SimulateResponse, error) {
	return readThrough(p.store, SimulateKey(req), func() (*client.SimulateResponse, error) {
		return p.next.Simulate(ctx, req, budget)
	})
}

// Sweep implements service.Pipeline.
func (p *Pipeline) Sweep(ctx context.Context, req client.SweepRequest, budget guard.Budget) (*client.SweepResponse, error) {
	return readThrough(p.store, SweepKey(req), func() (*client.SweepResponse, error) {
		return p.next.Sweep(ctx, req, budget)
	})
}
