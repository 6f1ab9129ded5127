package service

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/guard"
	"repro/spt/client"
)

// canonicalWork is what a request's result depends on, built straight from
// ConfigFromRequest and sweepVariants: the program and the canonical
// machines, with each sweep variant's label.
type canonicalWork struct {
	Kind, Benchmark, Family string
	Scale                   int
	Labels                  []string
	Machines                []arch.Config
}

// keyed is one decoded request with its identity and canonical work.
type keyed struct {
	id   string
	work canonicalWork
}

// identify derives a request's identity and checks it against the
// validation the pipeline runs: an identity exists exactly when
// ConfigFromRequest or sweepVariants accepts the request.
func identify(t *testing.T, req any) (keyed, bool) {
	id, err := Identity(req)
	var work canonicalWork
	var verr error
	switch r := req.(type) {
	case client.SimulateRequest:
		var cfg arch.Config
		cfg, verr = ConfigFromRequest(r)
		work = canonicalWork{Kind: KindSimulate, Benchmark: r.Benchmark, Scale: ScaleOf(r.Scale),
			Labels: []string{""}, Machines: []arch.Config{cfg.Canonical()}}
	case client.SweepRequest:
		work = canonicalWork{Kind: KindSweep, Benchmark: r.Benchmark, Scale: ScaleOf(r.Scale), Family: r.Sweep}
		vs, err := sweepVariants(r)
		for _, v := range vs {
			work.Labels = append(work.Labels, v.Label)
			work.Machines = append(work.Machines, v.Config.Canonical())
		}
		verr = err
	}
	if (err == nil) != (verr == nil) {
		t.Fatalf("%+v: Identity error %v, pipeline validation error %v", req, err, verr)
	}
	return keyed{id, work}, err == nil
}

// FuzzResultKey decodes two untrusted request bodies, each as a simulate
// and as a sweep request, and derives their result identities, the
// preimage of every cluster store key. The invariants under attack:
//
//   - Identity never panics, whatever the JSON;
//   - an identity exists exactly when ConfigFromRequest / sweepVariants
//     accept the request, so no invalid request reaches the store;
//   - two requests share an identity exactly when they build the same
//     program and the same canonical variant list, so equal keys never
//     serve one machine's result for another and equal machines never
//     split into two stored results.
func FuzzResultKey(f *testing.F) {
	for _, seed := range [][2]string{
		{`{"benchmark":"parser"}`, `{"benchmark":"parser","cores":2,"stride":1,"srb":1024,"sched":"inorder","livein":"svp"}`},
		{`{"benchmark":"parser","recovery":"srxfc","regcheck":"value"}`, `{"benchmark":"parser","scale":1}`},
		{`{"benchmark":"gap","cores":4,"sched":"stride","stride":2}`, `{"benchmark":"gap","recovery":"squash","scale":2}`},
		{`{"benchmark":"parser","sched":"eager"}`, `{"benchmark":"parser","sched":"stride","stride":1}`},
		{`{"benchmark":"parser","sched":"stride"}`, `{"benchmark":"parser","sched":"eager","cores":4}`},
		{`{"benchmark":"parser","sweep":"srb"}`, `{"benchmark":"parser","sweep":"srb","cores":4,"points":[16,64,256,1024]}`},
		{`{"benchmark":"mcf","sweep":"livein"}`, `{"benchmark":"mcf","sweep":"livein","cores":4}`},
		{`{"benchmark":"mcf","sweep":"sched","cores":8,"points":[2]}`, `{"benchmark":"mcf","sweep":"cores","points":[2,4,8]}`},
		{`{"benchmark":"parser","cores":1,"srb":-3}`, `{"sweep":"overhead","points":[0]}`},
		{`not json`, `{}`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var all []keyed
		for _, body := range [][]byte{a, b} {
			var sim client.SimulateRequest
			if json.Unmarshal(body, &sim) == nil {
				if k, ok := identify(t, sim); ok {
					all = append(all, k)
				}
			}
			var sweep client.SweepRequest
			if json.Unmarshal(body, &sweep) == nil {
				if k, ok := identify(t, sweep); ok {
					all = append(all, k)
				}
			}
		}
		for i := range all {
			for j := i + 1; j < len(all); j++ {
				sameID := all[i].id == all[j].id
				if sameWork := reflect.DeepEqual(all[i].work, all[j].work); sameID != sameWork {
					t.Fatalf("identity equal = %v but canonical work equal = %v:\n%+v\n%+v",
						sameID, sameWork, all[i].work, all[j].work)
				}
			}
		}
	})
}

// FuzzSubmit runs every body the daemon admits as a simulate or a sweep
// request on the real pipeline under a small budget. The invariant:
// admission (ValidateBenchmark, then Identity) is the whole of validation,
// so an admitted request never fails inside a worker for any reason but
// its budget. The budget is in cycles, not steps: a step budget fails the
// trace capture before any engine is built, which would hide a machine the
// engines reject. Bodies run at scale 1: the program size does not enter
// the machine, and a fuzzed scale would make one input cost minutes.
func FuzzSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"benchmark":"parser","sweep":"srb","points":[1048576]}`,
		`{"benchmark":"parser","sweep":"overhead","points":[4611686018427387904]}`,
		`{"benchmark":"parser","sched":"stride","cores":4,"stride":100}`,
		`{"benchmark":"parser","srb":-3,"cores":-4,"stride":-2}`,
		`{"benchmark":"mcf","sweep":"sched","cores":8,"points":[2,64]}`,
		`{"benchmark":"parser","recovery":"squash","regcheck":"update","srb":16}`,
	} {
		f.Add([]byte(seed))
	}
	p := &sptPipeline{cache: artifact.NewBoundedBytes(256, 128<<20)}
	budget := guard.Budget{Cycles: 2000}
	ctx := context.Background()
	admitted := func(benchmark string, req any) bool {
		_, err := Identity(req)
		return ValidateBenchmark(benchmark) == nil && err == nil
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var sim client.SimulateRequest
		if json.Unmarshal(body, &sim) == nil && admitted(sim.Benchmark, sim) {
			sim.Scale = 0
			_, err := p.Simulate(ctx, sim, budget)
			if !budgetOnly(err) {
				t.Fatalf("admitted simulate %s failed in the worker: %v", body, err)
			}
		}
		var sweep client.SweepRequest
		if json.Unmarshal(body, &sweep) == nil && admitted(sweep.Benchmark, sweep) {
			sweep.Scale = 0
			resp, err := p.Sweep(ctx, sweep, budget)
			if !budgetOnly(err) {
				t.Fatalf("admitted sweep %s failed in the worker: %v", body, err)
			}
			if resp != nil {
				for _, r := range resp.Rows {
					if r.Error != "" {
						t.Fatalf("admitted sweep %s: variant %q failed: %s", body, r.Variant, r.Error)
					}
				}
			}
		}
	})
}

// budgetOnly reports whether err is nil or consists of budget exhaustion
// alone: a joined error counts when every part does.
func budgetOnly(err error) bool {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range j.Unwrap() {
			if !budgetOnly(e) {
				return false
			}
		}
		return true
	}
	return err == nil || guard.Exceeded(err)
}
