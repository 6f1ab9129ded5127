package service

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/arch"
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
