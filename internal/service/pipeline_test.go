package service

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/multispec"
	"repro/spt/client"
)

// TestConfigFromRequestMultiSpec covers the multi-core knobs of the
// simulate request: valid values land on the Config, bad values are client
// errors, and the zero request stays the Table 1 default machine.
func TestConfigFromRequestMultiSpec(t *testing.T) {
	cfg, err := ConfigFromRequest(client.SimulateRequest{
		Benchmark: "parser", Cores: 8, Sched: "stride", Stride: 3, LiveIn: "slice",
	})
	if err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if cfg.Cores != 8 || cfg.Sched != multispec.SchedStride || cfg.SchedStride != 3 ||
		cfg.LiveIn != multispec.LiveInSlice {
		t.Fatalf("knobs not applied: %+v", cfg)
	}

	zero, err := ConfigFromRequest(client.SimulateRequest{Benchmark: "parser"})
	if err != nil {
		t.Fatalf("zero request rejected: %v", err)
	}
	if zero.Cores != 0 || zero.Sched != multispec.SchedInOrder || zero.LiveIn != multispec.LiveInSVP {
		t.Fatalf("zero request is not the classic machine: %+v", zero)
	}

	for _, bad := range []client.SimulateRequest{
		{Benchmark: "parser", Cores: 1},
		{Benchmark: "parser", Cores: multispec.MaxCores + 1},
		{Benchmark: "parser", Sched: "psychic"},
		{Benchmark: "parser", LiveIn: "prophecy"},
		{Benchmark: "parser", Recovery: "warp"},
		{Benchmark: "parser", RegCheck: "psychic"},
	} {
		if _, err := ConfigFromRequest(bad); err == nil {
			t.Errorf("request %+v accepted; want an error", bad)
		}
	}
}

// TestSweepVariantsMultiSpec covers the new sweep families: defaults,
// point overrides, and rejection of senseless parameters.
func TestSweepVariantsMultiSpec(t *testing.T) {
	vs, err := sweepVariants(client.SweepRequest{Sweep: "cores"})
	if err != nil || len(vs) != 3 {
		t.Fatalf("default cores sweep: %d variants, %v", len(vs), err)
	}
	for i, want := range []int{2, 4, 8} {
		if vs[i].Config.Cores != want {
			t.Errorf("cores[%d] = %d, want %d", i, vs[i].Config.Cores, want)
		}
	}
	if _, err := sweepVariants(client.SweepRequest{Sweep: "cores", Points: []int{1}}); err == nil {
		t.Error("cores=1 accepted")
	}
	if _, err := sweepVariants(client.SweepRequest{Sweep: "cores", Points: []int{multispec.MaxCores + 1}}); err == nil {
		t.Error("oversized core count accepted")
	}

	vs, err = sweepVariants(client.SweepRequest{Sweep: "sched", Cores: 8, Points: []int{2, 4}})
	if err != nil || len(vs) != 4 { // inorder + 2 strides + eager
		t.Fatalf("sched sweep: %d variants, %v", len(vs), err)
	}
	for _, v := range vs {
		if v.Config.Cores != 8 {
			t.Errorf("sched variant %q has cores=%d, want 8", v.Label, v.Config.Cores)
		}
	}
	if _, err := sweepVariants(client.SweepRequest{Sweep: "sched", Points: []int{0}}); err == nil {
		t.Error("stride=0 accepted")
	}
	if _, err := sweepVariants(client.SweepRequest{Sweep: "sched", Cores: 1}); err == nil {
		t.Error("sched at cores=1 accepted")
	}

	vs, err = sweepVariants(client.SweepRequest{Sweep: "livein"})
	if err != nil || len(vs) != 2 {
		t.Fatalf("livein sweep: %d variants, %v", len(vs), err)
	}
}

// TestSweepRowsPartialFailure locks in the degradation contract of the
// sweep job: an errored variant keeps its row (error string, zero speedup)
// while siblings stand; only a total failure becomes a job error.
func TestSweepRowsPartialFailure(t *testing.T) {
	boom := errors.New("cycle budget exceeded")
	rows, err := sweepRows([]harness.AblationRow{
		{Variant: "ok", Speedup: 1.25},
		{Variant: "broken", Err: boom},
	}, boom)
	if err != nil {
		t.Fatalf("partial failure became a job error: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Error != "" || rows[0].Speedup != 1.25 {
		t.Errorf("healthy row perturbed: %+v", rows[0])
	}
	if !strings.Contains(rows[1].Error, "cycle budget") || rows[1].Speedup != 0 {
		t.Errorf("broken row = %+v; want the error string and zero speedup", rows[1])
	}

	if _, err := sweepRows([]harness.AblationRow{
		{Variant: "a", Err: boom}, {Variant: "b", Err: boom},
	}, boom); err == nil {
		t.Error("total failure did not become a job error")
	}
	if _, err := sweepRows(nil, boom); err == nil {
		t.Error("empty rows with an error did not become a job error")
	}
	if rows, err := sweepRows(nil, nil); err != nil || len(rows) != 0 {
		t.Errorf("empty sweep: rows=%v err=%v", rows, err)
	}
}

// TestIdentityCoversEveryConfigField is the guard that a new machine knob
// reaches the store key. It walks every leaf field of arch.Config, nested
// cache levels included, and gives each a valid non-default value, one at
// a time. The machine identity must change exactly when Canonical tells
// the two machines apart. From the Table 1 machine every field but the
// policy and the stride must count, and those two must not: only the
// stride policy reads the stride, and on two cores neither the stride nor
// the eager policy can act. From a 4-core stride-policy machine every
// field must count. From the
// baseline machine the speculation knobs that Canonical folds away must
// not. A field of a kind the walk cannot vary fails the test.
func TestIdentityCoversEveryConfigField(t *testing.T) {
	var leaves [][]int
	var collect func(typ reflect.Type, prefix []int)
	collect = func(typ reflect.Type, prefix []int) {
		for i := 0; i < typ.NumField(); i++ {
			idx := append(append([]int(nil), prefix...), i)
			if ft := typ.Field(i).Type; ft.Kind() == reflect.Struct {
				collect(ft, idx)
			} else {
				leaves = append(leaves, idx)
			}
		}
	}
	collect(reflect.TypeOf(arch.Config{}), nil)

	strideMachine := arch.DefaultConfig()
	strideMachine.Cores, strideMachine.Sched = 4, multispec.SchedStride
	for _, base := range []struct {
		name     string
		cfg      arch.Config
		allCount bool
		folded   []string // the fields that must not count
	}{
		{"default", arch.DefaultConfig(), true, []string{"Sched", "SchedStride"}},
		{"stride", strideMachine, true, nil},
		{"baseline", arch.BaselineConfig(), false, nil},
	} {
		for _, idx := range leaves {
			mut := base.cfg
			field := reflect.ValueOf(&mut).Elem().FieldByIndex(idx)
			path := fieldPath(reflect.TypeOf(mut), idx)
			name := base.name + "." + path
			if !setNonDefault(t, name, field, &mut) {
				t.Errorf("%s: no valid non-default value found", name)
				continue
			}
			sameID := machineIdentity(base.cfg) == machineIdentity(mut)
			sameMachine := base.cfg.Canonical() == mut.Canonical()
			if sameID != sameMachine {
				t.Errorf("%s: identity equal = %v, canonical machines equal = %v", name, sameID, sameMachine)
			}
			if want := slices.Contains(base.folded, path); base.allCount && sameID != want {
				t.Errorf("%s: identity unchanged = %v, want %v", name, sameID, want)
			}
		}
	}
}

func fieldPath(typ reflect.Type, idx []int) string {
	var parts []string
	for _, i := range idx {
		f := typ.Field(i)
		parts = append(parts, f.Name)
		typ = f.Type
	}
	return strings.Join(parts, ".")
}

// setNonDefault gives field a value other than its current one for which
// cfg still validates. Doubling comes first, so sizes stay powers of two.
func setNonDefault(t *testing.T, name string, field reflect.Value, cfg *arch.Config) bool {
	switch field.Kind() {
	case reflect.Bool:
		field.SetBool(!field.Bool())
		return cfg.Validate() == nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		orig := field.Int()
		for _, v := range []int64{orig * 2, orig + 3, orig + 1} {
			if field.SetInt(v); v != orig && cfg.Validate() == nil {
				return true
			}
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		orig := field.Uint()
		for _, v := range []uint64{orig * 2, orig + 3, orig + 1} {
			if field.SetUint(v); v != orig && cfg.Validate() == nil {
				return true
			}
		}
	default:
		t.Fatalf("%s: arch.Config field of kind %s; teach this walk to vary it", name, field.Kind())
	}
	return false
}

// TestIdentityRejectsWhatThePipelineRejects: a request with no valid
// machine has no identity, requests that build one machine share one, and
// the three kinds never share one.
func TestIdentityRejectsWhatThePipelineRejects(t *testing.T) {
	for _, bad := range []any{
		client.SimulateRequest{Benchmark: "parser", Cores: 1},
		client.SimulateRequest{Benchmark: "parser", SRB: 1 << 20},
		client.SimulateRequest{Benchmark: "parser", SRB: -3},
		client.SimulateRequest{Benchmark: "parser", Cores: -4},
		client.SimulateRequest{Benchmark: "parser", Sched: "stride", Cores: 4, Stride: -2},
		client.SimulateRequest{Benchmark: "parser", Sched: "stride", Cores: 4, Stride: 100},
		client.SweepRequest{Benchmark: "parser", Sweep: "fastest"},
		client.SweepRequest{Benchmark: "parser", Sweep: "srb", Points: []int{0}},
		client.SweepRequest{Benchmark: "parser", Sweep: "srb", Points: []int{1 << 20}},
		client.SweepRequest{Benchmark: "parser", Sweep: "overhead", Points: []int{1 << 62}},
		client.SweepRequest{Benchmark: "parser", Sweep: "sched", Cores: -4},
		client.JobRequest{},
	} {
		if id, err := Identity(bad); err == nil {
			t.Errorf("%T %+v got identity %q; want an error", bad, bad, id)
		}
	}
	for _, pair := range []struct {
		a, b client.SimulateRequest
		same bool
	}{
		{client.SimulateRequest{Benchmark: "parser", Stride: 2}, client.SimulateRequest{Benchmark: "parser"}, true},
		// A policy that cannot act is the in-order machine.
		{client.SimulateRequest{Benchmark: "parser", Sched: "eager"}, client.SimulateRequest{Benchmark: "parser"}, true},
		{client.SimulateRequest{Benchmark: "parser", Sched: "stride"}, client.SimulateRequest{Benchmark: "parser"}, true},
		{client.SimulateRequest{Benchmark: "parser", Sched: "stride", Stride: 1}, client.SimulateRequest{Benchmark: "parser"}, true},
		{client.SimulateRequest{Benchmark: "parser", Sched: "eager", Cores: 4},
			client.SimulateRequest{Benchmark: "parser", Cores: 4}, false},
		{client.SimulateRequest{Benchmark: "parser", Sched: "eager", Cores: 4, Stride: 64},
			client.SimulateRequest{Benchmark: "parser", Sched: "eager", Cores: 4}, true},
		{client.SimulateRequest{Benchmark: "parser", Sched: "stride", Cores: 4, Stride: 1},
			client.SimulateRequest{Benchmark: "parser", Sched: "stride", Cores: 4}, true},
		{client.SimulateRequest{Benchmark: "parser", Sched: "stride", Cores: 4, Stride: 2},
			client.SimulateRequest{Benchmark: "parser", Sched: "stride", Cores: 4, Stride: 3}, false},
	} {
		a, aerr := Identity(pair.a)
		b, berr := Identity(pair.b)
		if aerr != nil || berr != nil || (a == b) != pair.same {
			t.Errorf("%+v vs %+v: identities %q, %q (errors %v, %v); want equal = %v",
				pair.a, pair.b, a, b, aerr, berr, pair.same)
		}
	}
	ids := map[string]bool{}
	for _, req := range []any{
		client.CompileRequest{Benchmark: "parser"},
		client.SimulateRequest{Benchmark: "parser"},
		client.SweepRequest{Benchmark: "parser", Sweep: "srb"},
	} {
		id, err := Identity(req)
		if err != nil || ids[id] {
			t.Fatalf("%T: identity %q, err %v (duplicate: %v)", req, id, err, ids[id])
		}
		ids[id] = true
	}
}
