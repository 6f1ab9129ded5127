package main

import (
	"testing"

	"repro/internal/service"
)

func TestMemoryPolicy(t *testing.T) {
	env := func(kv map[string]string) func(string) string {
		return func(k string) string { return kv[k] }
	}
	cases := []struct {
		name       string
		cacheBytes int64
		env        map[string]string
		want       memPolicy
	}{
		{"default bound", service.DefaultCacheBytes, nil, memPolicy{gcPercent: 25, limit: 768 << 20}},
		{"zero takes the default", 0, nil, memPolicy{gcPercent: 25, limit: 768 << 20}},
		{"unbounded sets no limit", -1, nil, memPolicy{gcPercent: 25}},
		{"GOGC wins", 32 << 20, map[string]string{"GOGC": "100"}, memPolicy{limit: 288 << 20}},
		{"GOMEMLIMIT wins", 32 << 20, map[string]string{"GOMEMLIMIT": "1GiB"}, memPolicy{gcPercent: 25}},
	}
	for _, tc := range cases {
		if got := memoryPolicy(tc.cacheBytes, env(tc.env)); got != tc.want {
			t.Errorf("%s: memoryPolicy(%d) = %+v; want %+v", tc.name, tc.cacheBytes, got, tc.want)
		}
	}
}
