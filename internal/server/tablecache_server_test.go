package server

// Tests for the compiled kernel-table cache behind the handlers: warm
// requests over an already-seen cluster must never rebuild a table, and
// the resultKey.mint fallback must bypass the result cache instead of
// aliasing every unmarshalable value onto one shared key.

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"heteromix/internal/hwsim"
)

// TestGenericTableCacheReuseAcrossRequests pins the tentpole property:
// the table cache keys on the cluster spec alone, so a second
// /v1/enumerate-generic request over the same cluster with a different
// work size (a different result-cache key) performs zero table builds.
func TestGenericTableCacheReuseAcrossRequests(t *testing.T) {
	s := newTestServer(t, Options{MaxNodes: 8})
	cold := post(t, s, "/v1/enumerate-generic", triBody+`,"work":1e6}`)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold status %d: %s", cold.Code, cold.Body)
	}
	builds := s.TableBuilds()
	if builds == 0 {
		t.Fatal("cold request should have built tables")
	}
	warmStats := s.TableCacheStats()

	// Different work and different flags → result-cache misses, but the
	// same cluster spec → table-cache hits, zero further builds.
	for i, body := range []string{
		triBody + `,"work":2e6}`,
		triBody + `,"work":3e6,"prune":true}`,
		triBody + `,"work":2e6,"frontier_only":true}`,
	} {
		rr := post(t, s, "/v1/enumerate-generic", body)
		if rr.Code != http.StatusOK {
			t.Fatalf("warm request %d: status %d: %s", i, rr.Code, rr.Body)
		}
		if rr.Header().Get("X-Cache") != "miss" {
			t.Fatalf("warm request %d should miss the result cache (distinct request)", i)
		}
	}
	if got := s.TableBuilds(); got != builds {
		t.Errorf("warm requests built tables: %d → %d, want 0 increments", builds, got)
	}
	if st := s.TableCacheStats(); st.Hits <= warmStats.Hits {
		t.Errorf("warm requests should hit the table cache: %+v", st)
	}
}

// TestPredictTableCacheSharedAcrossWork is the two-type analogue: the
// compiled cluster.Table is keyed by (workload, switch accounting), so
// distinct predict requests share it.
func TestPredictTableCacheSharedAcrossWork(t *testing.T) {
	s := newTestServer(t, Options{})
	post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":1}}`)
	if got := s.TableBuilds(); got != 1 {
		t.Fatalf("table builds after first predict = %d, want 1", got)
	}
	post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":2},"work":1e6}`)
	post(t, s, "/v1/predict", `{"workload":"ep","amd":{"nodes":3},"work":2e6}`)
	if got := s.TableBuilds(); got != 1 {
		t.Errorf("table builds after warm predicts = %d, want 1", got)
	}
	if st := s.TableCacheStats(); st.Hits < 2 || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("table cache stats = %+v, want >=2 hits, 1 entry, positive bytes", st)
	}
}

// TestTableCacheMetricsExposed checks the scrape carries the
// table_cache_{hits,misses,evictions,bytes} series.
func TestTableCacheMetricsExposed(t *testing.T) {
	s := newTestServer(t, Options{})
	post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":1}}`)
	post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":2}}`)
	rr := get(t, s, "/metrics")
	body := rr.Body.String()
	for _, want := range []string{
		"heteromixd_table_cache_hits_total 1",
		"heteromixd_table_cache_misses_total",
		"heteromixd_table_cache_evictions_total 0",
		"heteromixd_table_cache_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestCanonicalKeyFallbackBypassesCache is the regression test for the
// fallback collision: two different unmarshalable values used to share
// the key endpoint+"|unkeyable" — the first one cached would have been
// served for every later one. The fallback now disables caching for the
// request entirely.
func TestCanonicalKeyFallbackBypassesCache(t *testing.T) {
	if _, keyed := (resultKey{endpoint: "predict", workload: "ep", version: 3, req: struct{ C chan int }{}}).mint(); keyed {
		t.Fatal("unmarshalable value should report keyed=false")
	}
	key, keyed := (resultKey{endpoint: "predict", workload: "ep", version: 3, req: map[string]int{"a": 1}}).mint()
	if want := `predict|ep@v3|{"a":1}`; !keyed || key != want {
		t.Fatalf("marshalable value should key canonically, got (%q, %v), want %q", key, keyed, want)
	}

	s := newTestServer(t, Options{})
	runs := 0
	compute := func() ([]byte, error) {
		runs++
		return []byte(`{"n":` + string(rune('0'+runs)) + `}`), nil
	}
	// keyed=false: every call computes, nothing is cached.
	for i := 1; i <= 2; i++ {
		v, cached, err := s.doCached("", false, compute)
		if err != nil || cached {
			t.Fatalf("unkeyed call %d: cached=%v err=%v", i, cached, err)
		}
		want := `{"n":` + string(rune('0'+i)) + `}`
		if got := string(v); got != want {
			t.Fatalf("unkeyed call %d served %q, want %q — stale cross-request body", i, got, want)
		}
	}
	if runs != 2 {
		t.Fatalf("compute ran %d times for 2 unkeyed calls, want 2", runs)
	}
	// Sanity: the same compute under a real key caches normally.
	if _, _, err := s.doCached("k", true, compute); err != nil {
		t.Fatal(err)
	}
	_, cached, err := s.doCached("k", true, compute)
	if err != nil || !cached {
		t.Fatalf("keyed call should hit: cached=%v err=%v", cached, err)
	}
	if runs != 3 {
		t.Fatalf("compute ran %d times, want 3", runs)
	}
}

// fmtGenericKey and fmtTableKey are the fmt renderings of the table
// cache keys, the form the strconv builders must reproduce.
func fmtGenericKey(workload string, ver uint64, types []GenericTypeRequest) string {
	var b strings.Builder
	b.WriteString("generic|")
	b.WriteString(versionTag(workload, ver))
	for _, tr := range types {
		fmt.Fprintf(&b, "|%s:%d:%t", tr.Node, tr.MaxNodes, tr.NeedsSwitch)
	}
	return b.String()
}

func fmtTableKey(workload string, ver uint64, noSwitch bool) string {
	return fmt.Sprintf("table|%s|%t", versionTag(workload, ver), noSwitch)
}

// TestTableKeysMatchFmt: the table cache keys are byte-identical to
// their fmt renderings over seeded type lists, versions and bounds, and
// a generic key costs one allocation.
func TestTableKeysMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	names := hwsim.Names()
	workloadNames := []string{"ep", "memcached", "x264", ""}
	var types []GenericTypeRequest
	for i := 0; i < 2000; i++ {
		types = types[:0]
		for n := rng.Intn(maxGenericTypes + 1); n > 0; n-- {
			types = append(types, GenericTypeRequest{
				Node:        names[rng.Intn(len(names))],
				MaxNodes:    int(rng.Int63n(1<<62)) >> rng.Intn(62) * (1 - 2*rng.Intn(2)),
				NeedsSwitch: rng.Intn(2) == 0,
			})
		}
		wl := workloadNames[rng.Intn(len(workloadNames))]
		ver := rng.Uint64() >> rng.Intn(64)
		if got, want := genericKey(wl, ver, types), fmtGenericKey(wl, ver, types); got != want {
			t.Fatalf("genericKey = %q, fmt gives %q", got, want)
		}
		noSwitch := rng.Intn(2) == 0
		if got, want := tableKey(wl, ver, noSwitch), fmtTableKey(wl, ver, noSwitch); got != want {
			t.Fatalf("tableKey = %q, fmt gives %q", got, want)
		}
	}
	tri := []GenericTypeRequest{
		{Node: "arm-cortex-a9", MaxNodes: 4, NeedsSwitch: true},
		{Node: "arm-cortex-a15", MaxNodes: 4, NeedsSwitch: true},
		{Node: "amd-opteron-k10", MaxNodes: 4},
	}
	if a := testing.AllocsPerRun(200, func() { _ = genericKey("ep", 7, tri) }); a > 1 {
		t.Errorf("genericKey made %.0f allocations, want at most 1", a)
	}
}
