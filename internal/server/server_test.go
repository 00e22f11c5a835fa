package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"heteromix/internal/cluster"
	"heteromix/internal/experiments"
	"heteromix/internal/hwsim"
	"heteromix/internal/queueing"
	"heteromix/internal/resilience"
	"heteromix/internal/units"
)

// sharedSuite fits the models once for the whole test binary; a Suite
// caches fitted models internally, so every test server built on it is
// cheap.
var (
	suiteOnce   sync.Once
	sharedSuite *experiments.Suite
)

func testSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		sharedSuite = experiments.NewSuite(experiments.SuiteOptions{Seed: 42})
	})
	return sharedSuite
}

func newTestServer(t testing.TB, opts Options) *Server {
	t.Helper()
	if opts.Models == nil {
		opts.Models = testSuite()
	}
	// `make chaos` reruns this suite with fault injection layered onto
	// every test server; tests that configure their own chaos keep it.
	if spec := os.Getenv("HETEROMIX_CHAOS"); spec != "" && !opts.Chaos.Enabled() {
		co, err := resilience.ParseChaosSpec(spec)
		if err != nil {
			t.Fatalf("HETEROMIX_CHAOS: %v", err)
		}
		opts.Chaos = co
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// post drives one request through the full routed handler.
func post(t testing.TB, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	return rr
}

func get(t testing.TB, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr
}

func decodeBody[T any](t *testing.T, rr *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", rr.Body.String(), err)
	}
	return v
}

func maxOf(spec hwsim.NodeSpec) hwsim.Config {
	return hwsim.Config{Cores: spec.Cores, Frequency: spec.FMax()}
}

func TestPredictMatchesDirectEvaluation(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":3},"amd":{"nodes":2}}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	resp := decodeBody[PredictResponse](t, rr)

	space, err := testSuite().Space("ep")
	if err != nil {
		t.Fatal(err)
	}
	want, err := space.Evaluate(cluster.Configuration{
		ARM: cluster.TypeConfig{Nodes: 3, Config: maxOf(space.ARM.Spec)},
		AMD: cluster.TypeConfig{Nodes: 2, Config: maxOf(space.AMD.Spec)},
	}, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Point.TimeSeconds != float64(want.Time) {
		t.Errorf("time %v, want %v", resp.Point.TimeSeconds, want.Time)
	}
	if resp.Work != 50e6 {
		t.Errorf("defaulted work = %v, want the EP analysis size 50e6", resp.Work)
	}
	if resp.Point.ARMNodes != 3 || resp.Point.AMDNodes != 2 {
		t.Errorf("nodes %d:%d", resp.Point.ARMNodes, resp.Point.AMDNodes)
	}
	if wantP := float64(want.Energy) / float64(want.Time); resp.AvgPowerWatts != wantP {
		t.Errorf("avg power %v, want %v", resp.AvgPowerWatts, wantP)
	}
}

func TestPredictCanonicalizationSharesCacheEntries(t *testing.T) {
	s := newTestServer(t, Options{})
	space, err := testSuite().Space("ep")
	if err != nil {
		t.Fatal(err)
	}
	// The same request three ways: defaults, explicit settings equal to
	// the defaults, and explicit work equal to the analysis size. All
	// must collapse onto one cache entry.
	bodies := []string{
		`{"workload":"ep","arm":{"nodes":4}}`,
		fmt.Sprintf(`{"workload":"ep","arm":{"nodes":4,"cores":%d,"ghz":%v}}`,
			space.ARM.Spec.Cores, space.ARM.Spec.FMax().GHzValue()),
		`{"workload":"ep","arm":{"nodes":4},"work":50e6}`,
	}
	var first string
	for i, body := range bodies {
		rr := post(t, s, "/v1/predict", body)
		if rr.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rr.Code, rr.Body)
		}
		wantCache := "hit"
		if i == 0 {
			wantCache = "miss"
			first = rr.Body.String()
		}
		if got := rr.Header().Get("X-Cache"); got != wantCache {
			t.Errorf("request %d X-Cache = %q, want %q", i, got, wantCache)
		}
		if rr.Body.String() != first {
			t.Errorf("request %d body differs from first:\n%s\nvs\n%s", i, rr.Body, first)
		}
	}
	if st := s.CacheStats(); st.Hits < 2 {
		t.Errorf("cache stats after equivalent requests: %+v", st)
	}
}

func TestPredictValidation(t *testing.T) {
	s := newTestServer(t, Options{MaxNodes: 16})
	cases := map[string]string{
		"empty body":        ``,
		"not json":          `{`,
		"trailing data":     `{"workload":"ep","arm":{"nodes":1}} extra`,
		"unknown field":     `{"workload":"ep","arm":{"nodes":1},"wat":1}`,
		"unknown workload":  `{"workload":"nope","arm":{"nodes":1}}`,
		"missing workload":  `{"arm":{"nodes":1}}`,
		"no nodes":          `{"workload":"ep"}`,
		"negative nodes":    `{"workload":"ep","arm":{"nodes":-1}}`,
		"too many nodes":    `{"workload":"ep","arm":{"nodes":17}}`,
		"settings, 0 nodes": `{"workload":"ep","arm":{"cores":2}}`,
		"bad cores":         `{"workload":"ep","arm":{"nodes":1,"cores":99}}`,
		"bad ghz":           `{"workload":"ep","arm":{"nodes":1,"ghz":17.5}}`,
		"negative ghz":      `{"workload":"ep","arm":{"nodes":1,"ghz":-1}}`,
		"negative work":     `{"workload":"ep","arm":{"nodes":1},"work":-5}`,
		"huge work":         `{"workload":"ep","arm":{"nodes":1},"work":1e300}`,
		"nan work":          `{"workload":"ep","arm":{"nodes":1},"work":NaN}`,
	}
	for name, body := range cases {
		rr := post(t, s, "/v1/predict", body)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, rr.Code, rr.Body)
		}
		if e := decodeBody[errorResponse](t, rr); e.Error == "" {
			t.Errorf("%s: error body missing", name)
		}
	}
}

func TestEnumerateFrontierMatchesBatch(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := post(t, s, "/v1/enumerate",
		`{"workload":"ep","max_arm":5,"max_amd":4,"frontier_only":true}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	resp := decodeBody[EnumerateResponse](t, rr)

	space, err := testSuite().Space("ep")
	if err != nil {
		t.Fatal(err)
	}
	wantPts, _, err := cluster.FrontierOf(space, 5, 4, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Returned != len(wantPts) || len(resp.Points) != len(wantPts) {
		t.Fatalf("frontier size %d, want %d", resp.Returned, len(wantPts))
	}
	for i, p := range resp.Points {
		if p.TimeSeconds != float64(wantPts[i].Time) {
			t.Errorf("point %d time %v, want %v", i, p.TimeSeconds, wantPts[i].Time)
		}
	}
	if resp.Truncated {
		t.Error("frontier response marked truncated")
	}
	if want, err := space.Enumerate(5, 4, 50e6); err != nil || resp.SpaceSize != len(want) {
		t.Errorf("space_size = %d, want %d (err %v)", resp.SpaceSize, len(want), err)
	}
}

func TestEnumerateLimitTruncates(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := post(t, s, "/v1/enumerate",
		`{"workload":"ep","max_arm":3,"max_amd":3,"limit":7}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	resp := decodeBody[EnumerateResponse](t, rr)
	if resp.Returned != 7 || len(resp.Points) != 7 {
		t.Errorf("returned %d points, want 7", resp.Returned)
	}
	if !resp.Truncated {
		t.Error("truncated flag not set")
	}
	if resp.SpaceSize <= 7 {
		t.Errorf("space_size %d should exceed the limit", resp.SpaceSize)
	}
}

func TestEnumerateValidation(t *testing.T) {
	s := newTestServer(t, Options{MaxNodes: 16})
	for name, body := range map[string]string{
		"no bounds":      `{"workload":"ep"}`,
		"negative bound": `{"workload":"ep","max_arm":-1,"max_amd":2}`,
		"too large":      `{"workload":"ep","max_arm":17}`,
		"negative limit": `{"workload":"ep","max_arm":2,"limit":-1}`,
		"unknown field":  `{"workload":"ep","max_arm":2,"points":true}`,
		"bad workload":   `{"workload":"x","max_arm":2}`,
	} {
		if rr := post(t, s, "/v1/enumerate", body); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rr.Code, rr.Body)
		}
	}
}

func TestBudgetSeries(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := post(t, s, "/v1/budget", `{"workload":"ep","budget_watts":400}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	resp := decodeBody[BudgetResponse](t, rr)
	if resp.SubstitutionRatio != 8 {
		t.Errorf("substitution ratio %d, want the paper's 8", resp.SubstitutionRatio)
	}
	// 400 W fits 6 AMD nodes → 7 mixes from AMD-only to ARM-only.
	if len(resp.Mixes) != 7 {
		t.Fatalf("%d mixes, want 7", len(resp.Mixes))
	}
	if first := resp.Mixes[0]; first.ARM != 0 || first.AMD != 6 {
		t.Errorf("first mix %d:%d, want 0:6", first.ARM, first.AMD)
	}
	if last := resp.Mixes[len(resp.Mixes)-1]; last.AMD != 0 || last.ARM != 48 {
		t.Errorf("last mix %d:%d, want 48:0", last.ARM, last.AMD)
	}
	for i, m := range resp.Mixes {
		if m.PeakWatts > 400 {
			t.Errorf("mix %d peak %v W exceeds the budget", i, m.PeakWatts)
		}
		if m.Point.TimeSeconds <= 0 || m.Point.EnergyJoules <= 0 {
			t.Errorf("mix %d has an unevaluated point: %+v", i, m.Point)
		}
	}
}

func TestBudgetValidation(t *testing.T) {
	s := newTestServer(t, Options{MaxNodes: 32})
	for name, body := range map[string]string{
		"zero budget":      `{"workload":"ep","budget_watts":0}`,
		"negative budget":  `{"workload":"ep","budget_watts":-100}`,
		"below one node":   `{"workload":"ep","budget_watts":10}`,
		"beyond max nodes": `{"workload":"ep","budget_watts":100000}`,
	} {
		if rr := post(t, s, "/v1/budget", body); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rr.Code, rr.Body)
		}
	}
}

func TestQueueingMatchesModel(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := post(t, s, "/v1/queueing",
		`{"arrival_rate":0.5,"service_time_seconds":1,"scv":0,"window_seconds":3600,"per_job_joules":100,"idle_power_watts":50}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	resp := decodeBody[QueueingResponse](t, rr)
	q := queueing.MG1{ArrivalRate: 0.5, MeanService: 1, SCV: 0}
	want := q.Summary()
	if resp.Utilization != want.Utilization || resp.MeanWaitSeconds != want.MeanWaitSeconds {
		t.Errorf("summary %+v, want %+v", resp.Summary, want)
	}
	if resp.EnergyJoules == nil {
		t.Fatal("energy accounting missing despite window_seconds")
	}
	wantE, err := q.EnergyOverWindow(3600, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if *resp.EnergyJoules != float64(wantE) {
		t.Errorf("energy %v, want %v", *resp.EnergyJoules, wantE)
	}

	// Without the window the energy field is absent entirely.
	rr = post(t, s, "/v1/queueing", `{"arrival_rate":0.5,"service_time_seconds":1}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	if strings.Contains(rr.Body.String(), "energy_joules") {
		t.Errorf("energy reported without a window: %s", rr.Body)
	}
}

func TestQueueingValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	for name, body := range map[string]string{
		"unstable":        `{"arrival_rate":2,"service_time_seconds":1}`,
		"zero arrivals":   `{"arrival_rate":0,"service_time_seconds":1}`,
		"zero service":    `{"arrival_rate":1,"service_time_seconds":0}`,
		"negative scv":    `{"arrival_rate":0.5,"service_time_seconds":1,"scv":-1}`,
		"negative window": `{"arrival_rate":0.5,"service_time_seconds":1,"window_seconds":-10}`,
		"negative energy": `{"arrival_rate":0.5,"service_time_seconds":1,"window_seconds":10,"per_job_joules":-1}`,
	} {
		if rr := post(t, s, "/v1/queueing", body); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rr.Code, rr.Body)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Options{})
	post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":1}}`)
	rr := get(t, s, "/healthz")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	h := decodeBody[HealthResponse](t, rr)
	if h.Status != "ok" || h.Version == "" || h.GoVersion == "" {
		t.Errorf("health = %+v", h)
	}
	if len(h.Workloads) == 0 {
		t.Error("no workloads advertised")
	}
	if h.KernelTables != 1 {
		t.Errorf("kernel_table_builds = %d after one predict, want 1", h.KernelTables)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime %v", h.UptimeSeconds)
	}
}

func TestMetricsAndExpvar(t *testing.T) {
	s := newTestServer(t, Options{})
	post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":1}}`)
	post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":1}}`)
	post(t, s, "/v1/predict", `{"workload":"bogus"}`)

	rr := get(t, s, "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{
		`heteromixd_requests_total{endpoint="predict"} 3`,
		`heteromixd_request_errors_total{endpoint="predict"} 1`,
		`heteromixd_cache_hits_total 1`,
		`heteromixd_kernel_table_builds_total 1`,
		`heteromixd_build_info{version=`,
		`heteromixd_request_latency_seconds_bucket{endpoint="predict",le="+Inf"} 3`,
		`# TYPE heteromixd_request_latency_seconds histogram`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}

	rr = get(t, s, "/debug/vars")
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", rr.Code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &vars); err != nil {
		t.Fatalf("expvar output not JSON: %v", err)
	}
	if _, ok := vars["heteromixd"]; !ok {
		t.Error("expvar missing the heteromixd map")
	}
}

// TestCacheMetricsCurrentWithoutScrape: the cache series read the
// caches' own statistics at export time, so the registry snapshot
// behind /debug/vars is current even when /metrics was never scraped.
func TestCacheMetricsCurrentWithoutScrape(t *testing.T) {
	s := newTestServer(t, Options{})
	post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":1}}`)
	post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":1}}`)
	snap := s.reg.Snapshot()
	for name, want := range map[string]float64{
		"heteromixd_cache_hits_total":         1,
		"heteromixd_cache_misses_total":       1,
		"heteromixd_table_cache_misses_total": 1,
	} {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v before any scrape, want %v", name, got, want)
		}
	}
	if snap["heteromixd_table_cache_bytes"] <= 0 {
		t.Errorf("heteromixd_table_cache_bytes = %v before any scrape, want > 0", snap["heteromixd_table_cache_bytes"])
	}
}

func TestRoutingErrors(t *testing.T) {
	s := newTestServer(t, Options{})
	if rr := get(t, s, "/v1/predict"); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict status %d, want 405", rr.Code)
	}
	if rr := get(t, s, "/nope"); rr.Code != http.StatusNotFound {
		t.Errorf("GET /nope status %d, want 404", rr.Code)
	}
}

func TestBodyTooLargeRejected(t *testing.T) {
	s := newTestServer(t, Options{MaxBodyBytes: 64})
	body := `{"workload":"ep","arm":{"nodes":1},"work":` +
		strings.Repeat("1", 100) + `}`
	rr := post(t, s, "/v1/predict", body)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status %d, want 413", rr.Code)
	}
	if e := decodeBody[errorResponse](t, rr); e.Error == "" {
		t.Error("413 without a JSON error body")
	}
	// A body exactly at the limit is not oversized.
	if rr := post(t, s, "/v1/queueing", `{"arrival_rate":1,"service_time_seconds":0.5}`); rr.Code != http.StatusOK {
		t.Errorf("in-bounds body status %d: %s", rr.Code, rr.Body)
	}
}

// shedRetryAfter must stay inside [1, 3] seconds and actually jitter —
// a constant would make a shed herd retry in lockstep.
func TestShedRetryAfterJitterBounds(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		v := shedRetryAfter()
		if v != "1" && v != "2" && v != "3" {
			t.Fatalf("Retry-After %q outside [1, 3]", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("200 draws produced only %v; no jitter", seen)
	}
}

func TestConcurrencyLimiterSheds(t *testing.T) {
	s := newTestServer(t, Options{MaxConcurrent: 1})
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	s.testHookStart = func(ep string) {
		if ep == "predict" {
			once.Do(func() { close(started) })
			<-gate
		}
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":1}}`)
	}()
	<-started

	// The slot is held; the next limited request is shed immediately.
	rr := post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":2}}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("second request status %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	// Unlimited endpoints still answer.
	if rr := get(t, s, "/healthz"); rr.Code != http.StatusOK {
		t.Errorf("healthz under load: %d", rr.Code)
	}
	close(gate)
	if rr := <-done; rr.Code != http.StatusOK {
		t.Errorf("held request finished %d, want 200", rr.Code)
	}
}

func TestRequestTimeoutAnswers503(t *testing.T) {
	s := newTestServer(t, Options{RequestTimeout: time.Millisecond})
	s.testHookStart = func(ep string) {
		if ep == "enumerate" {
			time.Sleep(20 * time.Millisecond)
		}
	}
	rr := post(t, s, "/v1/enumerate", `{"workload":"ep","max_arm":3,"max_amd":3}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", rr.Code, rr.Body)
	}
	if got := s.reg.Snapshot()["heteromixd_timeouts_total"]; got != 1 {
		t.Errorf("timeouts counter = %v, want 1", got)
	}
}

// blockingSource delegates to an inner ModelSource but runs a hook
// before building, letting a test hold the one singleflight runner
// inside its computation while the other callers pile up behind it.
type blockingSource struct {
	inner ModelSource
	hold  func()
}

func (b *blockingSource) Space(workload string) (cluster.Space, error) {
	if b.hold != nil {
		b.hold()
	}
	return b.inner.Space(workload)
}

// TestEnumerateSingleflight proves the acceptance property: N identical
// enumerate requests arriving together build exactly one kernel table,
// the rest collapsing onto the runner. A limited walk's herd collapses
// in the result cache, onto one computation of the answer; a frontier
// herd, whose answers are never cached, collapses in the table cache,
// onto one table build, and each caller then answers from its set.
func TestEnumerateSingleflight(t *testing.T) {
	cases := []struct {
		name, body string
		// collapsed reads the cache the herd must collapse in.
		collapsed func(*Server) uint64
	}{
		{"limited", `{"workload":"memcached","max_arm":6,"max_amd":4,"limit":50}`,
			func(s *Server) uint64 { return s.CacheStats().Collapsed }},
		{"frontier", `{"workload":"memcached","max_arm":6,"max_amd":4,"frontier_only":true}`,
			func(s *Server) uint64 { return s.TableCacheStats().Collapsed }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const callers = 8
			src := &blockingSource{inner: testSuite()}
			s := newTestServer(t, Options{Models: src, MaxConcurrent: callers})

			// Every request reaches the handler before any computes...
			var arrived sync.WaitGroup
			arrived.Add(callers)
			gate := make(chan struct{})
			s.testHookStart = func(ep string) {
				if ep == "enumerate" {
					arrived.Done()
					<-gate
				}
			}
			// ...and the one that wins the singleflight slot stays inside
			// the model build until the other callers have demonstrably
			// collapsed onto it, so the sharing is observed and not a
			// scheduling accident.
			src.hold = func() {
				deadline := time.Now().Add(5 * time.Second)
				for tc.collapsed(s) < callers-1 && time.Now().Before(deadline) {
					time.Sleep(100 * time.Microsecond)
				}
			}

			results := make(chan *httptest.ResponseRecorder, callers)
			for i := 0; i < callers; i++ {
				go func() { results <- post(t, s, "/v1/enumerate", tc.body) }()
			}
			arrived.Wait()
			close(gate)

			var first string
			for i := 0; i < callers; i++ {
				rr := <-results
				if rr.Code != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, rr.Code, rr.Body)
				}
				if first == "" {
					first = rr.Body.String()
				} else if rr.Body.String() != first {
					t.Errorf("request %d body differs", i)
				}
			}
			if got := s.TableBuilds(); got != 1 {
				t.Fatalf("kernel table built %d times for %d identical requests, want 1", got, callers)
			}
			if got := tc.collapsed(s); got != callers-1 {
				t.Errorf("collapsed = %d, want %d (results %+v, tables %+v)",
					got, callers-1, s.CacheStats(), s.TableCacheStats())
			}
		})
	}
}

// TestGracefulShutdown serves on a real listener, parks a request
// in-flight, shuts down, and requires the in-flight request to complete
// while the listener stops accepting.
func TestGracefulShutdown(t *testing.T) {
	s := newTestServer(t, Options{ShutdownGrace: 5 * time.Second})
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	s.testHookStart = func(ep string) {
		if ep == "predict" {
			once.Do(func() { close(started) })
			<-gate
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	url := "http://" + l.Addr().String() + "/v1/predict"
	type result struct {
		code int
		body string
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(url, "application/json",
			strings.NewReader(`{"workload":"ep","arm":{"nodes":1}}`))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resCh <- result{code: resp.StatusCode, body: string(b)}
	}()
	<-started

	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutErr <- s.Shutdown(ctx)
	}()

	// Shutdown closes the listener before draining; wait until new
	// connections are refused while the in-flight request still holds.
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, derr := net.DialTimeout("tcp", l.Addr().String(), 100*time.Millisecond)
		if derr != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(gate) // let the in-flight request finish
	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", res.err)
	}
	if res.code != http.StatusOK || !strings.Contains(res.body, "time_seconds") {
		t.Errorf("in-flight request: status %d body %s", res.code, res.body)
	}
	if err := <-shutErr; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("Serve returned %v after graceful shutdown, want nil", err)
	}
}

// TestRunStopsOnContextCancel exercises the daemon entrypoint: Run
// serves until its context is cancelled, then drains and returns nil.
func TestRunStopsOnContextCancel(t *testing.T) {
	s := newTestServer(t, Options{ShutdownGrace: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	runCtx, stop := context.WithCancel(ctx)
	runErr := make(chan error, 1)
	// Port 0 picks a free port; we only need start/stop mechanics here.
	go func() { runErr <- s.Run(runCtx, "127.0.0.1:0") }()
	time.Sleep(50 * time.Millisecond)
	stop()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("Run did not return after cancel")
	}
}

func TestNewRequiresModels(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New accepted empty Options")
	}
}

func TestUnitsSanity(t *testing.T) {
	// Guard the assumption the queueing endpoint relies on: units types
	// are plain float64 seconds/joules/watts.
	if units.Seconds(1.5) != 1.5 {
		t.Fatal("units.Seconds is not a plain float64")
	}
}
