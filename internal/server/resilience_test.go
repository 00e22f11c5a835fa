package server

// Resilience-path tests: readiness vs liveness during graceful drain,
// the circuit breaker on the enumerate compute path, degraded stale
// serving, and panic containment.

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"heteromix/internal/resilience"
	"heteromix/internal/snapshot"
)

func TestReadyzBeforeDrain(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := get(t, s, "/readyz")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	if resp := decodeBody[ReadyResponse](t, rr); resp.Status != "ready" {
		t.Errorf("status %q, want ready", resp.Status)
	}
}

// TestDrainFlipsReadyzWhileInflightCompletes runs the daemon entrypoint
// against a real listener, parks a request in-flight, cancels the run
// context, and requires: /readyz answers 503 during the drain window
// while /healthz stays 200, and the parked request still completes 200.
func TestDrainFlipsReadyzWhileInflightCompletes(t *testing.T) {
	s := newTestServer(t, Options{DrainDelay: time.Second, ShutdownGrace: 5 * time.Second})
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	s.testHookStart = func(ep string) {
		if ep == "predict" {
			once.Do(func() { close(started) })
			<-gate
		}
	}

	runCtx, stop := context.WithCancel(context.Background())
	defer stop()
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(runCtx, "127.0.0.1:0") }()

	// Wait for the listener to come up and advertise readiness.
	var base string
	for deadline := time.Now().Add(5 * time.Second); ; {
		if addr := s.Addr(); addr != "" {
			base = "http://" + addr
			if resp, err := http.Get(base + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Park one request in-flight.
	type result struct {
		code int
		body string
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/predict", "application/json",
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

	// Begin the drain; readiness must flip to 503 while the listener is
	// still accepting (we get an HTTP answer, not a refused connection).
	stop()
	flipped := false
	for deadline := time.Now().Add(900 * time.Millisecond); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatalf("readyz unreachable during drain window: %v", err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			flipped = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !flipped {
		t.Fatal("readyz never flipped to 503 during drain")
	}
	// Liveness is unchanged: the process is healthy, just not accepting
	// new work.
	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	close(gate)
	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.code != http.StatusOK || !strings.Contains(res.body, "time_seconds") {
		t.Errorf("in-flight request: status %d body %s", res.code, res.body)
	}
	if err := <-runErr; err != nil {
		t.Errorf("Run: %v", err)
	}
	if !s.Draining() {
		t.Error("Draining() false after drain began")
	}
}

// seedEnumerate answers an enumerate body on a twin server with the
// default request timeout and no injected faults and loads the twin's
// caches — the compiled table the answer needed — into s through the
// snapshot path. It gives a test whose own server runs on a tight
// deadline or under chaos a warm table without putting the cold compute
// (model fits, table compile) under that deadline: under -race the
// cold 3x2 enumerate alone outlasts a 30 ms RequestTimeout.
func seedEnumerate(t *testing.T, s *Server, body string) {
	t.Helper()
	twin := newTestServer(t, Options{})
	rr := post(t, twin, "/v1/enumerate", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("seed request: %d %s", rr.Code, rr.Body)
	}
	snap, err := snapshot.Decode(snapshot.Encode(twin.BuildSnapshot()))
	if err == nil {
		err = s.applySnapshot(snap)
	}
	if err != nil {
		t.Fatalf("loading the seed: %v", err)
	}
}

// TestEnumerateBreakerDegradedServing drives the enumerate compute path
// into repeated failure (request timeouts), and requires: each failure
// answers its error status, never a 200 marked degraded (enumerations
// are computed every time, so there is no stale body to stand in), the
// breaker opens at the threshold, and under the open breaker a request
// answers 503 with Retry-After without computing — the same body that
// failed and a cold one alike.
func TestEnumerateBreakerDegradedServing(t *testing.T) {
	s := newTestServer(t, Options{
		RequestTimeout:   30 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	})
	const body = `{"workload":"ep","max_arm":3,"max_amd":2}`
	seedEnumerate(t, s, body)

	// Break the compute path: every enumerate stalls past the request
	// timeout before the handler runs, so the compute fails on ctx.
	var stall sync.Mutex
	stalling := true
	s.testHookStart = func(ep string) {
		stall.Lock()
		on := stalling
		stall.Unlock()
		if on && ep == "enumerate" {
			time.Sleep(60 * time.Millisecond)
		}
	}
	for i := 0; i < 2; i++ {
		rr := post(t, s, "/v1/enumerate", body)
		if rr.Code == http.StatusOK || rr.Header().Get("X-Degraded") != "" {
			t.Fatalf("failing compute %d: status %d degraded=%q, want its error status",
				i, rr.Code, rr.Header().Get("X-Degraded"))
		}
	}
	if st := s.BreakerState(); st != resilience.Open {
		t.Fatalf("breaker %v after %d consecutive failures, want open", st, 2)
	}

	// With the breaker open, the dependency is no longer even tried: the
	// stall is off, yet both the body that failed and a cold one answer
	// 503 with Retry-After.
	stall.Lock()
	stalling = false
	stall.Unlock()
	for _, b := range []string{body, `{"workload":"ep","max_arm":2,"max_amd":1}`} {
		rr := post(t, s, "/v1/enumerate", b)
		if rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s under open breaker: %d, want 503 (%s)", b, rr.Code, rr.Body)
		}
		if rr.Header().Get("Retry-After") == "" {
			t.Errorf("%s: open-breaker 503 without Retry-After", b)
		}
	}

	h := decodeBody[HealthResponse](t, get(t, s, "/healthz"))
	if h.Breaker != "open" {
		t.Errorf("healthz breaker = %q, want open", h.Breaker)
	}
	if h.DegradedResponses != 0 {
		t.Errorf("degraded_responses = %d, want 0", h.DegradedResponses)
	}
}

// TestPanicContainedByRecoveryMiddleware: a panicking handler yields a
// contained 500 and a counted panic — never a dead daemon.
func TestPanicContainedByRecoveryMiddleware(t *testing.T) {
	s := newTestServer(t, Options{})
	s.testHookStart = func(ep string) {
		if ep == "predict" {
			panic("test: handler bug")
		}
	}
	rr := post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":1}}`)
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want contained 500", rr.Code)
	}
	if got := s.reg.Snapshot()["heteromixd_panics_recovered_total"]; got != 1 {
		t.Errorf("panics counter = %v, want 1", got)
	}
	// The server keeps serving.
	s.testHookStart = nil
	if rr := post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":1}}`); rr.Code != http.StatusOK {
		t.Errorf("request after contained panic: %d", rr.Code)
	}
}

// The chaos middleware only wraps limited (/v1) endpoints, and its
// injected errors carry the X-Chaos marker so operators can tell chaos
// from organic failure.
func TestChaosOnlyWrapsLimitedEndpoints(t *testing.T) {
	s := newTestServer(t, Options{Chaos: resilience.ChaosOptions{ErrorProb: 1, Seed: 3}})
	rr := post(t, s, "/v1/predict", `{"workload":"ep","arm":{"nodes":1}}`)
	if rr.Code != http.StatusServiceUnavailable || rr.Header().Get("X-Chaos") != "error" {
		t.Errorf("chaos error injection: %d X-Chaos=%q", rr.Code, rr.Header().Get("X-Chaos"))
	}
	// healthz and readyz are outside the blast radius.
	if rr := get(t, s, "/healthz"); rr.Code != http.StatusOK {
		t.Errorf("healthz under chaos: %d", rr.Code)
	}
	if rr := get(t, s, "/readyz"); rr.Code != http.StatusOK {
		t.Errorf("readyz under chaos: %d", rr.Code)
	}
	if got := s.reg.Snapshot()[`heteromixd_chaos_injections_total{kind="error"}`]; got != 1 {
		t.Errorf("chaos injection counter = %v, want 1", got)
	}
}
