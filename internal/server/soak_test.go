package server

// Chaos soak: hammer one daemon instance with concurrent traffic while
// the chaos middleware injects latency (past the request timeout),
// errors and panics, and require the resilience properties to hold
// under load:
//
//   - the daemon never crashes — every request gets an answer, and the
//     process survives every injected panic (an escaped panic would
//     kill the test binary);
//   - panics are contained by the recovery middleware and counted;
//   - the enumerate breaker opens under the induced failures;
//   - after the storm, /healthz still answers 200 ok.
//
// The whole soak is bounded well under 30s in -short mode: it stops as
// soon as every property has been observed (typically ~1-2s).

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heteromix/internal/resilience"
)

func TestChaosSoakDaemonSurvives(t *testing.T) {
	s := newTestServer(t, Options{
		MaxConcurrent:  16,
		RequestTimeout: 30 * time.Millisecond,
		// Latency injection outlasts the request timeout, so an injected
		// delay on an enumerate fails it.
		Chaos: resilience.ChaosOptions{
			LatencyProb: 0.5, Latency: 45 * time.Millisecond,
			ErrorProb: 0.1, PanicProb: 0.1, Seed: 7,
		},
		BreakerThreshold: 3,
		BreakerCooldown:  20 * time.Millisecond,
	})

	// Seed the table cache, so an enumerate fails only when chaos makes
	// it.
	const enumBody = `{"workload":"ep","max_arm":3,"max_amd":2}`
	seedEnumerate(t, s, enumBody)

	deadline := time.Now().Add(20 * time.Second)
	if testing.Short() {
		deadline = time.Now().Add(10 * time.Second)
	}
	var (
		answered  atomic.Int64
		badStatus atomic.Int64
		stop      atomic.Bool
	)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				var rr interface{ Result() *http.Response }
				switch i % 3 {
				case 0:
					rr = post(t, s, "/v1/enumerate", enumBody)
				case 1:
					rr = post(t, s, "/v1/predict",
						fmt.Sprintf(`{"workload":"ep","arm":{"nodes":%d}}`, 1+(i+id)%4))
				default:
					rr = get(t, s, "/healthz")
				}
				code := rr.Result().StatusCode
				answered.Add(1)
				// Under chaos every answer must still be a deliberate
				// status: success, a contained 500 (panic), or a
				// load-shedding/timeout/breaker 503/504. Anything else is
				// a broken serving path.
				switch code {
				case http.StatusOK, http.StatusInternalServerError,
					http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				default:
					badStatus.Add(1)
				}
			}
		}(w)
	}

	// Observe until every resilience property has fired.
	var panics, opens float64
	for time.Now().Before(deadline) {
		snap := s.reg.Snapshot()
		panics = snap["heteromixd_panics_recovered_total"]
		opens = snap["heteromixd_breaker_opens_total"]
		if panics >= 1 && opens >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if panics < 1 {
		t.Errorf("no panic was injected and contained (panics_recovered_total = %v)", panics)
	}
	if opens < 1 {
		t.Errorf("breaker never opened under chaos (breaker_opens_total = %v)", opens)
	}
	if n := badStatus.Load(); n > 0 {
		t.Errorf("%d responses outside the allowed status set", n)
	}
	if n := answered.Load(); n < int64(workers) {
		t.Errorf("only %d requests answered", n)
	}

	// The storm is over; the daemon is still alive and sane.
	rr := get(t, s, "/healthz")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz after soak: %d %s", rr.Code, rr.Body)
	}
	h := decodeBody[HealthResponse](t, rr)
	if h.PanicsRecovered < 1 {
		t.Errorf("healthz panics_recovered = %d", h.PanicsRecovered)
	}
	t.Logf("soak: %d requests, %v panics contained, %v breaker opens",
		answered.Load(), panics, opens)
}
