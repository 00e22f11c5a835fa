package server

// The self-healing acceptance suite: kill/revive soaks against the
// fleet-in-one harness, driven by ReplicaChaos (reversible faults) and
// ProbeFleet (deterministic health-state stepping). `make fleet-heal`
// runs these under the race detector.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"heteromix/internal/fleethealth"
)

// replicaGauge reads the coordinator's fleet_replica_state gauge for
// one replica URL out of a metrics snapshot.
func replicaGauge(t *testing.T, s *Server, url string) float64 {
	t.Helper()
	key := fmt.Sprintf(`heteromixd_fleet_replica_state{target=%q}`, url)
	v, ok := s.reg.Snapshot()[key]
	if !ok {
		t.Fatalf("no %s in metrics snapshot", key)
	}
	return v
}

// fleetState reads one replica's probed state from the coordinator.
func fleetState(t *testing.T, s *Server, url string) fleethealth.State {
	t.Helper()
	rep, ok := s.FleetHealth().Get(url)
	if !ok {
		t.Fatalf("replica %s not in health snapshot", url)
	}
	return rep.State
}

// TestFleetKillDetectExcludeRevive is the tentpole acceptance walk: a
// killed replica's shards fail over within the same fan-out, probes
// confirm the death (healthy → suspect → dead, observable in /metrics
// and /healthz), the dead replica is excluded from candidate walks so
// later fan-outs waste no attempts on it, and after revival the
// hysteresis path (recovering → healthy) restores routing. Each stage
// asks a spec of its own (coldSpec), so each fans out.
func TestFleetKillDetectExcludeRevive(t *testing.T) {
	f := newFleet(t, 4, Options{}, Options{})
	plain := newTestServer(t, Options{})
	ctx := context.Background()
	victim := f.primaryOf(t, 0)
	victimURL := f.urls[victim]

	check := func(stage string, k int) {
		t.Helper()
		fanouts := f.coord.fleetFanouts.Value()
		want := post(t, plain, "/v1/enumerate-generic", coldBody(k))
		rr := post(t, f.coord, "/v1/enumerate-generic", coldFleetBody(k, 4))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", stage, rr.Code, rr.Body)
		}
		if rr.Header().Get("X-Degraded") == "true" {
			t.Fatalf("%s: degraded merge with healthy replicas available: %s", stage, rr.Body)
		}
		if rr.Body.String() != want.Body.String() {
			t.Fatalf("%s: merge not bit-identical to unsharded", stage)
		}
		if f.coord.fleetFanouts.Value() != fanouts+1 {
			t.Fatalf("%s: the coordinator did not fan out", stage)
		}
	}

	// Baseline: everything healthy.
	check("baseline", 0)
	if got := replicaGauge(t, f.coord, victimURL); got != float64(fleethealth.Healthy) {
		t.Fatalf("baseline gauge = %v, want healthy (0)", got)
	}

	// Kill. The very next fan-out still answers full and bit-identical —
	// request-time failover, no probe needed.
	f.chaos[victim].Kill()
	check("killed, pre-probe", 1)

	// Probes confirm the death: suspect after 1 failure, dead after 3
	// (the defaults), with the labeled gauge tracking each step.
	f.coord.ProbeFleet(ctx)
	if st := fleetState(t, f.coord, victimURL); st != fleethealth.Suspect {
		t.Fatalf("after 1 failed probe: %v, want suspect", st)
	}
	f.coord.ProbeFleet(ctx)
	f.coord.ProbeFleet(ctx)
	if st := fleetState(t, f.coord, victimURL); st != fleethealth.Dead {
		t.Fatalf("after 3 failed probes: %v, want dead", st)
	}
	if got := replicaGauge(t, f.coord, victimURL); got != float64(fleethealth.Dead) {
		t.Fatalf("gauge = %v, want dead (2)", got)
	}

	// /healthz exposes the same view.
	hz := get(t, f.coord, "/healthz")
	health := decodeBody[HealthResponse](t, hz)
	if health.Fleet == nil {
		t.Fatal("coordinator /healthz has no fleet section")
	}
	found := false
	for _, rep := range health.Fleet.Replicas {
		if rep.URL == victimURL {
			found = true
			if rep.State != "dead" {
				t.Fatalf("healthz reports %q, want dead", rep.State)
			}
			if rep.LastError == "" {
				t.Error("dead replica has no last_error in healthz")
			}
		}
	}
	if !found {
		t.Fatalf("victim %s missing from healthz fleet section", victimURL)
	}

	// Once dead, the replica is excluded before a byte is sent: fan-outs
	// stay full with no new failovers or hedges.
	before := f.coord.reg.Snapshot()
	check("probed dead", 2)
	after := f.coord.reg.Snapshot()
	if d := after["heteromixd_fleet_failovers_total"] - before["heteromixd_fleet_failovers_total"]; d != 0 {
		t.Errorf("probed-dead fan-out still failed over %v times", d)
	}

	// Revive. One good probe makes it recovering (still unroutable —
	// hysteresis), the second healthy again.
	f.chaos[victim].Revive()
	f.coord.ProbeFleet(ctx)
	if st := fleetState(t, f.coord, victimURL); st != fleethealth.Recovering {
		t.Fatalf("after 1 good probe: %v, want recovering", st)
	}
	f.coord.ProbeFleet(ctx)
	if st := fleetState(t, f.coord, victimURL); st != fleethealth.Healthy {
		t.Fatalf("after 2 good probes: %v, want healthy", st)
	}
	if got := replicaGauge(t, f.coord, victimURL); got != float64(fleethealth.Healthy) {
		t.Fatalf("gauge after revival = %v, want healthy (0)", got)
	}
	check("revived", 3)

	// The snapshot version moved on every transition.
	if v := f.coord.FleetHealth().Version; v < 5 {
		t.Errorf("snapshot version = %d after 4 transitions, want >= 5", v)
	}
}

// TestFleetKillReviveSoak keeps traffic flowing while replicas die and
// come back: every 200 non-degraded answer must be bit-identical to the
// unsharded ground truth, degraded partials must never be cached, and
// the fleet must end the soak serving full merges again. Each round
// asks a spec of its own (coldSpec), so each fans out.
func TestFleetKillReviveSoak(t *testing.T) {
	f := newFleet(t, 4, Options{}, Options{})
	plain := newTestServer(t, Options{})
	ctx := context.Background()

	wantBody := func(k int) string {
		rr := post(t, plain, "/v1/enumerate-generic", coldBody(k))
		if rr.Code != http.StatusOK {
			t.Fatalf("ground truth for spec %d: %d", k, rr.Code)
		}
		return rr.Body.String()
	}

	sawFull, sawRecovered := false, false
	deadSince := -1
	for round := 0; round < 24; round++ {
		// Kill a rotating victim for three rounds out of every six, with
		// probes marking it dead, then revive and probe it back in.
		switch round % 6 {
		case 0:
			victim := (round / 6) % len(f.chaos)
			f.chaos[victim].Kill()
			for i := 0; i < 3; i++ {
				f.coord.ProbeFleet(ctx)
			}
			deadSince = victim
		case 3:
			f.chaos[deadSince].Revive()
			f.coord.ProbeFleet(ctx)
			f.coord.ProbeFleet(ctx)
			sawRecovered = true
		}

		rr := post(t, f.coord, "/v1/enumerate-generic", coldFleetBody(round, 4))
		switch rr.Code {
		case http.StatusOK:
			if rr.Header().Get("X-Degraded") == "true" {
				// With 3 of 4 replicas healthy a degraded merge would be a
				// failover bug, not an availability condition.
				t.Fatalf("round %d: degraded with one dead replica: %s", round, rr.Body)
			}
			if rr.Body.String() != wantBody(round) {
				t.Fatalf("round %d: merge not bit-identical under churn", round)
			}
			sawFull = true
		default:
			t.Fatalf("round %d: status %d: %s", round, rr.Code, rr.Body)
		}
	}
	if !sawFull || !sawRecovered {
		t.Fatalf("soak exercised too little: full=%v recovered=%v", sawFull, sawRecovered)
	}
	if n := f.coord.fleetFanouts.Value(); n != 24 {
		t.Fatalf("%d fan-outs in 24 rounds, want one per round", n)
	}
	// The fleet ends the soak with every replica routable again.
	f.chaos[deadSince].Revive()
	f.coord.ProbeFleet(ctx)
	f.coord.ProbeFleet(ctx)
	for _, rep := range f.coord.FleetHealth().Replicas {
		if !rep.State.Routable() {
			t.Errorf("replica %s ends the soak %v", rep.URL, rep.State)
		}
	}
}

// waitGoroutinesBelow polls until the goroutine count drops to the
// bound or the deadline passes — in-flight hedge losers need a moment
// to observe their cancelled contexts. Keep-alive pool goroutines
// (client readLoop/writeLoop pairs and the server ends of those
// connections) are not leaks, so before each count the idle pools are
// torn down: each coordinator's fleet transport and http.DefaultClient's,
// which the health prober rides.
func waitGoroutinesBelow(bound int, d time.Duration, coords ...*Server) int {
	deadline := time.Now().Add(d)
	for {
		for _, s := range coords {
			s.fleet.tr.CloseIdleConnections()
		}
		http.DefaultClient.CloseIdleConnections()
		n := runtime.NumGoroutine()
		if n <= bound || !time.Now().Before(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetHedgeRescuesSlowReplica: a replica that is alive but slow
// (cold caches after revival) stalls its shards past the hedge delay;
// the hedge to the next candidate wins, the fan-out finishes far below
// the stall, and the cancelled losers leak no goroutines. The same plan
// with hedging disabled eats the full stall — the tail-latency win the
// hedge exists for. Each coordinator asks a spec it has not folded, so
// each fans out.
func TestFleetHedgeRescuesSlowReplica(t *testing.T) {
	const stall = 2 * time.Second
	f := newFleet(t, 2, Options{}, Options{})
	noHedge := newTestServer(t, Options{Replicas: f.urls, DisableHedge: true, ProbeInterval: time.Hour})
	slow := f.primaryOf(t, 0) // shard 0's primary will stall
	f.chaos[slow].SlowStart(stall)

	base := runtime.NumGoroutine()

	start := time.Now()
	rr := post(t, f.coord, "/v1/enumerate-generic", coldFleetBody(0, 2))
	hedged := time.Since(start)
	if rr.Code != http.StatusOK || rr.Header().Get("X-Degraded") == "true" {
		t.Fatalf("hedged fan-out: %d degraded=%q %s", rr.Code, rr.Header().Get("X-Degraded"), rr.Body)
	}
	if hedged >= stall {
		t.Fatalf("hedged fan-out took %v, at or beyond the %v stall", hedged, stall)
	}
	snap := f.coord.reg.Snapshot()
	if snap["heteromixd_fleet_hedges_total"] < 1 {
		t.Errorf("fleet_hedges_total = %v, want >= 1", snap["heteromixd_fleet_hedges_total"])
	}
	if snap["heteromixd_fleet_hedge_wins_total"] < 1 {
		t.Errorf("fleet_hedge_wins_total = %v, want >= 1", snap["heteromixd_fleet_hedge_wins_total"])
	}

	// Same stall, hedging off: the fan-out waits out the slow replica.
	start = time.Now()
	rn := post(t, noHedge, "/v1/enumerate-generic", coldFleetBody(1, 2))
	unhedged := time.Since(start)
	if rn.Code != http.StatusOK {
		t.Fatalf("no-hedge fan-out: %d %s", rn.Code, rn.Body)
	}
	if unhedged <= hedged {
		t.Errorf("no-hedge fan-out (%v) not slower than hedged (%v) under a %v stall",
			unhedged, hedged, stall)
	}
	if unhedged < stall {
		t.Errorf("no-hedge fan-out took %v, expected to eat the full %v stall", unhedged, stall)
	}

	// Cancelled hedge losers drain: the goroutine count settles back to
	// (about) the baseline instead of accumulating stuck HTTP calls.
	f.chaos[slow].Revive()
	if n := waitGoroutinesBelow(base+8, 5*time.Second, f.coord, noHedge); n > base+8 {
		t.Errorf("goroutines settled at %d, baseline %d: hedge losers leaked", n, base)
	}

	// The loser's cancellation was neutral: the slow replica's breaker
	// must still be closed, so one hedge never sheds a healthy replica.
	if st := f.coord.fleet.breakerFor(f.urls[slow]).State(); st.String() != "closed" {
		t.Errorf("slow replica's breaker = %v after losing a hedge, want closed", st)
	}
}

// TestDeadlinePropagation: the coordinator stamps X-Deadline-Ms on
// every shard sub-request, with the budget below its own remaining
// timeout (the 10% gather margin), and replicas parse it.
func TestDeadlinePropagation(t *testing.T) {
	f := newFleet(t, 2, Options{RequestTimeout: 10 * time.Second}, Options{})
	rr := post(t, f.coord, "/v1/enumerate-generic", fleetWorkBody(2, 9e7))
	if rr.Code != http.StatusOK {
		t.Fatalf("fan-out: %d %s", rr.Code, rr.Body)
	}
	var stamped float64
	for _, rs := range f.replicas {
		stamped += rs.reg.Snapshot()["heteromixd_deadline_capped_total"]
	}
	if stamped < 2 {
		t.Fatalf("deadline_capped_total across replicas = %v, want >= 2 (one per shard)", stamped)
	}
}

// TestDeadlineHeaderRejectsMalformed pins the 400-never-500 contract on
// the new header: garbage, non-positive, overflow and beyond-cap values
// are all client errors; a valid tighter deadline is honored and
// counted.
func TestDeadlineHeaderRejectsMalformed(t *testing.T) {
	s := newTestServer(t, Options{})
	body := `{"workload":"ep","arm":{"nodes":1}}`
	for _, bad := range []string{"abc", "-5", "0", "1.5", " 7", "99999999999999999999", "3600001"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
		req.Header.Set("X-Deadline-Ms", bad)
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, req)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("X-Deadline-Ms=%q: %d, want 400", bad, rr.Code)
		}
	}
	// A generous valid deadline serves normally without capping.
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.Header.Set("X-Deadline-Ms", "3600000")
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("valid deadline: %d %s", rr.Code, rr.Body)
	}
	if got := s.reg.Snapshot()["heteromixd_deadline_capped_total"]; got != 0 {
		t.Errorf("deadline_capped_total = %v after a looser-than-timeout deadline, want 0", got)
	}
	// GET endpoints ignore the header entirely (only limited endpoints
	// accept propagated deadlines).
	greq := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	greq.Header.Set("X-Deadline-Ms", "garbage")
	grr := httptest.NewRecorder()
	s.Handler().ServeHTTP(grr, greq)
	if grr.Code != http.StatusOK {
		t.Errorf("healthz with garbage deadline header: %d, want 200", grr.Code)
	}
}

// TestDeadlineShedsWork: a tight propagated deadline caps the handler's
// timeout, so a stalled compute answers 503 at the deadline instead of
// finishing an answer nobody will read — and the cap is counted. The
// enumerate walk polls ctx, and a cold key has no stale entry to fall
// back on, so the expired deadline surfaces as a shed.
func TestDeadlineShedsWork(t *testing.T) {
	s := newTestServer(t, Options{RequestTimeout: 30 * time.Second})
	s.testHookStart = func(endpoint string) {
		if endpoint == "enumerate" {
			time.Sleep(150 * time.Millisecond)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/enumerate",
		strings.NewReader(`{"workload":"ep","max_arm":2,"max_amd":2}`))
	req.Header.Set("X-Deadline-Ms", "50")
	start := time.Now()
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	elapsed := time.Since(start)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("tight deadline: %d %s, want 503", rr.Code, rr.Body)
	}
	if elapsed >= 10*time.Second {
		t.Fatalf("request ran %v, deadline did not cap the timeout", elapsed)
	}
	if got := s.reg.Snapshot()["heteromixd_deadline_capped_total"]; got < 1 {
		t.Errorf("deadline_capped_total = %v, want >= 1", got)
	}
}
