package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"heteromix/internal/resilience"
)

// postDeadline drives one buffered request carrying a propagated
// X-Deadline-Ms budget.
func postDeadline(t testing.TB, s *Server, path, body, ms string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set(deadlineHeader, ms)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	return rr
}

// TestFrontierWalksHonourDeadline: frontier walks poll the request
// context like every limited walk, so an expired deadline stops them —
// a 503 when buffered, a terminal error record with no trailer when
// streamed — instead of finishing the whole space first.
func TestFrontierWalksHonourDeadline(t *testing.T) {
	// The undeadlined walk covers 5.9 M points, seconds under -race.
	s := newTestServer(t, Options{RequestTimeout: time.Minute})
	twoType := func(maxAMD int, extra string) string {
		return fmt.Sprintf(`{"workload":"ep","max_arm":128,"max_amd":%d,"frontier_only":true%s}`, maxAMD, extra)
	}
	// The two-type table is compiled per workload, not per bound.
	if rr := post(t, s, "/v1/enumerate", `{"workload":"ep","max_arm":1,"max_amd":1}`); rr.Code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", rr.Code, rr.Body)
	}
	// The table keeps a candidate set per bounds pair, so the walk is
	// timed on neighbouring bounds: the deadlined frontiers below must
	// run the walk that builds the 128x128 set.
	start := time.Now()
	if rr := post(t, s, "/v1/enumerate", twoType(127, "")); rr.Code != http.StatusOK {
		t.Fatalf("undeadlined frontier: %d %s", rr.Code, rr.Body)
	}
	undeadlined := time.Since(start)

	// Each deadlined request names its own work size, so none is a cache
	// hit on the answer above.
	start = time.Now()
	rr := postDeadline(t, s, "/v1/enumerate", twoType(128, `,"work":1e6`), "5")
	deadlined := time.Since(start)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("5 ms deadline on a %v frontier walk: %d %.200s, want 503", undeadlined, rr.Code, rr.Body)
	}
	if deadlined*10 >= undeadlined {
		t.Fatalf("deadlined frontier took %v, undeadlined %v: want under a tenth", deadlined, undeadlined)
	}
	hdr := map[string]string{deadlineHeader: "5"}
	st := parseNDJSON(t, postStream(t, s, "/v1/enumerate", twoType(128, `,"work":2e6`), hdr).Body.String())
	if st.errMsg == nil || st.trailer != nil {
		t.Fatalf("deadlined two-type stream: error %v, trailer %+v; want an error record and no trailer", st.errMsg, st.trailer)
	}

	generic := `{"workload":"ep","types":[
		{"node":"arm-cortex-a9","max_nodes":9,"needs_switch":true},
		{"node":"arm-cortex-a15","max_nodes":9,"needs_switch":true},
		{"node":"amd-opteron-k10","max_nodes":9}]`
	// Compiles and caches the 9/9/9 tables without a frontier query, so
	// the deadlined frontiers below must run the walk that builds the
	// pruned table's candidate set.
	if rr := post(t, s, "/v1/enumerate-generic", generic+`,"prune":true,"limit":1}`); rr.Code != http.StatusOK {
		t.Fatalf("generic table warm-up: %d %s", rr.Code, rr.Body)
	}
	frontier := generic + `,"frontier_only":true`
	if rr := postDeadline(t, s, "/v1/enumerate-generic", frontier+`,"work":1e6}`, "5"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("5 ms deadline on the generic frontier: %d %.200s, want 503", rr.Code, rr.Body)
	}
	st = parseNDJSON(t, postStream(t, s, "/v1/enumerate-generic", frontier+`,"work":2e6}`, hdr).Body.String())
	if st.errMsg == nil || st.trailer != nil {
		t.Fatalf("deadlined generic stream: error %v, trailer %+v; want an error record and no trailer", st.errMsg, st.trailer)
	}
	// The stopped builds were not kept: an undeadlined frontier builds
	// the set and answers.
	if rr := post(t, s, "/v1/enumerate-generic", frontier+`}`); rr.Code != http.StatusOK {
		t.Fatalf("undeadlined generic frontier: %d %s", rr.Code, rr.Body)
	}
	if rr := post(t, s, "/v1/enumerate", twoType(128, "")); rr.Code != http.StatusOK {
		t.Fatalf("undeadlined two-type frontier: %d %s", rr.Code, rr.Body)
	}
}

// TestClientDeadlineLeavesBreakerClosed: expiry of a caller's propagated
// X-Deadline-Ms says nothing about this server's health, so a burst of
// tightly deadlined walks past the breaker threshold must not open the
// enumerate breaker for everyone else. (The server's own RequestTimeout
// still counts; TestEnumerateBreakerDegradedServing pins that.)
func TestClientDeadlineLeavesBreakerClosed(t *testing.T) {
	const threshold = 3
	s := newTestServer(t, Options{RequestTimeout: time.Minute, BreakerThreshold: threshold, BreakerCooldown: time.Minute})
	small := `{"workload":"ep","max_arm":1,"max_amd":1}`
	if rr := post(t, s, "/v1/enumerate", small); rr.Code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", rr.Code, rr.Body)
	}
	for i := 0; i <= threshold; i++ {
		// A 5.9 M-point two-type frontier walk, a fresh work size each time.
		body := fmt.Sprintf(`{"workload":"ep","max_arm":128,"max_amd":128,"frontier_only":true,"work":%d}`, 1_000_000+i)
		if rr := postDeadline(t, s, "/v1/enumerate", body, "1"); rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("deadlined walk %d: %d %.200s, want 503", i, rr.Code, rr.Body)
		}
	}
	if rr := post(t, s, "/v1/enumerate", `{"workload":"ep","max_arm":2,"max_amd":2}`); rr.Code != http.StatusOK {
		t.Fatalf("undeadlined request after %d deadlined walks: %d %.200s, want 200", threshold+1, rr.Code, rr.Body)
	}
	if st := s.BreakerState(); st != resilience.Closed {
		t.Fatalf("breaker %v after deadlined walks, want closed", st)
	}
}

// TestTwoTypeRowsAllocateNothing: a two-type row is encoded straight
// from its point, so no walk allocates per row. A limited walk costs the
// same at 10 rows as at 1,000, and a warm frontier costs no more than
// Table.FrontierCounted plus the one row buffer.
func TestTwoTypeRowsAllocateNothing(t *testing.T) {
	s := newTestServer(t, Options{})
	tbl, err := s.tableFor("ep", false)
	if err != nil {
		t.Fatal(err)
	}
	wk := &walker{maxARM: 10, maxAMD: 10, two: tbl}
	ctx := context.Background()
	rows := 0
	emit := func([]byte) error { rows++; return nil }
	limited := func(limit int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := wk.limited(ctx, 5e7, limit, emit); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := limited(10), limited(1000)
	t.Logf("limited walk: %v allocations at 10 rows, %v at 1,000", few, many)
	if many != few {
		t.Errorf("a limited walk allocates %v times at 10 rows and %v at 1,000, want no per-row allocation", few, many)
	}
	rows = 0
	if _, err := wk.frontier(ctx, 5e7, emit); err != nil || rows == 0 {
		t.Fatalf("frontier: %d rows, %v", rows, err)
	}
	frontierRows := rows
	bare := testing.AllocsPerRun(5, func() { _, _, _, _ = tbl.FrontierCounted(ctx, 10, 10, 5e7) })
	if n := testing.AllocsPerRun(5, func() { _, _ = wk.frontier(ctx, 5e7, emit) }); n > bare+1 {
		t.Errorf("a %d-row frontier allocates %v times, FrontierCounted %v: want at most one more, the row buffer", frontierRows, n, bare)
	}
}
