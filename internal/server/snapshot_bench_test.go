package server

// Benchmarks and the CI gate for cold-start elimination: time from
// server construction to the first answers — one /v1/predict and one
// cold tri-cluster frontier enumeration (the same 384,344-config space
// bench-generic walks) — with and without a -preheat snapshot from a
// warm sibling. `make bench-preheat` runs both benchmarks plus
// TestPreheatSpeedupGate. Model fitting is shared across iterations
// (the Suite caches fitted models), so the numbers isolate exactly
// what a restart pays: table compilation and the enumeration walk
// versus a snapshot decode.

import (
	"net/http"
	"os"
	"sort"
	"testing"
	"time"
)

// benchGenericBody is the canonical tri-cluster frontier request: the
// expensive first answer a restarted replica owes its callers.
const benchGenericBody = `{"workload":"ep","types":[` +
	`{"node":"arm-cortex-a9","max_nodes":4,"needs_switch":true},` +
	`{"node":"arm-cortex-a15","max_nodes":4,"needs_switch":true},` +
	`{"node":"amd-opteron-k10","max_nodes":4}],` +
	`"frontier_only":true}`

// benchSnapshotPath builds one warm snapshot for the whole benchmark:
// a donor serves the canonical predict and tri-cluster bodies, then
// dumps its caches.
func benchSnapshotPath(tb testing.TB) string {
	tb.Helper()
	a := newTestServer(tb, Options{})
	for _, body := range []struct{ path, body string }{
		{"/v1/predict", snapPredictBody},
		{"/v1/enumerate-generic", benchGenericBody},
	} {
		if rr := post(tb, a, body.path, body.body); rr.Code != http.StatusOK {
			tb.Fatalf("warming %s: %d %s", body.path, rr.Code, rr.Body)
		}
	}
	path, _ := writeWarmSnapshot(tb, a)
	return path
}

// coldStart constructs a server (optionally preheated) and serves the
// first predict and the first tri-cluster enumeration, returning the
// restart-to-first-answers wall time and the request-only portion of
// the first predict.
func coldStart(tb testing.TB, snapshotPath string) (total, predict time.Duration) {
	tb.Helper()
	wantCache := "miss"
	if snapshotPath != "" {
		wantCache = "hit"
	}
	start := time.Now()
	s, err := New(Options{Models: testSuite(), SnapshotPath: snapshotPath})
	if err != nil {
		tb.Fatal(err)
	}
	predictStart := time.Now()
	rr := post(tb, s, "/v1/predict", snapPredictBody)
	predict = time.Since(predictStart)
	if rr.Code != http.StatusOK {
		tb.Fatalf("first predict: %d %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("X-Cache"); got != wantCache {
		tb.Fatalf("first predict X-Cache = %q, want %q", got, wantCache)
	}
	rr = post(tb, s, "/v1/enumerate-generic", benchGenericBody)
	total = time.Since(start)
	s.Close()
	if rr.Code != http.StatusOK {
		tb.Fatalf("first enumerate: %d %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("X-Cache"); got != wantCache {
		tb.Fatalf("first enumerate X-Cache = %q, want %q", got, wantCache)
	}
	return total, predict
}

func BenchmarkColdStartNoSnapshot(b *testing.B) {
	testSuite() // fit the models outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldStart(b, "")
	}
}

func BenchmarkColdStartPreheated(b *testing.B) {
	path := benchSnapshotPath(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldStart(b, path)
	}
}

// TestPreheatSpeedupGate is the bench-preheat CI gate. Three bars:
//
//  1. preheated restart-to-first-answers ≥4x faster than no-snapshot —
//     the snapshot decode must be much cheaper than recompiling the
//     kernel tables and walking the 384,344-config space;
//  2. the first predict request itself ≥4x faster preheated than cold
//     (a cache hit versus a table build plus evaluation);
//  3. the preheated first predict within 3x of a steady-state warm hit
//     on a server that never restarted — a preheated restart is
//     indistinguishable from no restart.
//
// Each bar compares medians over 15 interleaved trials per side.
// Only runs under `make bench-preheat` (HETEROMIX_PREHEAT_GATE=1) so
// plain `go test ./...` stays fast.
func TestPreheatSpeedupGate(t *testing.T) {
	if os.Getenv("HETEROMIX_PREHEAT_GATE") != "1" {
		t.Skip("set HETEROMIX_PREHEAT_GATE=1 (make bench-preheat) to run the speedup gate")
	}
	path := benchSnapshotPath(t)

	// Steady-state warm hits come from a server that never restarted.
	warm := newTestServer(t, Options{})
	if rr := post(t, warm, "/v1/predict", snapPredictBody); rr.Code != http.StatusOK {
		t.Fatalf("warming: %d %s", rr.Code, rr.Body)
	}

	// Sub-millisecond timings on a shared host swing with whatever else
	// runs, so the gate interleaves cold restarts, preheated restarts and
	// warm hits (a load spike hits every side alike) and compares medians
	// of many trials. Each timed restart follows an untimed restart of
	// the same kind: a preheated hit timed right after a cold start
	// reads ~3x slower, its CPU caches left cold by the cold start's
	// walk, so strict alternation would time a different thing on each
	// side.
	const trials = 15
	var coldTotal, coldPredict, preTotal, prePredict, steadies []time.Duration
	for trial := 0; trial < trials; trial++ {
		coldStart(t, "")
		total, predict := coldStart(t, "")
		coldTotal, coldPredict = append(coldTotal, total), append(coldPredict, predict)
		coldStart(t, path)
		total, predict = coldStart(t, path)
		preTotal, prePredict = append(preTotal, total), append(prePredict, predict)
		start := time.Now()
		rr := post(t, warm, "/v1/predict", snapPredictBody)
		steadies = append(steadies, time.Since(start))
		if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != "hit" {
			t.Fatalf("steady-state predict: %d X-Cache=%q", rr.Code, rr.Header().Get("X-Cache"))
		}
	}
	type sample struct{ total, predict time.Duration }
	cold := sample{medianDuration(coldTotal), medianDuration(coldPredict)}
	preheated := sample{medianDuration(preTotal), medianDuration(prePredict)}
	steady := medianDuration(steadies)

	totalSpeedup := float64(cold.total) / float64(preheated.total)
	predictSpeedup := float64(cold.predict) / float64(preheated.predict)
	t.Logf("restart-to-first-answers: cold %v, preheated %v (%.2fx)", cold.total, preheated.total, totalSpeedup)
	t.Logf("first predict: cold %v, preheated %v (%.2fx), steady-state %v", cold.predict, preheated.predict, predictSpeedup, steady)
	if totalSpeedup < 4.0 {
		t.Errorf("preheated restart only %.2fx faster than no-snapshot, want ≥4x (cold %v, preheated %v)",
			totalSpeedup, cold.total, preheated.total)
	}
	if predictSpeedup < 4.0 {
		t.Errorf("preheated first predict only %.2fx faster than cold, want ≥4x (cold %v, preheated %v)",
			predictSpeedup, cold.predict, preheated.predict)
	}
	if preheated.predict > 3*steady {
		t.Errorf("preheated first predict %v exceeds 3x steady-state warm hit %v", preheated.predict, steady)
	}
}

// medianDuration returns the median of ds (the upper one of an even
// count), sorting ds in place.
func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
