package server

// Benchmarks and the CI gate for fleet-mode scatter-gather: a cold
// frontier-only enumeration of the canonical tri-cluster space (4 nodes
// per type, 384,344 configurations — the same space bench-generic
// walks) fanned out over 4 replica shards versus the same coordinator
// path with a single shard. `make bench-fleet` runs both plus
// TestFleetColdSpeedupGate, which enforces the ≥3x cold-walk speedup on
// hosts with ≥4 CPUs (the fan-out is CPU-bound; on smaller hosts the
// gate skips and the benchmarks still record honest numbers).

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"
)

// fleetBenchBody shards the 384,344-point tri-cluster frontier request.
func fleetBenchBody(shards int) string {
	return fmt.Sprintf(`{"workload":"ep","types":[`+
		`{"node":"arm-cortex-a9","max_nodes":4,"needs_switch":true},`+
		`{"node":"arm-cortex-a15","max_nodes":4,"needs_switch":true},`+
		`{"node":"amd-opteron-k10","max_nodes":4}],`+
		`"frontier_only":true,"shards":%d}`, shards)
}

// chillFleet evicts every result-cache and table-cache entry across the
// fleet so the next request walks the space again. The tables go too
// because a table keeps its candidate sets: with warm tables a replica
// would answer its slice from its set, not walk, and the coordinator
// would answer from the set its last fan-out folded, without fanning
// out.
func chillFleet(f *testFleet) {
	f.coord.cache.Reset()
	f.coord.tables.Reset()
	for _, rs := range f.replicas {
		rs.cache.Reset()
		rs.tables.Reset()
	}
}

// coldFleetRequest runs one cache-cold fan-out and reports its wall
// time.
func coldFleetRequest(tb testing.TB, f *testFleet, body string) time.Duration {
	tb.Helper()
	chillFleet(f)
	start := time.Now()
	rr := post(tb, f.coord, "/v1/enumerate-generic", body)
	elapsed := time.Since(start)
	if rr.Code != http.StatusOK {
		tb.Fatalf("fleet enumerate: %d %s", rr.Code, rr.Body)
	}
	if rr.Header().Get("X-Cache") != "miss" {
		tb.Fatalf("cold request served from cache")
	}
	return elapsed
}

func benchFleetEnumerate(b *testing.B, shards int) {
	f := newFleet(b, 4, Options{}, Options{})
	body := fleetBenchBody(shards)
	// One warm-up request warms the connections and the fleet's code
	// paths; each timed request starts from chilled caches.
	if rr := post(b, f.coord, "/v1/enumerate-generic", body); rr.Code != http.StatusOK {
		b.Fatalf("warm-up: %d %s", rr.Code, rr.Body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		chillFleet(f)
		b.StartTimer()
		if rr := post(b, f.coord, "/v1/enumerate-generic", body); rr.Code != http.StatusOK {
			b.Fatalf("fleet enumerate: %d %s", rr.Code, rr.Body)
		}
	}
}

func BenchmarkFleetEnumerate1Shard(b *testing.B) { benchFleetEnumerate(b, 1) }

func BenchmarkFleetEnumerate4Shards(b *testing.B) { benchFleetEnumerate(b, 4) }

// TestFleetColdSpeedupGate is the bench-fleet CI gate: a cold 4-shard
// fan-out of the tri-cluster frontier must beat the single-shard
// coordinator path by ≥3x. Only meaningful where the four shard walks
// can actually run in parallel, so it skips below 4 CPUs; and it only
// runs under `make bench-fleet` (HETEROMIX_FLEET_GATE=1) so plain
// `go test ./...` stays fast.
func TestFleetColdSpeedupGate(t *testing.T) {
	if os.Getenv("HETEROMIX_FLEET_GATE") != "1" {
		t.Skip("set HETEROMIX_FLEET_GATE=1 (make bench-fleet) to run the speedup gate")
	}
	if procs := runtime.GOMAXPROCS(0); procs < 4 {
		t.Skipf("GOMAXPROCS=%d: the 4-shard walk cannot parallelize below 4 CPUs", procs)
	}
	f := newFleet(t, 4, Options{}, Options{})
	for _, shards := range []int{1, 4} { // warm the connections
		if rr := post(t, f.coord, "/v1/enumerate-generic", fleetBenchBody(shards)); rr.Code != http.StatusOK {
			t.Fatalf("warm-up shards=%d: %d %s", shards, rr.Code, rr.Body)
		}
	}
	best := func(shards int) time.Duration {
		body := fleetBenchBody(shards)
		min := time.Duration(1<<63 - 1)
		for trial := 0; trial < 3; trial++ {
			if d := coldFleetRequest(t, f, body); d < min {
				min = d
			}
		}
		return min
	}
	serial := best(1)
	sharded := best(4)
	ratio := float64(serial) / float64(sharded)
	t.Logf("cold 1-shard %v, cold 4-shard %v: %.2fx", serial, sharded, ratio)
	if ratio < 3.0 {
		t.Fatalf("cold 4-shard speedup %.2fx < 3.0x gate (1-shard %v, 4-shard %v)",
			ratio, serial, sharded)
	}
}

// The hedged-tail benchmarks: the same cold 4-shard fan-out with shard
// 0's primary replica stalling every request by 25 ms (a revived
// replica with cold caches, say). With hedging on, the coordinator
// hedges the stalled shard to its ring successor after the observed
// shard-latency quantile and the fan-out finishes near the healthy
// shards' pace; with hedging off it eats the stall. The gap between the
// two ns/op numbers is the tail-latency win recorded in
// BENCH_serving.json.
func BenchmarkFleetSlowReplicaHedged(b *testing.B)  { benchFleetSlowReplica(b, false) }
func BenchmarkFleetSlowReplicaNoHedge(b *testing.B) { benchFleetSlowReplica(b, true) }

func benchFleetSlowReplica(b *testing.B, disableHedge bool) {
	const stall = 25 * time.Millisecond
	f := newFleet(b, 4, Options{DisableHedge: disableHedge}, Options{})
	body := fleetBenchBody(4)
	// Warm-up seeds the shard-latency histogram the hedge delay is
	// derived from.
	for i := 0; i < 3; i++ {
		chillFleet(f)
		if rr := post(b, f.coord, "/v1/enumerate-generic", body); rr.Code != http.StatusOK {
			b.Fatalf("warm-up: %d %s", rr.Code, rr.Body)
		}
	}
	f.chaos[f.primaryOf(b, 0)].SlowStart(stall)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		chillFleet(f)
		b.StartTimer()
		if rr := post(b, f.coord, "/v1/enumerate-generic", body); rr.Code != http.StatusOK {
			b.Fatalf("fleet enumerate: %d %s", rr.Code, rr.Body)
		}
	}
}
