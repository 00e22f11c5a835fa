package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"heteromix/internal/cluster"
	"heteromix/internal/hwsim"
	"heteromix/internal/resilience"
	"heteromix/internal/shard"
	"heteromix/internal/workloads"
)

// fleetTri extends the canonical tri-type request (triBody, shared with
// the generic-handler tests) to the frontier-only form fleet mode
// shards: all three node types, switch accounting on the ARM side, and
// domination pruning in play.
const fleetTri = triBody + `,"frontier_only":true`

func fleetShardedBody(shards int) string {
	return fmt.Sprintf(`%s,"shards":%d}`, fleetTri, shards)
}

// testFleet is the fleet-in-one harness: n replica Servers each behind
// a real HTTP listener and a switchable replica-level chaos valve, and
// a coordinator configured with their URLs — a whole fleet inside one
// test process. chaos[i].Kill()/Revive() kills and revives replica i
// mid-test without tearing down its listener.
type testFleet struct {
	coord    *Server
	replicas []*Server
	backends []*httptest.Server
	chaos    []*resilience.ReplicaChaos
	urls     []string
}

// newFleet builds the harness. coordOpts.Replicas is filled in; set any
// other knob before calling. Unless the test asks for its own probe
// cadence, background probing is effectively off (an hour-long
// interval) so transitions happen only through ProbeFleet — keeping
// health state machine steps deterministic under the race detector.
func newFleet(t testing.TB, n int, coordOpts, replicaOpts Options) *testFleet {
	t.Helper()
	f := &testFleet{}
	for i := 0; i < n; i++ {
		rs := newTestServer(t, replicaOpts)
		rc := resilience.NewReplicaChaos()
		hs := httptest.NewServer(rc.Middleware(rs.Handler()))
		t.Cleanup(hs.Close)
		f.replicas = append(f.replicas, rs)
		f.backends = append(f.backends, hs)
		f.chaos = append(f.chaos, rc)
		f.urls = append(f.urls, hs.URL)
	}
	coordOpts.Replicas = f.urls
	if coordOpts.ProbeInterval == 0 {
		coordOpts.ProbeInterval = time.Hour
	}
	f.coord = newTestServer(t, coordOpts)
	return f
}

// primaryOf returns the replica index owning shard i's primary slot on
// the coordinator's ring — the one to kill when a test needs shard i's
// first attempt to fail deterministically.
func (f *testFleet) primaryOf(t testing.TB, i int) int {
	t.Helper()
	owner := shard.NewRing(f.urls, 0).Lookup("shard:" + strconv.Itoa(i))
	for j, u := range f.urls {
		if u == owner {
			return j
		}
	}
	t.Fatalf("no replica owns shard %d", i)
	return -1
}

// coldSpec is the tri-type frontier spec, without its closing brace, at
// the k-th (0 to 25) of the node-bound triples of 1 to 3 nodes per type
// other than triBody's 2/2/2, switch accounting on the ARM side. Once
// one complete fan-out has folded a spec's candidate set, the
// coordinator answers that spec locally at every work size, so a test
// that must exercise the fan-out gives each round a spec of its own.
func coldSpec(k int) string {
	if k >= 13 {
		k++ // skip 2/2/2
	}
	return fmt.Sprintf(`{"workload":"ep","types":[
	{"node":"arm-cortex-a9","max_nodes":%d,"needs_switch":true},
	{"node":"arm-cortex-a15","max_nodes":%d,"needs_switch":true},
	{"node":"amd-opteron-k10","max_nodes":%d}],"frontier_only":true`, 1+k%3, 1+k/3%3, 1+k/9%3)
}

// coldFleetBody is coldSpec k fanned out over shards, and coldBody the
// same spec unsharded: the bit-identical ground truth a plain server
// answers.
func coldFleetBody(k, shards int) string { return fmt.Sprintf(`%s,"shards":%d}`, coldSpec(k), shards) }

func coldBody(k int) string { return coldSpec(k) + "}" }

// fleetWorkBody renders the tri-type sharded request with an explicit
// work size.
func fleetWorkBody(shards int, work float64) string {
	return fmt.Sprintf(`%s,"work":%g,"shards":%d}`, fleetTri, work, shards)
}

// unshardedWorkBody is the same request a plain server answers — the
// bit-identical ground truth for fleetWorkBody merges.
func unshardedWorkBody(work float64) string {
	return fmt.Sprintf(`%s,"work":%g}`, fleetTri, work)
}

// TestFleetMergedBitIdenticalToUnsharded is the serving-layer
// acceptance of the fan-out: the coordinator's 4-shard scatter-gather
// answers the very bytes a single unsharded server computes for the same
// space. That fan-out folds the space's candidate set, so the 7-shard
// repeat is a warm local answer: no fan-out, one local answer, and no
// more points evaluated than the set holds.
func TestFleetMergedBitIdenticalToUnsharded(t *testing.T) {
	plain := newTestServer(t, Options{})
	want := post(t, plain, "/v1/enumerate-generic", fleetTri+"}")
	if want.Code != http.StatusOK {
		t.Fatalf("unsharded: %d %s", want.Code, want.Body)
	}

	f := newFleet(t, 4, Options{}, Options{})
	got := post(t, f.coord, "/v1/enumerate-generic", fleetShardedBody(4))
	if got.Code != http.StatusOK {
		t.Fatalf("fleet: %d %s", got.Code, got.Body)
	}
	if got.Header().Get("X-Fleet-Shards") != "4" {
		t.Errorf("X-Fleet-Shards = %q, want 4", got.Header().Get("X-Fleet-Shards"))
	}
	if got.Body.String() != want.Body.String() {
		t.Fatalf("fleet merge is not byte-identical to the unsharded response\n fleet: %s\nsingle: %s",
			got.Body, want.Body)
	}
	fanouts, points := f.coord.fleetFanouts.Value(), f.coord.genericPoints.Value()
	got7 := post(t, f.coord, "/v1/enumerate-generic", fleetShardedBody(7))
	if got7.Code != http.StatusOK || got7.Body.String() != want.Body.String() {
		t.Fatalf("7-shard warm answer differs: %d %s", got7.Code, got7.Body)
	}
	if got7.Header().Get("X-Fleet-Shards") != "7" {
		t.Errorf("warm X-Fleet-Shards = %q, want 7", got7.Header().Get("X-Fleet-Shards"))
	}
	if n := f.coord.fleetFanouts.Value(); n != fanouts {
		t.Errorf("the warm repeat fanned out: fleet_fanouts_total %d -> %d", fanouts, n)
	}
	if n := f.coord.fleetLocalAnswers.Value(); n != 1 {
		t.Errorf("fleet_local_answers_total = %d after one warm repeat, want 1", n)
	}
	set := candidateCount(t, fleetTri)
	if d := f.coord.genericPoints.Value() - points; d == 0 || d > set {
		t.Errorf("the warm repeat evaluated %d points, want 1 to the set's %d", d, set)
	}
}

// TestShardCandidatesAnswer: a slice asked for its candidates answers
// them, marked, as a superset of the slice's frontier, ascending and
// inside the slice's range, with each candidate's point at the work;
// candidates without a shard slice is a 400.
func TestShardCandidatesAnswer(t *testing.T) {
	s := newTestServer(t, Options{})
	front := decodeBody[EnumerateGenericResponse](t,
		post(t, s, "/v1/enumerate-generic", fmt.Sprintf(`%s,"shard":"1/3"}`, fleetTri)))
	rr := post(t, s, "/v1/enumerate-generic", fmt.Sprintf(`%s,"shard":"1/3","candidates":true}`, fleetTri))
	if rr.Code != http.StatusOK {
		t.Fatalf("candidates: %d %s", rr.Code, rr.Body)
	}
	cand := decodeBody[EnumerateGenericResponse](t, rr)
	if !cand.Candidates || front.Candidates || cand.Shard != "1/3" {
		t.Fatalf("candidates marker %t (slice frontier %t), shard %q", cand.Candidates, front.Candidates, cand.Shard)
	}
	if cand.Returned != len(cand.Indices) || len(cand.Points) != len(cand.Indices) || len(cand.Indices) < len(front.Indices) {
		t.Fatalf("%d candidates (%d points, returned %d) for a %d-point slice frontier",
			len(cand.Indices), len(cand.Points), cand.Returned, len(front.Indices))
	}
	lo, hi := shard.Shard{Index: 1, Count: 3}.Range(cand.PrunedSize)
	at := map[uint64]cluster.GenericPointSummary{}
	for i, idx := range cand.Indices {
		if idx < lo || idx >= hi || i > 0 && idx <= cand.Indices[i-1] {
			t.Fatalf("candidate %d (index %d) out of order or outside [%d, %d)", i, idx, lo, hi)
		}
		at[idx] = cand.Points[i]
	}
	for i, idx := range front.Indices {
		p, ok := at[idx]
		if !ok || !reflect.DeepEqual(p, front.Points[i]) {
			t.Fatalf("frontier index %d: candidate point %+v (present %t), frontier %+v", idx, p, ok, front.Points[i])
		}
	}
	if rr := post(t, s, "/v1/enumerate-generic", fleetTri+`,"candidates":true}`); rr.Code != http.StatusBadRequest {
		t.Fatalf("candidates without shard: %d %s, want 400", rr.Code, rr.Body)
	}
}

// TestFrontierAnswersNeverCached: no enumeration answer of any plan
// enters the result cache — a frontier or a limited walk, two-type or
// generic, buffered, gzipped or streamed, a replica's default slice or
// a coordinator's merge. A repeat is computed again (X-Cache: miss on a
// buffered answer; a stream carries no X-Cache) to the same bytes and
// builds no table. A frontier's repeat evaluates only candidate sets,
// fewer points than the pruned space holds — a coordinator's repeat its
// own set, folded from the replicas' by the first fan-out, with no
// replica asked; a generic limited walk's repeat walks the same points
// again.
func TestFrontierAnswersNeverCached(t *testing.T) {
	pruned := decodeBody[EnumerateGenericResponse](t,
		post(t, newTestServer(t, Options{}), "/v1/enumerate-generic", fleetTri+"}")).PrunedSize
	if pruned == 0 {
		t.Fatal("the tri-type frontier reports no pruned_size")
	}
	// local is a single server answering the request itself.
	local := func(opts Options) func(t *testing.T) (*Server, []*Server) {
		return func(t *testing.T) (*Server, []*Server) {
			s := newTestServer(t, opts)
			return s, []*Server{s}
		}
	}
	twoType := func(t *testing.T) (*Server, []*Server) { return newTestServer(t, Options{}), nil }
	gzipped := http.Header{"Accept-Encoding": {"gzip"}}
	const (
		twoTypeLimited = `{"workload":"ep","max_arm":10,"max_amd":10,"limit":40}`
		genericLimited = triBody + `,"limit":40}`
	)
	cases := []struct {
		name, path, body string
		header           http.Header
		wantCache        string
		// servers returns the server asked and those whose
		// generic_points_evaluated_total the answer moves.
		servers func(t *testing.T) (asked *Server, evaluators []*Server)
		// limited marks a limited walk, whose repeat walks again.
		limited bool
	}{
		{"two-type", "/v1/enumerate", `{"workload":"ep","max_arm":10,"max_amd":10,"frontier_only":true}`,
			nil, "miss", twoType, false},
		{"two-type limited", "/v1/enumerate", twoTypeLimited, nil, "miss", twoType, true},
		{"two-type limited gzip", "/v1/enumerate", twoTypeLimited, gzipped, "miss", twoType, true},
		{"generic limited", "/v1/enumerate-generic", genericLimited, nil, "miss", local(Options{}), true},
		{"generic limited gzip", "/v1/enumerate-generic", genericLimited, gzipped, "miss", local(Options{}), true},
		{"generic buffered", "/v1/enumerate-generic", fleetTri + "}", nil, "miss", local(Options{}), false},
		{"generic gzip", "/v1/enumerate-generic", fleetTri + "}", gzipped, "miss", local(Options{}), false},
		{"generic ndjson", "/v1/enumerate-generic", fleetTri + "}",
			http.Header{"Accept": {"application/x-ndjson"}}, "", local(Options{}), false},
		{"default shard slice", "/v1/enumerate-generic", fleetTri + "}", nil, "miss",
			local(Options{DefaultShard: shard.Shard{Index: 1, Count: 2}}), false},
		{"fleet merge", "/v1/enumerate-generic", fleetShardedBody(2), nil, "miss",
			func(t *testing.T) (*Server, []*Server) {
				f := newFleet(t, 2, Options{}, Options{})
				return f.coord, append([]*Server{f.coord}, f.replicas...)
			}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			asked, evaluators := tc.servers(t)
			involved := evaluators
			if !slices.Contains(evaluators, asked) {
				involved = append([]*Server{asked}, evaluators...)
			}
			sum := func(f func(*Server) uint64) (n uint64) {
				for _, s := range involved {
					n += f(s)
				}
				return n
			}
			tableMisses := func(s *Server) uint64 { return s.TableCacheStats().Misses }
			evaluated := func() (n uint64) {
				for _, s := range evaluators {
					n += s.genericPoints.Value()
				}
				return n
			}
			ask := func() string {
				t.Helper()
				req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
				for k, v := range tc.header {
					req.Header[k] = v
				}
				rr := httptest.NewRecorder()
				asked.Handler().ServeHTTP(rr, req)
				if rr.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rr.Code, rr.Body)
				}
				if got := rr.Header().Get("X-Cache"); got != tc.wantCache {
					t.Errorf("X-Cache = %q, want %q", got, tc.wantCache)
				}
				body := rr.Body.Bytes()
				if rr.Header().Get("Content-Encoding") == "gzip" {
					zr, err := gzip.NewReader(rr.Body)
					if err != nil {
						t.Fatal(err)
					}
					if body, err = io.ReadAll(zr); err != nil {
						t.Fatal(err)
					}
				} else if tc.header.Get("Accept-Encoding") == "gzip" {
					t.Error("a gzip-negotiated answer was not gzipped")
				}
				return string(body)
			}

			before := evaluated()
			first := ask()
			misses, points := sum(tableMisses), evaluated()
			if got := tableMisses(asked); got != 1 {
				t.Errorf("the asked server built %d tables, want 1", got)
			}
			if again := ask(); again != first {
				t.Fatalf("repeat differs from the first answer\n got: %s\nwant: %s", again, first)
			}
			for i, s := range involved {
				if n := s.cache.Len(); n != 0 {
					t.Errorf("server %d holds %d result-cache entries, want 0", i, n)
				}
			}
			if got := sum(tableMisses); got != misses {
				t.Errorf("the repeat built tables: table-cache misses %d -> %d", misses, got)
			}
			switch d := evaluated() - points; {
			case len(evaluators) == 0:
			case tc.limited:
				if d == 0 || d != points-before {
					t.Errorf("the repeat walked %d points, want the first answer's %d", d, points-before)
				}
			case d == 0 || d >= pruned:
				t.Errorf("the repeat evaluated %d points, want 0 < n < %d (candidate sets only)", d, pruned)
			}
		})
	}
}

// TestFleetShardFailoverServesFull: with one replica dead but not yet
// probed dead, the shards it owns fail over to the next ring member and
// the coordinator keeps serving full, non-degraded merges bit-identical
// to an unsharded server — the old "one dead replica degrades every
// fan-out" behaviour is gone. Repeated fan-outs trip the dead replica's
// breaker. Hedging is off so each failed first attempt is observed
// synchronously (a cancelled hedge loser would be breaker-neutral).
func TestFleetShardFailoverServesFull(t *testing.T) {
	f := newFleet(t, 4, Options{
		BreakerThreshold: 2, BreakerCooldown: time.Minute, DisableHedge: true,
	}, Options{})
	plain := newTestServer(t, Options{})
	victim := f.primaryOf(t, 0) // shard 0's first attempt now lands on a dead URL
	f.backends[victim].Close()

	for round := 0; round < 3; round++ {
		want := post(t, plain, "/v1/enumerate-generic", coldBody(round))
		if want.Code != http.StatusOK {
			t.Fatalf("round %d unsharded: %d %s", round, want.Code, want.Body)
		}
		rr := post(t, f.coord, "/v1/enumerate-generic", coldFleetBody(round, 4))
		if rr.Code != http.StatusOK {
			t.Fatalf("round %d: %d %s", round, rr.Code, rr.Body)
		}
		if rr.Header().Get("X-Degraded") == "true" {
			t.Fatalf("round %d: failover round marked degraded: %s", round, rr.Body)
		}
		if rr.Body.String() != want.Body.String() {
			t.Fatalf("round %d: failover merge not bit-identical to unsharded\n fleet: %s\nsingle: %s",
				round, rr.Body, want.Body)
		}
	}
	snap := f.coord.reg.Snapshot()
	if snap["heteromixd_fleet_failovers_total"] < 3 {
		t.Errorf("fleet_failovers_total = %v, want >= 3 (one per round)",
			snap["heteromixd_fleet_failovers_total"])
	}
	if snap["heteromixd_fleet_breaker_opens_total"] < 1 {
		t.Errorf("fleet_breaker_opens_total = %v, want >= 1 (threshold 2, 3 failed rounds)",
			snap["heteromixd_fleet_breaker_opens_total"])
	}
	if snap["heteromixd_fleet_shard_errors_total"] != 0 {
		t.Errorf("fleet_shard_errors_total = %v, want 0 (every shard was rescued)",
			snap["heteromixd_fleet_shard_errors_total"])
	}
}

// TestFleetFailoverAsksEachReplicaOnce: a replica that sheds load (503 +
// Retry-After) is asked once per shard it owns, and each such shard
// fails over at once to its next candidate; nothing waits out the
// Retry-After or asks the shedding replica again. Hedging is off and the
// breaker threshold high, so only failover can rescue a shard and the
// stub stays in every walk it heads.
func TestFleetFailoverAsksEachReplicaOnce(t *testing.T) {
	var hits atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		if r.URL.Path == "/v1/enumerate-generic" {
			hits.Add(1)
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, "shedding", http.StatusServiceUnavailable)
	}))
	t.Cleanup(stub.Close)
	const shards = 16
	// Every shard may land on the real replica at once; its limiter must
	// admit them all, or its own shedding would degrade the fan-out.
	replica := httptest.NewServer(newTestServer(t, Options{MaxConcurrent: 2 * shards}).Handler())
	t.Cleanup(replica.Close)
	coord := newTestServer(t, Options{
		Replicas:         []string{stub.URL, replica.URL},
		DisableHedge:     true,
		BreakerThreshold: 1000,
		ProbeInterval:    time.Hour,
	})
	owned := 0
	for i := 0; i < shards; i++ {
		if coord.shardWalks[i][0] == stub.URL {
			owned++
		}
	}
	if owned == 0 {
		t.Skip("the shedding replica owns no shard on this ring")
	}

	plain := newTestServer(t, Options{})
	want := post(t, plain, "/v1/enumerate-generic", fleetTri+"}")
	if want.Code != http.StatusOK {
		t.Fatalf("unsharded: %d %s", want.Code, want.Body)
	}
	before := coord.reg.Snapshot()["heteromixd_fleet_failovers_total"]
	rr := post(t, coord, "/v1/enumerate-generic", fleetShardedBody(shards))
	if rr.Code != http.StatusOK || rr.Header().Get("X-Degraded") == "true" {
		t.Fatalf("fan-out: %d X-Degraded=%q %s", rr.Code, rr.Header().Get("X-Degraded"), rr.Body)
	}
	if rr.Body.String() != want.Body.String() {
		t.Fatalf("failover merge not bit-identical to unsharded\n fleet: %s\nsingle: %s", rr.Body, want.Body)
	}
	if got := hits.Load(); got != int64(owned) {
		t.Errorf("shedding replica asked %d times, want %d (once per shard it owns)", got, owned)
	}
	if got := coord.reg.Snapshot()["heteromixd_fleet_failovers_total"] - before; got != float64(owned) {
		t.Errorf("fleet_failovers_total rose by %v, want %d", got, owned)
	}
}

// partialKillPlan picks the single replica to keep alive so that at
// least one shard's top-2 ring candidates are both dead while at least
// one shard can still reach it (ring order depends on the ephemeral
// listener ports, so the choice is computed, not hard-coded), and
// returns the shard indices expected to fail. alive is -1 when no such
// choice exists.
func partialKillPlan(f *testFleet, shards int) (alive int, expectFailed []int) {
	ring := shard.NewRing(f.urls, 0)
	for cand := range f.urls {
		var fails []int
		for i := 0; i < shards; i++ {
			walk := ring.Successors("shard:" + strconv.Itoa(i))[:2]
			if walk[0] != f.urls[cand] && walk[1] != f.urls[cand] {
				fails = append(fails, i)
			}
		}
		if len(fails) > 0 && len(fails) < shards {
			return cand, fails
		}
	}
	return -1, nil
}

// TestFleetPartialWhenFailoverExhausted: a shard degrades only when its
// whole candidate walk is down. The test computes, from the same ring
// the coordinator uses, which shards have both top-2 candidates among
// the killed replicas, and expects exactly those listed in
// failed_shards — and the partial is never cached and folds no
// candidate set: only the first complete fan-out after the revive does.
func TestFleetPartialWhenFailoverExhausted(t *testing.T) {
	const shards = 8
	// A high breaker threshold keeps the dead replicas' breakers closed,
	// so the revived fleet answers at once.
	f := newFleet(t, 4, Options{DisableHedge: true, BreakerThreshold: 100}, Options{})

	alive, expectFailed := partialKillPlan(f, shards)
	if alive < 0 {
		t.Skip("every shard's top-2 walk contains every replica (astronomically unlikely)")
	}
	for i := range f.chaos {
		if i != alive {
			f.chaos[i].Kill()
		}
	}

	rr := post(t, f.coord, "/v1/enumerate-generic", fleetShardedBody(shards))
	if rr.Code != http.StatusOK {
		t.Fatalf("partial fan-out: %d %s", rr.Code, rr.Body)
	}
	if rr.Header().Get("X-Degraded") != "true" {
		t.Fatalf("exhausted failover not marked degraded: %s", rr.Body)
	}
	wantList, _ := json.Marshal(expectFailed)
	if !strings.Contains(rr.Body.String(), fmt.Sprintf(`"failed_shards":%s`, wantList)) {
		t.Fatalf("failed_shards != %s in: %s", wantList, rr.Body)
	}
	// A degraded partial, like every frontier answer, was not cached, and
	// it folded no candidate set: the repeat fans out and degrades again.
	fanouts := f.coord.fleetFanouts.Value()
	again := post(t, f.coord, "/v1/enumerate-generic", fleetShardedBody(shards))
	if again.Header().Get("X-Cache") == "hit" {
		t.Fatal("degraded partial was served from cache")
	}
	if again.Header().Get("X-Degraded") != "true" || f.coord.fleetFanouts.Value() != fanouts+1 {
		t.Fatalf("the repeat after a degraded partial: X-Degraded=%q, fan-outs %d -> %d; want a degraded fan-out",
			again.Header().Get("X-Degraded"), fanouts, f.coord.fleetFanouts.Value())
	}
	// Revived, the next fan-out is complete and folds the set; the repeat
	// after it is answered locally. Both are the unsharded bytes.
	for i := range f.chaos {
		f.chaos[i].Revive()
	}
	want := post(t, newTestServer(t, Options{}), "/v1/enumerate-generic", fleetTri+"}")
	for _, local := range []uint64{0, 1} {
		rr := post(t, f.coord, "/v1/enumerate-generic", fleetShardedBody(shards))
		if rr.Code != http.StatusOK || rr.Header().Get("X-Degraded") != "" || rr.Body.String() != want.Body.String() {
			t.Fatalf("revived fleet: %d X-Degraded=%q, body differs from unsharded: %t",
				rr.Code, rr.Header().Get("X-Degraded"), rr.Body.String() != want.Body.String())
		}
		if n := f.coord.fleetLocalAnswers.Value(); n != local {
			t.Fatalf("fleet_local_answers_total = %d, want %d", n, local)
		}
	}
	if n := f.coord.fleetFanouts.Value(); n != fanouts+2 {
		t.Errorf("fan-outs %d -> %d; want the complete one only after the degraded repeat", fanouts, n)
	}
	if snap := f.coord.reg.Snapshot(); snap["heteromixd_fleet_shard_errors_total"] < float64(len(expectFailed)) {
		t.Errorf("fleet_shard_errors_total = %v, want >= %d",
			snap["heteromixd_fleet_shard_errors_total"], len(expectFailed))
	}
}

// TestFleetRejectsOutOfRangeShard: a shard answer holding an index
// outside that slice's range of the walked space — what a replica that
// partitions the space differently, such as an older version, returns —
// fails that shard instead of corrupting the merge: the coordinator
// serves the other slice degraded, lists the shard under failed_shards
// and caches nothing.
func TestFleetRejectsOutOfRangeShard(t *testing.T) {
	replica := newTestServer(t, Options{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.Header.Del("Accept-Encoding") // the stub edits plain JSON
		rec := httptest.NewRecorder()
		replica.Handler().ServeHTTP(rec, r)
		out := rec.Body.Bytes()
		if rec.Code == http.StatusOK && bytes.Contains(body, []byte(`"shard":"1/2"`)) {
			var er EnumerateGenericResponse
			if err := json.Unmarshal(out, &er); err != nil || len(er.Indices) == 0 {
				t.Errorf("stub: shard 1/2 answer %s (err %v)", out, err)
			} else {
				er.Indices[0] = 0 // shard 0's first index, outside [N/2, N)
				out, _ = json.Marshal(er)
			}
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(out)
	}))
	t.Cleanup(stub.Close)
	coord := newTestServer(t, Options{Replicas: []string{stub.URL}, ProbeInterval: time.Hour})

	rr := post(t, coord, "/v1/enumerate-generic", fleetShardedBody(2))
	if rr.Code != http.StatusOK {
		t.Fatalf("fan-out with one out-of-range shard: %d %s", rr.Code, rr.Body)
	}
	if rr.Header().Get("X-Degraded") != "true" || !strings.Contains(rr.Body.String(), `"failed_shards":[1]`) {
		t.Fatalf("out-of-range shard not failed: X-Degraded=%q body %s", rr.Header().Get("X-Degraded"), rr.Body)
	}
	again := post(t, coord, "/v1/enumerate-generic", fleetShardedBody(2))
	if again.Header().Get("X-Cache") == "hit" {
		t.Fatal("degraded partial was served from cache")
	}
}

// editingCoordinator is a coordinator whose only replica is a stub in
// front of a real replica: every sub-request reaches the replica, and
// edit rewrites the decoded shard 1/2 answer before it is sent back.
func editingCoordinator(t *testing.T, edit func(er *EnumerateGenericResponse)) *Server {
	t.Helper()
	replica := newTestServer(t, Options{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		replica.Handler().ServeHTTP(rec, r)
		out := rec.Body.Bytes()
		if rec.Code == http.StatusOK && bytes.Contains(body, []byte(`"shard":"1/2"`)) {
			var er EnumerateGenericResponse
			if err := json.Unmarshal(out, &er); err != nil || len(er.Indices) == 0 {
				t.Errorf("stub: shard 1/2 answer %s (err %v)", out, err)
			} else {
				edit(&er)
				out, _ = json.Marshal(er)
			}
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(out)
	}))
	t.Cleanup(stub.Close)
	return newTestServer(t, Options{Replicas: []string{stub.URL}, ProbeInterval: time.Hour})
}

// TestFleetMergeTrustsOnlyReplicaIndices: the coordinator takes only
// the survivors' serial indices from a shard answer and evaluates them
// on its own table. Edited point values cannot reach the merged body,
// and an answer whose indices or counts do not fit the coordinator's
// space fails its shard: degraded, listed under failed_shards, never
// cached.
func TestFleetMergeTrustsOnlyReplicaIndices(t *testing.T) {
	plain := newTestServer(t, Options{})
	want := post(t, plain, "/v1/enumerate-generic", fleetTri+"}")
	if want.Code != http.StatusOK {
		t.Fatalf("unsharded: %d %s", want.Code, want.Body)
	}

	t.Run("edited energy", func(t *testing.T) {
		coord := editingCoordinator(t, func(er *EnumerateGenericResponse) {
			er.Points[0].EnergyJoules /= 2
		})
		got := post(t, coord, "/v1/enumerate-generic", fleetShardedBody(2))
		if got.Code != http.StatusOK || got.Header().Get("X-Degraded") != "" {
			t.Fatalf("fan-out: %d X-Degraded=%q %s", got.Code, got.Header().Get("X-Degraded"), got.Body)
		}
		if got.Body.String() != want.Body.String() {
			t.Fatalf("a replica's point values reached the merge\n fleet: %s\nsingle: %s", got.Body, want.Body)
		}
	})

	failed := []struct {
		name string
		edit func(er *EnumerateGenericResponse)
	}{
		{"inflated space", func(er *EnumerateGenericResponse) {
			// Every index moves past the coordinator's space, into slice
			// 1/2's range of the doubled size the answer claims.
			size := er.PrunedSize
			er.PrunedSize *= 2
			for i := range er.Indices {
				er.Indices[i] += size
			}
		}},
		{"ragged count", func(er *EnumerateGenericResponse) {
			er.Returned++
		}},
	}
	for _, tc := range failed {
		t.Run(tc.name, func(t *testing.T) {
			coord := editingCoordinator(t, tc.edit)
			rr := post(t, coord, "/v1/enumerate-generic", fleetShardedBody(2))
			if rr.Code != http.StatusOK {
				t.Fatalf("fan-out: %d %s", rr.Code, rr.Body)
			}
			if rr.Header().Get("X-Degraded") != "true" || !strings.Contains(rr.Body.String(), `"failed_shards":[1]`) {
				t.Fatalf("edited shard not failed: X-Degraded=%q body %s", rr.Header().Get("X-Degraded"), rr.Body)
			}
			if again := post(t, coord, "/v1/enumerate-generic", fleetShardedBody(2)); again.Header().Get("X-Cache") == "hit" {
				t.Fatal("degraded partial was served from cache")
			}
		})
	}
}

// TestFleetSeededDifferential runs seeded random generic spaces — 2 to
// 4 registry node types, bounds 0 to 3, random switch flags, workload
// and work — through a 3-replica fleet at every shard count from 1 to
// 7, and checks each answer byte for byte against a plain server's
// unsharded answer: at each shard count a coordinator that has not seen
// the spec fans out, merges and folds the slices' candidate sets, then
// answers a repeat at another work size from the folded set, with no
// fan-out.
func TestFleetSeededDifferential(t *testing.T) {
	plain := newTestServer(t, Options{})
	f := newFleet(t, 3, Options{}, Options{})
	nodes, wls := hwsim.Names(), workloads.Names()
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		req := EnumerateGenericRequest{Workload: wls[rng.Intn(len(wls))], FrontierOnly: true}
		for n := 2 + rng.Intn(3); n > 0; n-- {
			req.Types = append(req.Types, GenericTypeRequest{
				Node:        nodes[rng.Intn(len(nodes))],
				MaxNodes:    rng.Intn(4),
				NeedsSwitch: rng.Intn(2) == 0,
			})
		}
		if req.Types[0].MaxNodes == 0 {
			req.Types[0].MaxNodes = 1 // never an empty space
		}
		for shards := 1; shards <= 7; shards++ {
			coord := newTestServer(t, Options{Replicas: f.urls, ProbeInterval: time.Hour})
			for _, cold := range []bool{true, false} {
				req.Work = math.Round(math.Pow(10, 4+5*rng.Float64()))
				req.Shards = 0
				unsharded, _ := json.Marshal(req)
				req.Shards = shards
				sharded, _ := json.Marshal(req)
				fanouts, local := coord.fleetFanouts.Value(), coord.fleetLocalAnswers.Value()
				want := post(t, plain, "/v1/enumerate-generic", string(unsharded))
				got := post(t, coord, "/v1/enumerate-generic", string(sharded))
				if want.Code != http.StatusOK || got.Code != http.StatusOK || got.Header().Get("X-Cache") != "miss" {
					t.Fatalf("seed %d, %d shards, cold %t: plain %d, fleet %d (X-Cache %q) %s\nrequest: %s",
						seed, shards, cold, want.Code, got.Code, got.Header().Get("X-Cache"), got.Body, sharded)
				}
				if got.Body.String() != want.Body.String() {
					t.Fatalf("seed %d, %d shards, cold %t: fleet answer differs from the unsharded one\nrequest: %s\n fleet: %s\nsingle: %s",
						seed, shards, cold, sharded, got.Body, want.Body)
				}
				wantFanouts, wantLocal := fanouts+1, local
				if !cold {
					wantFanouts, wantLocal = fanouts, local+1
				}
				if f, l := coord.fleetFanouts.Value(), coord.fleetLocalAnswers.Value(); f != wantFanouts || l != wantLocal {
					t.Fatalf("seed %d, %d shards, cold %t: fan-outs %d -> %d, local answers %d -> %d\nrequest: %s",
						seed, shards, cold, fanouts, f, local, l, sharded)
				}
			}
		}
	}
}

// TestFleetAllShardsDownAnswers503: total fan-out failure is an
// availability condition, not a server bug.
func TestFleetAllShardsDownAnswers503(t *testing.T) {
	f := newFleet(t, 2, Options{}, Options{})
	f.backends[0].Close()
	f.backends[1].Close()
	rr := post(t, f.coord, "/v1/enumerate-generic", fleetShardedBody(2))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-down fleet: %d %s, want 503", rr.Code, rr.Body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestFleetValidation pins the 400 surface of the new request fields on
// a fleet-enabled coordinator and a plain server.
func TestFleetValidation(t *testing.T) {
	f := newFleet(t, 2, Options{}, Options{})
	plain := newTestServer(t, Options{})
	cases := []struct {
		name string
		s    *Server
		body string
	}{
		{"shard without frontier_only", plain, `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":1}],"shard":"0/2"}`},
		{"malformed shard", plain, `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":1}],"frontier_only":true,"shard":"x/y"}`},
		{"shard index past count", plain, `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":1}],"frontier_only":true,"shard":"3/2"}`},
		{"shard and shards together", f.coord, fmt.Sprintf(`%s,"shard":"0/2","shards":2}`, fleetTri)},
		{"negative shards", f.coord, fmt.Sprintf(`%s,"shards":-1}`, triBody)},
		{"shards past the cap", f.coord, fmt.Sprintf(`%s,"shards":%d}`, triBody, maxFleetShards+1)},
		{"shards without frontier_only", f.coord, `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":1}],"shards":2}`},
		{"replicas without shards", f.coord, fmt.Sprintf(`%s,"replicas":["http://127.0.0.1:1"]}`, triBody)},
		{"bad replica URL", f.coord, fmt.Sprintf(`%s,"shards":2,"replicas":["ftp://x"]}`, triBody)},
		{"fleet on a non-fleet server", plain, fmt.Sprintf(`%s,"shards":2}`, triBody)},
		{"request replicas on a non-fleet server", plain, fmt.Sprintf(`%s,"shards":2,"replicas":["http://127.0.0.1:1"]}`, triBody)},
	}
	for _, tc := range cases {
		rr := post(t, tc.s, "/v1/enumerate-generic", tc.body)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", tc.name, rr.Code, rr.Body)
		}
	}
}

// TestShardedReplicaServesSlice: a replica answering shard requests
// reports its slice and indices, and distinct slices cache separately.
func TestShardedReplicaServesSlice(t *testing.T) {
	s := newTestServer(t, Options{})
	a := post(t, s, "/v1/enumerate-generic", fmt.Sprintf(`%s,"shard":"0/2"}`, fleetTri))
	b := post(t, s, "/v1/enumerate-generic", fmt.Sprintf(`%s,"shard":"1/2"}`, fleetTri))
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("shard requests: %d / %d", a.Code, b.Code)
	}
	ra := decodeBody[EnumerateGenericResponse](t, a)
	rb := decodeBody[EnumerateGenericResponse](t, b)
	if ra.Shard != "0/2" || rb.Shard != "1/2" {
		t.Fatalf("echoed shards %q, %q", ra.Shard, rb.Shard)
	}
	if len(ra.Indices) != len(ra.Points) || len(rb.Indices) != len(rb.Points) {
		t.Fatal("indices not parallel to points")
	}
	if b.Header().Get("X-Cache") != "miss" {
		t.Error("distinct slices shared a cache entry")
	}
	// Same slice again: slice bodies are never cached, so it recomputes
	// (from the slice's candidate set) to the same bytes.
	a2 := post(t, s, "/v1/enumerate-generic", fmt.Sprintf(`%s,"shard":"0/2"}`, fleetTri))
	if a2.Header().Get("X-Cache") != "miss" {
		t.Error("a repeat slice request was served from the result cache")
	}
	if a2.Code != http.StatusOK || a2.Body.String() != a.Body.String() {
		t.Errorf("repeat slice answered %d with different bytes:\n%s\n%s", a2.Code, a2.Body, a.Body)
	}
}

// TestRoutePredictForwards: with a route key configured, predict lands
// on its workload's consistent-hash owner exactly once (the routed
// marker stops a second hop), and batch requests route as a unit only
// when all items share a workload.
func TestRoutePredictForwards(t *testing.T) {
	f := newFleet(t, 2, Options{RouteKey: "workload"}, Options{})
	body := `{"workload":"ep","arm":{"nodes":2}}`
	rr := post(t, f.coord, "/v1/predict", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("routed predict: %d %s", rr.Code, rr.Body)
	}
	target := rr.Header().Get("X-Routed-To")
	if target != f.urls[0] && target != f.urls[1] {
		t.Fatalf("X-Routed-To = %q, want one of %v", target, f.urls)
	}
	// The replica's own answer for the canonicalized request, for
	// comparison: forwarding must not change the body.
	direct := post(t, newTestServer(t, Options{}), "/v1/predict", body)
	if rr.Body.String() != direct.Body.String() {
		t.Fatalf("routed body differs from direct compute:\n%s\n%s", rr.Body, direct.Body)
	}
	// The owner's X-Cache is relayed: the first answer computed, the
	// repeat served from the owner's result cache.
	if got := rr.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("routed predict X-Cache = %q, want miss", got)
	}
	again := post(t, f.coord, "/v1/predict", body)
	if again.Header().Get("X-Routed-To") != target || again.Body.String() != rr.Body.String() {
		t.Fatalf("repeat routed to %q with a different body", again.Header().Get("X-Routed-To"))
	}
	if got := again.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("repeated routed predict X-Cache = %q, want hit", got)
	}

	// A request already carrying the routed marker is served locally.
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.Header.Set(routedHeader, "1")
	loop := httptest.NewRecorder()
	f.coord.Handler().ServeHTTP(loop, req)
	if loop.Code != http.StatusOK || loop.Header().Get("X-Routed-To") != "" {
		t.Fatalf("marked request was forwarded again: %d %q", loop.Code, loop.Header().Get("X-Routed-To"))
	}

	// Single-workload batches route as a unit; mixed ones stay local.
	batch := `{"items":[{"kind":"predict","request":{"workload":"ep","arm":{"nodes":1}}},` +
		`{"kind":"predict","request":{"workload":"ep","amd":{"nodes":1}}}]}`
	rb := post(t, f.coord, "/v1/batch", batch)
	if rb.Code != http.StatusOK || rb.Header().Get("X-Routed-To") == "" {
		t.Fatalf("single-workload batch not routed: %d %q", rb.Code, rb.Header().Get("X-Routed-To"))
	}
	mixed := `{"items":[{"kind":"predict","request":{"workload":"ep","arm":{"nodes":1}}},` +
		`{"kind":"queueing","request":{"arrival_rate":1,"service_time_seconds":0.1}}]}`
	rm := post(t, f.coord, "/v1/batch", mixed)
	if rm.Code != http.StatusOK || rm.Header().Get("X-Routed-To") != "" {
		t.Fatalf("mixed batch was routed: %d %q", rm.Code, rm.Header().Get("X-Routed-To"))
	}

	snap := f.coord.reg.Snapshot()
	if snap["heteromixd_routed_requests_total"] < 2 {
		t.Errorf("routed_requests_total = %v, want >= 2", snap["heteromixd_routed_requests_total"])
	}
}

// TestRouteFallsBackWhenOwnerDead: a failed forward computes locally —
// routing is an optimization, never an availability dependency.
func TestRouteFallsBackWhenOwnerDead(t *testing.T) {
	f := newFleet(t, 2, Options{RouteKey: "workload"}, Options{})
	f.backends[0].Close()
	f.backends[1].Close()
	rr := post(t, f.coord, "/v1/predict", `{"workload":"ep","arm":{"nodes":2}}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("fallback predict: %d %s", rr.Code, rr.Body)
	}
	if rr.Header().Get("X-Routed-To") != "" {
		t.Error("dead-owner request claims to have been routed")
	}
	if snap := f.coord.reg.Snapshot(); snap["heteromixd_route_fallbacks_total"] < 1 {
		t.Errorf("route_fallbacks_total = %v, want >= 1", snap["heteromixd_route_fallbacks_total"])
	}
}

// TestFleetChaosSoak extends the chaos soak to the fan-out path:
// replicas inject errors and panics under the coordinator while it
// scatter-gathers, and the fleet keeps answering only 200/503/504 with
// degraded partials where slices failed. Every round asks a spec of its
// own, so none is answered from a set an earlier round folded. Failover means a shard only
// degrades when BOTH its candidates fail in the same round, so the
// injection probabilities sit well above the single-replica soak's.
func TestFleetChaosSoak(t *testing.T) {
	replicaOpts := Options{
		Chaos: resilience.ChaosOptions{
			ErrorProb: 0.5,
			PanicProb: 0.2,
			Seed:      11,
		},
		BreakerThreshold: 100, // keep replica-side breakers out of the way
	}
	f := newFleet(t, 3, Options{BreakerThreshold: 200}, replicaOpts)
	sawOK, sawDegraded := false, false
	for round := 0; round < 26; round++ {
		rr := post(t, f.coord, "/v1/enumerate-generic", coldFleetBody(round, 3))
		switch rr.Code {
		case http.StatusOK:
			sawOK = true
			if rr.Header().Get("X-Degraded") == "true" {
				sawDegraded = true
				if !strings.Contains(rr.Body.String(), `"degraded":true`) {
					t.Fatalf("round %d: degraded header without degraded body", round)
				}
			}
		case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			// All shards down this round (or breakers open): acceptable.
		default:
			t.Fatalf("round %d: status %d: %s", round, rr.Code, rr.Body)
		}
	}
	if !sawOK {
		t.Error("no fan-out round succeeded under chaos")
	}
	if !sawDegraded {
		t.Error("no round served a degraded partial under 70% per-request faults")
	}
	if n := f.coord.fleetLocalAnswers.Value(); n != 0 {
		t.Errorf("%d rounds were answered locally, want every round fanned out", n)
	}
	if hz := get(t, f.coord, "/healthz"); hz.Code != http.StatusOK {
		t.Fatalf("coordinator unhealthy after soak: %d", hz.Code)
	}
}

// TestFleetReusesReplicaConnections pins the coordinator's replica
// transport: once one fan-out has filled the idle pool, cold fan-outs
// (each round a spec of its own) that put every shard on the same
// replica reuse those connections
// instead of dialling, sub-requests ask for no gzip and answers come
// back as plain JSON, and the merge stays byte-identical to the
// unsharded answer.
func TestFleetReusesReplicaConnections(t *testing.T) {
	replica := newTestServer(t, Options{})
	var dials, gzipAsks, encoded, arrived atomic.Int64
	// The warm-up's eight shard requests wait for each other, so the
	// warm-up holds eight connections at once and leaves them all idle.
	warmed := make(chan struct{})
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if arrived.Add(1) == 8 {
			close(warmed)
		}
		select {
		case <-warmed:
		case <-r.Context().Done():
			return
		}
		if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			gzipAsks.Add(1)
		}
		replica.Handler().ServeHTTP(w, r)
		if w.Header().Get("Content-Encoding") != "" {
			encoded.Add(1)
		}
	}))
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(hs.Close)
	coord := newTestServer(t, Options{Replicas: []string{hs.URL}, ProbeInterval: time.Hour})
	plain := newTestServer(t, Options{})

	if rr := post(t, coord, "/v1/enumerate-generic", fleetWorkBody(8, 1e7)); rr.Code != http.StatusOK {
		t.Fatalf("warm-up fan-out: %d %s", rr.Code, rr.Body)
	}
	warm := dials.Load()
	if warm != 8 {
		t.Fatalf("warm-up fan-out of 8 shards opened %d connections, want 8", warm)
	}
	const rounds = 20
	for round := 0; round < rounds; round++ {
		shards := 4 + 4*(round%2)
		got := post(t, coord, "/v1/enumerate-generic", coldFleetBody(round, shards))
		if got.Code != http.StatusOK || got.Header().Get("X-Cache") != "miss" {
			t.Fatalf("round %d: %d X-Cache=%q %s", round, got.Code, got.Header().Get("X-Cache"), got.Body)
		}
		want := post(t, plain, "/v1/enumerate-generic", coldBody(round))
		if got.Body.String() != want.Body.String() {
			t.Fatalf("round %d: %d-shard merge is not byte-identical to the unsharded answer", round, shards)
		}
	}
	if n := coord.fleetFanouts.Value(); n != rounds+1 {
		t.Errorf("%d fan-outs, want the warm-up's and one per round (%d)", n, rounds+1)
	}
	if n := dials.Load() - warm; n != 0 {
		t.Errorf("%d cold fan-outs opened %d new connections after warm-up, want 0", rounds, n)
	}
	if n := gzipAsks.Load(); n != 0 {
		t.Errorf("%d sub-requests asked for gzip", n)
	}
	if n := encoded.Load(); n != 0 {
		t.Errorf("%d replica answers carried a Content-Encoding", n)
	}
}

// TestShardSuccessorWalksCached: the walks a server computes once equal
// the ring's own successor walk of every shard key, whatever the ring
// size.
func TestShardSuccessorWalksCached(t *testing.T) {
	for _, r := range []int{1, 4, 16} {
		urls := make([]string, r)
		for i := range urls {
			urls[i] = fmt.Sprintf("http://127.0.0.1:%d", 18300+i)
		}
		s := newTestServer(t, Options{Replicas: urls, ProbeInterval: time.Hour})
		if len(s.shardWalks) != maxFleetShards {
			t.Fatalf("%d replicas: %d cached walks, want %d", r, len(s.shardWalks), maxFleetShards)
		}
		ring := shard.NewRing(urls, 0)
		for i, got := range s.shardWalks {
			want := ring.Successors("shard:" + strconv.Itoa(i))
			if len(want) != r || strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("%d replicas, shard %d: cached walk %v, ring walk %v", r, i, got, want)
			}
		}
	}
}
