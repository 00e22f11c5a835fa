package server

import (
	"net/http"
	"strings"
	"testing"

	"heteromix/internal/cluster"
	"heteromix/internal/hwsim"
	"heteromix/internal/isa"
)

// triBody is the canonical 3-type request the tests drive.
const triBody = `{"workload":"ep","types":[
	{"node":"arm-cortex-a9","max_nodes":2,"needs_switch":true},
	{"node":"arm-cortex-a15","max_nodes":2,"needs_switch":true},
	{"node":"amd-opteron-k10","max_nodes":2}]`

// triGroupTypes resolves the same types directly through the suite, the
// ground truth the endpoint must reproduce.
func triGroupTypes(t *testing.T) []cluster.GroupType {
	t.Helper()
	suite := testSuite()
	var out []cluster.GroupType
	for _, spec := range []hwsim.NodeSpec{hwsim.ARMCortexA9(), hwsim.ARMCortexA15(), hwsim.AMDOpteronK10()} {
		nm, err := suite.Model("ep", spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cluster.GroupType{Model: nm, MaxNodes: 2, NeedsSwitch: spec.ISA == isa.ARMv7A})
	}
	return out
}

func TestEnumerateGenericFrontierMatchesDirect(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := post(t, s, "/v1/enumerate-generic", triBody+`,"frontier_only":true}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	resp := decodeBody[EnumerateGenericResponse](t, rr)

	types := triGroupTypes(t)
	if want := cluster.GenericSpaceSize(types); resp.SpaceSize != want {
		t.Errorf("space_size = %d, want %d", resp.SpaceSize, want)
	}
	if resp.PrunedSize == 0 || resp.PrunedSize >= resp.SpaceSize {
		t.Errorf("pruned_size = %d out of %d: pruning did not shrink the space",
			resp.PrunedSize, resp.SpaceSize)
	}
	pruned, err := cluster.PruneGroupTypes(types)
	if err != nil {
		t.Fatal(err)
	}
	pts, tes, err := cluster.GenericFrontierOf(pruned, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Returned != len(tes) || len(resp.Points) != len(tes) {
		t.Fatalf("returned %d frontier points, want %d", resp.Returned, len(tes))
	}
	for i, p := range resp.Points {
		if p.TimeSeconds != tes[i].Time || p.EnergyJoules != tes[i].Energy {
			t.Errorf("point %d = (%v, %v), want (%v, %v)",
				i, p.TimeSeconds, p.EnergyJoules, tes[i].Time, tes[i].Energy)
		}
		if want := pts[i].Summary([]string{"arm-cortex-a9", "arm-cortex-a15", "amd-opteron-k10"}); p.Label != want.Label {
			t.Errorf("point %d label %q, want %q", i, p.Label, want.Label)
		}
	}

	// The identical request is answered again, never from the result
	// cache, with the same bytes, from the candidate set alone: it
	// evaluates fewer points than the pruned space holds.
	first := rr.Body.String()
	before := s.genericPoints.Value()
	rr = post(t, s, "/v1/enumerate-generic", triBody+`,"frontier_only":true}`)
	if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != "miss" {
		t.Errorf("repeat request: status %d, X-Cache %q", rr.Code, rr.Header().Get("X-Cache"))
	}
	if rr.Body.String() != first {
		t.Errorf("repeat differs from the first answer\n got: %s\nwant: %s", rr.Body, first)
	}
	if d := s.genericPoints.Value() - before; d == 0 || d >= resp.PrunedSize {
		t.Errorf("repeat evaluated %d points, want 0 < n < %d (the candidate set only)", d, resp.PrunedSize)
	}
	// frontier_only implies prune, so the explicit form answers the same.
	rr = post(t, s, "/v1/enumerate-generic", triBody+`,"frontier_only":true,"prune":true}`)
	if rr.Code != http.StatusOK || rr.Body.String() != first {
		t.Errorf("frontier_only with explicit prune: status %d, or a body other than frontier_only's alone: %s", rr.Code, rr.Body)
	}
}

func TestEnumerateGenericPointsAndTruncation(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := post(t, s, "/v1/enumerate-generic", triBody+`,"limit":25}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	resp := decodeBody[EnumerateGenericResponse](t, rr)
	if resp.Returned != 25 || !resp.Truncated {
		t.Fatalf("returned %d truncated=%v, want 25 truncated", resp.Returned, resp.Truncated)
	}
	if resp.PrunedSize != 0 {
		t.Errorf("unpruned request reports pruned_size %d", resp.PrunedSize)
	}
	// The first points are the head of the direct enumeration's order.
	types := triGroupTypes(t)
	i := 0
	err := cluster.EnumerateGroupsFunc(types, 50e6, func(p cluster.GenericPoint) bool {
		got := resp.Points[i]
		want := p.Summary([]string{"arm-cortex-a9", "arm-cortex-a15", "amd-opteron-k10"})
		if got.TimeSeconds != want.TimeSeconds || got.EnergyJoules != want.EnergyJoules || got.Label != want.Label {
			t.Fatalf("point %d = %+v, want %+v", i, got, want)
		}
		i++
		return i < resp.Returned
	})
	if err != nil {
		t.Fatal(err)
	}

	// Work fractions of used groups always sum to 1.
	for _, p := range resp.Points {
		sum := 0.0
		for _, g := range p.Groups {
			if g.Nodes <= 0 {
				t.Fatalf("absent type leaked into groups: %+v", p)
			}
			sum += g.WorkFraction
		}
		if sum < 0.999999 || sum > 1.000001 {
			t.Fatalf("work fractions sum to %v: %+v", sum, p)
		}
	}
}

func TestEnumerateGenericMetrics(t *testing.T) {
	s := newTestServer(t, Options{})
	if rr := post(t, s, "/v1/enumerate-generic", triBody+`,"frontier_only":true}`); rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	if s.genericPoints.Value() == 0 {
		t.Error("generic_points_evaluated_total not incremented")
	}
	if s.genericPruned.Value() == 0 {
		t.Error("generic_points_pruned_total not incremented")
	}
	evaluated := s.genericPoints.Value()
	// A repeat is computed again (frontier answers are never cached) but
	// only over the candidate set the first request built, which holds
	// fewer points than the pruned space the first request walked.
	rr := post(t, s, "/v1/enumerate-generic", triBody+`,"frontier_only":true}`)
	if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != "miss" {
		t.Fatalf("repeat: status %d, X-Cache %q: %s", rr.Code, rr.Header().Get("X-Cache"), rr.Body)
	}
	pruned := decodeBody[EnumerateGenericResponse](t, rr).PrunedSize
	if d := s.genericPoints.Value() - evaluated; d == 0 || d >= pruned {
		t.Errorf("repeat evaluated %d points, want 0 < n < %d (the candidate set only)", d, pruned)
	}
}

func TestEnumerateGenericRejections(t *testing.T) {
	s := newTestServer(t, Options{MaxNodes: 12, MaxGenericSpace: 100_000})
	cases := []struct {
		name, body string
	}{
		{"empty types", `{"workload":"ep","types":[]}`},
		{"missing types", `{"workload":"ep"}`},
		{"unknown node", `{"workload":"ep","types":[{"node":"intel-xeon","max_nodes":2}]}`},
		{"negative max_nodes", `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":-1}]}`},
		{"max_nodes over bound", `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":13}]}`},
		{"all zero", `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":0}]}`},
		{"negative limit", `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":1}],"limit":-1}`},
		{"unknown workload", `{"workload":"nope","types":[{"node":"arm-cortex-a9","max_nodes":1}]}`},
		{"unknown field", `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":1}],"bogus":1}`},
		{"space guard", `{"workload":"ep","types":[
			{"node":"arm-cortex-a9","max_nodes":12},
			{"node":"arm-cortex-a15","max_nodes":12},
			{"node":"amd-opteron-k10","max_nodes":12}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := post(t, s, "/v1/enumerate-generic", tc.body)
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", rr.Code, rr.Body)
			}
			e := decodeBody[errorResponse](t, rr)
			if e.Error == "" {
				t.Fatal("400 without a JSON error body")
			}
		})
	}
	// Every rejection fired before any enumeration ran.
	if n := s.genericPoints.Value(); n != 0 {
		t.Errorf("rejected requests evaluated %d points", n)
	}
}

func TestEnumerateGenericSpaceGuardAdmitsPrunedForm(t *testing.T) {
	// The same bounds that trip the guard un-pruned fit within it after
	// domination pruning — the guard applies to the walked space.
	types := triGroupTypes(t)
	pruned, err := cluster.PruneGroupTypes(types)
	if err != nil {
		t.Fatal(err)
	}
	full := cluster.GenericSpaceSize(types)
	reduced := cluster.GenericSpaceSize(pruned)
	bound := (full + reduced) / 2
	s := newTestServer(t, Options{MaxGenericSpace: bound})

	if rr := post(t, s, "/v1/enumerate-generic", triBody+`}`); rr.Code != http.StatusBadRequest {
		t.Fatalf("unpruned space of %d (bound %d): status %d, want 400", full, bound, rr.Code)
	}
	rr := post(t, s, "/v1/enumerate-generic", triBody+`,"prune":true}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("pruned space of %d (bound %d): status %d: %s", reduced, bound, rr.Code, rr.Body)
	}
	resp := decodeBody[EnumerateGenericResponse](t, rr)
	if resp.PrunedSize != reduced {
		t.Errorf("pruned_size = %d, want %d", resp.PrunedSize, reduced)
	}
}

func TestHealthzAndMetricsExposeGenericCounters(t *testing.T) {
	s := newTestServer(t, Options{})
	if rr := post(t, s, "/v1/enumerate-generic", triBody+`,"frontier_only":true}`); rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	rr := get(t, s, "/metrics")
	body := rr.Body.String()
	for _, name := range []string{
		"heteromixd_generic_points_evaluated_total",
		"heteromixd_generic_points_pruned_total",
		`heteromixd_requests_total{endpoint="enumerate-generic"}`,
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}
