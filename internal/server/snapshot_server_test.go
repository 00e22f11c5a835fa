package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"heteromix/internal/snapshot"
)

const (
	snapPredictBody = `{"workload":"ep","arm":{"nodes":2},"amd":{"nodes":1}}`
	snapBudgetBody  = `{"workload":"ep","budget_watts":400}`
	snapGenericBody = `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":2},{"node":"amd-opteron-k10","max_nodes":1}],"frontier_only":true}`
	// snapLimitedBody is a limited walk of the same space: like the
	// frontier, it is computed from the table every time.
	snapLimitedBody = `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":2},{"node":"amd-opteron-k10","max_nodes":1}],"limit":5}`
)

// warmSnapshotServer serves one predict, one budget, one generic
// frontier and one limited generic walk, so the result cache holds the
// predict and budget bodies and the table cache both kinds of table,
// then returns the server.
func warmSnapshotServer(t testing.TB, opts Options) *Server {
	t.Helper()
	s := newTestServer(t, opts)
	for _, req := range []struct{ path, body string }{
		{"/v1/predict", snapPredictBody},
		{"/v1/budget", snapBudgetBody},
		{"/v1/enumerate-generic", snapGenericBody},
		{"/v1/enumerate-generic", snapLimitedBody},
	} {
		if rr := post(t, s, req.path, req.body); rr.Code != http.StatusOK {
			t.Fatalf("warming %s: status %d: %s", req.path, rr.Code, rr.Body)
		}
	}
	return s
}

// writeWarmSnapshot persists a warm server's snapshot to a temp file.
func writeWarmSnapshot(t testing.TB, s *Server) (path string, snap *snapshot.Snapshot) {
	t.Helper()
	snap = s.BuildSnapshot()
	path = filepath.Join(t.TempDir(), "cache.snap")
	if err := snapshot.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	return path, snap
}

// TestPreheatServesFirstRequestsWithZeroTableBuilds is the headline
// acceptance: a server preheated from a warm sibling's snapshot serves
// its first /v1/predict, first /v1/budget, first warm-spec limited walk
// and first warm-spec frontier without building a single kernel table —
// and without even a table cache miss. The predict and the budget hit
// preheated results; the limited walk, never cached, walks the
// preheated table; the frontier, never cached either, answers from the
// preheated table's candidate set, without the walk that builds it.
func TestPreheatServesFirstRequestsWithZeroTableBuilds(t *testing.T) {
	a := warmSnapshotServer(t, Options{})
	path, snap := writeWarmSnapshot(t, a)
	if len(snap.Tables) == 0 || len(snap.Generic) == 0 || len(snap.Results) < 2 {
		t.Fatalf("warm snapshot too thin: %d tables, %d generic, %d results",
			len(snap.Tables), len(snap.Generic), len(snap.Results))
	}

	b := newTestServer(t, Options{SnapshotPath: path})
	if got := b.snapshotLoads.Value(); got != 1 {
		t.Fatalf("snapshot loads = %d, want 1", got)
	}
	if rr := post(t, b, "/v1/predict", snapPredictBody); rr.Code != http.StatusOK {
		t.Fatalf("preheated predict: status %d: %s", rr.Code, rr.Body)
	} else if rr.Header().Get("X-Cache") != "hit" {
		t.Errorf("preheated first predict X-Cache = %q, want hit", rr.Header().Get("X-Cache"))
	}
	if rr := post(t, b, "/v1/budget", snapBudgetBody); rr.Code != http.StatusOK {
		t.Fatalf("preheated budget: status %d: %s", rr.Code, rr.Body)
	} else if rr.Header().Get("X-Cache") != "hit" {
		t.Errorf("preheated first budget X-Cache = %q, want hit", rr.Header().Get("X-Cache"))
	}
	if rr := post(t, b, "/v1/enumerate-generic", snapLimitedBody); rr.Code != http.StatusOK {
		t.Fatalf("preheated limited generic: status %d: %s", rr.Code, rr.Body)
	} else if rr.Header().Get("X-Cache") != "miss" {
		t.Errorf("preheated first limited generic X-Cache = %q, want miss (enumerations are never cached)", rr.Header().Get("X-Cache"))
	}
	if rr := post(t, b, "/v1/enumerate-generic", snapGenericBody); rr.Code != http.StatusOK {
		t.Fatalf("preheated generic frontier: status %d: %s", rr.Code, rr.Body)
	} else if rr.Header().Get("X-Cache") != "miss" {
		t.Errorf("preheated first generic frontier X-Cache = %q, want miss (frontiers are never cached)", rr.Header().Get("X-Cache"))
	} else if pruned := decodeBody[EnumerateGenericResponse](t, rr).PrunedSize; b.genericPoints.Value() >= pruned {
		t.Errorf("preheated first frontier evaluated %d points, want fewer than the %d-point pruned space (the snapshot's candidate set)",
			b.genericPoints.Value(), pruned)
	}
	// A fresh work size misses the result cache but must still hit the
	// preheated table — proving the table preheat independently of the
	// result preheat.
	if rr := post(t, b, "/v1/predict", `{"workload":"ep","arm":{"nodes":2},"amd":{"nodes":1},"work":1e6}`); rr.Code != http.StatusOK {
		t.Fatalf("fresh-work predict: status %d: %s", rr.Code, rr.Body)
	} else if rr.Header().Get("X-Cache") != "miss" {
		t.Errorf("fresh-work predict X-Cache = %q, want miss", rr.Header().Get("X-Cache"))
	}
	if builds := b.TableBuilds(); builds != 0 {
		t.Errorf("table builds after preheated serving = %d, want 0", builds)
	}
	if misses := b.TableCacheStats().Misses; misses != 0 {
		t.Errorf("table cache misses after preheated serving = %d, want 0", misses)
	}
}

// TestPreheatRespectsResultByteLimit: an oversized snapshot loads only
// the hottest prefix that fits the configured byte budget, and the
// hottest entry always survives.
func TestPreheatRespectsResultByteLimit(t *testing.T) {
	a := newTestServer(t, Options{})
	var total int64
	for i := 1; i <= 24; i++ {
		body := fmt.Sprintf(`{"workload":"ep","arm":{"nodes":2},"amd":{"nodes":1},"work":%d}`, i*100000)
		if rr := post(t, a, "/v1/predict", body); rr.Code != http.StatusOK {
			t.Fatalf("warming %d: status %d: %s", i, rr.Code, rr.Body)
		}
	}
	snap := a.BuildSnapshot()
	for _, e := range snap.Results {
		total += int64(len(e.Body))
	}
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := snapshot.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}

	b := newTestServer(t, Options{SnapshotPath: path, CacheMaxBytes: total / 3})
	entries := b.CacheStats().Entries
	if entries == 0 {
		t.Fatal("byte-limited preheat loaded nothing")
	}
	if entries >= len(snap.Results) {
		t.Fatalf("byte-limited preheat loaded all %d results under a 1/3 budget", entries)
	}
	if _, ok := b.cache.Get(snap.Results[0].Key); !ok {
		t.Error("hottest result did not survive the byte-limited preheat")
	}
}

// TestPreheatRespectsTableByteLimit: with a table-cache byte budget
// sized for one artifact, only the hottest table loads.
func TestPreheatRespectsTableByteLimit(t *testing.T) {
	a := newTestServer(t, Options{})
	for _, w := range []string{"ep", "memcached"} {
		body := fmt.Sprintf(`{"workload":%q,"arm":{"nodes":2},"amd":{"nodes":1}}`, w)
		if rr := post(t, a, "/v1/predict", body); rr.Code != http.StatusOK {
			t.Fatalf("warming %s: status %d: %s", w, rr.Code, rr.Body)
		}
	}
	snap := a.BuildSnapshot()
	if len(snap.Tables) != 2 {
		t.Fatalf("want 2 tables, got %d", len(snap.Tables))
	}
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := snapshot.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	// Budget exactly one artifact: the hottest (memcached, served last).
	hottest, ok := a.tables.Get("table|memcached@v1|false")
	if !ok {
		t.Fatal("hottest table missing from donor cache")
	}
	b := newTestServer(t, Options{
		SnapshotPath:       path,
		TableCacheMaxBytes: int64(hottest.SizeBytes()),
	})
	st := b.TableCacheStats()
	if st.Entries != 1 {
		t.Fatalf("table cache entries = %d, want 1 (hottest prefix only)", st.Entries)
	}
	if _, ok := b.tables.Get("table|memcached@v1|false"); !ok {
		t.Error("hottest table did not survive the byte-limited preheat")
	}
}

// TestPreheatFromOlderFormatStartsCold: a snapshot a format-1 build
// wrote (the file an upgraded daemon finds on disk) is a counted reject
// and a clean cold start, never a failed New.
func TestPreheatFromOlderFormatStartsCold(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", "format1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{SnapshotPath: path})
	if got := s.snapshotRejects.Value(); got != 1 {
		t.Errorf("snapshot rejects = %d, want 1", got)
	}
	if got := s.snapshotLoads.Value(); got != 0 {
		t.Errorf("snapshot loads = %d, want 0", got)
	}
	if n, m := s.cache.Len(), s.tables.Len(); n != 0 || m != 0 {
		t.Fatalf("caches hold %d results and %d tables after a rejected preheat, want none", n, m)
	}
	if rr := post(t, s, "/v1/predict", snapPredictBody); rr.Code != http.StatusOK {
		t.Fatalf("cold predict: status %d: %s", rr.Code, rr.Body)
	} else if rr.Header().Get("X-Cache") != "miss" {
		t.Errorf("first predict X-Cache = %q, want miss", rr.Header().Get("X-Cache"))
	}
}

// TestProfileBumpRetiresPreheatedEntries: a /v1/fit-style profile bump
// after preheat makes every preheated key unreachable by construction —
// the new version tag mints different keys, so the next request
// recomputes under the new profile.
func TestProfileBumpRetiresPreheatedEntries(t *testing.T) {
	a := warmSnapshotServer(t, Options{})
	path, snap := writeWarmSnapshot(t, a)
	b := newTestServer(t, Options{SnapshotPath: path})

	if _, err := b.calib.Install("ep", "arm-cortex-a9", perturbedModel(t, "ep", "arm-cortex-a9", 1.2), "test"); err != nil {
		t.Fatal(err)
	}
	rr := post(t, b, "/v1/predict", snapPredictBody)
	if rr.Code != http.StatusOK {
		t.Fatalf("post-bump predict: status %d: %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("post-bump predict X-Cache = %q, want miss", got)
	}
	if builds := b.TableBuilds(); builds != 1 {
		t.Errorf("post-bump table builds = %d, want 1 (rebuilt under the new version)", builds)
	}
	// The bump's invalidation sweep also reclaims the preheated bodies.
	if _, ok := b.cache.Get(snap.Results[0].Key); ok {
		t.Error("preheated result still resident after the profile bump sweep")
	}
}

// TestSnapshotRoundTripBitIdentical: a preheated server's own snapshot
// re-encodes bit-identically to the donor's (timestamps normalized) —
// decode(encode(caches)) lost nothing, reordered nothing.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	a := warmSnapshotServer(t, Options{})
	if rr := post(t, a, "/v1/enumerate", `{"workload":"ep","max_arm":2,"max_amd":2,"frontier_only":true}`); rr.Code != http.StatusOK {
		t.Fatalf("warming enumerate: status %d: %s", rr.Code, rr.Body)
	}
	path, snapA := writeWarmSnapshot(t, a)
	b := newTestServer(t, Options{SnapshotPath: path})
	snapB := b.BuildSnapshot()

	snapA.Meta.CreatedUnixNano = 0
	snapB.Meta.CreatedUnixNano = 0
	if !bytes.Equal(snapshot.Encode(snapA), snapshot.Encode(snapB)) {
		t.Fatalf("re-harvested snapshot is not bit-identical:\n donor: %d tables %d generic %d results\nloaded: %d tables %d generic %d results",
			len(snapA.Tables), len(snapA.Generic), len(snapA.Results),
			len(snapB.Tables), len(snapB.Generic), len(snapB.Results))
	}
}

// TestSnapshotEndpoint: GET /v1/snapshot serves a decodable snapshot,
// and answers 409 to a requester with divergent profile state instead
// of shipping entries it could never validate.
func TestSnapshotEndpoint(t *testing.T) {
	a := warmSnapshotServer(t, Options{})
	rr := get(t, a, "/v1/snapshot")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type %q", ct)
	}
	snap, err := snapshot.DecodeLimited(rr.Body.Bytes(), 0)
	if err != nil {
		t.Fatalf("served snapshot does not decode: %v", err)
	}
	if len(snap.Tables) == 0 || len(snap.Results) == 0 {
		t.Fatalf("served snapshot is empty: %d tables, %d results", len(snap.Tables), len(snap.Results))
	}
	if got := rr.Header().Get("X-Profile-Hash"); got != snap.Meta.ProfileHash {
		t.Errorf("X-Profile-Hash %q, want %q", got, snap.Meta.ProfileHash)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil)
	req.Header.Set(profileHashHeader, "divergent-hash")
	rr2 := httptest.NewRecorder()
	a.Handler().ServeHTTP(rr2, req)
	if rr2.Code != http.StatusConflict {
		t.Fatalf("divergent hash: status %d, want 409", rr2.Code)
	}
}

// TestWarmFromPeer: a cold replica pulls a warm sibling's snapshot and
// then serves with zero table builds; a sibling under divergent
// profiles refuses with 409 and the cold caches stay untouched.
func TestWarmFromPeer(t *testing.T) {
	a := warmSnapshotServer(t, Options{})
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	b := newTestServer(t, Options{Replicas: []string{srv.URL}, ProbeInterval: time.Hour})
	if err := b.WarmFromPeer(ctx, srv.URL); err != nil {
		t.Fatal(err)
	}
	if rr := post(t, b, "/v1/predict", snapPredictBody); rr.Code != http.StatusOK {
		t.Fatalf("warmed predict: status %d: %s", rr.Code, rr.Body)
	} else if rr.Header().Get("X-Cache") != "hit" {
		t.Errorf("warmed predict X-Cache = %q, want hit", rr.Header().Get("X-Cache"))
	}
	if builds := b.TableBuilds(); builds != 0 {
		t.Errorf("table builds after peer warm = %d, want 0", builds)
	}

	// Diverge the donor's profile state: the pull must be refused and
	// nothing may load.
	if _, err := a.calib.Install("ep", "arm-cortex-a9", perturbedModel(t, "ep", "arm-cortex-a9", 1.3), "test"); err != nil {
		t.Fatal(err)
	}
	c := newTestServer(t, Options{Replicas: []string{srv.URL}, ProbeInterval: time.Hour})
	err := c.WarmFromPeer(ctx, srv.URL)
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("divergent peer warm error = %v, want a refusal", err)
	}
	if got := c.CacheStats().Entries; got != 0 {
		t.Errorf("refused warm left %d cache entries", got)
	}
	if got := c.snapshotRejects.Value(); got != 1 {
		t.Errorf("snapshot rejects = %d, want 1", got)
	}
}

// TestPeerWarmAutomatic: with PeerWarm set, the startup watcher pulls
// from the first sibling the prober sees healthy — no manual trigger.
func TestPeerWarmAutomatic(t *testing.T) {
	a := warmSnapshotServer(t, Options{})
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	b := newTestServer(t, Options{
		Replicas:      []string{srv.URL},
		PeerWarm:      true,
		ProbeInterval: 20 * time.Millisecond,
	})
	deadline := time.Now().Add(10 * time.Second)
	for b.snapshotLoads.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("peer warm never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if builds := b.TableBuilds(); builds != 0 {
		t.Errorf("table builds after automatic peer warm = %d, want 0", builds)
	}
	if rr := post(t, b, "/v1/predict", snapPredictBody); rr.Code != http.StatusOK {
		t.Fatalf("warmed predict: status %d: %s", rr.Code, rr.Body)
	}
}

// TestSnapshotWriterSavesOnClose: a server with a snapshot path and
// interval persists its warmth on shutdown; the file round-trips.
func TestSnapshotWriterSavesOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	a := warmSnapshotServer(t, Options{SnapshotPath: path, SnapshotInterval: time.Hour})
	a.Close()
	if got := a.snapshotSaves.Value(); got != 1 {
		t.Fatalf("snapshot saves = %d, want 1 (final save on Close)", got)
	}
	snap, err := snapshot.ReadFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Tables) == 0 || len(snap.Generic) == 0 || len(snap.Results) == 0 {
		t.Fatalf("persisted snapshot is thin: %d tables, %d generic, %d results",
			len(snap.Tables), len(snap.Generic), len(snap.Results))
	}
}

// TestHealthzReportsSnapshot: /healthz carries the snapshot section
// after a preheat — hash, entry counts and the load total.
func TestHealthzReportsSnapshot(t *testing.T) {
	a := warmSnapshotServer(t, Options{})
	path, snap := writeWarmSnapshot(t, a)
	b := newTestServer(t, Options{SnapshotPath: path})

	hr := decodeBody[HealthResponse](t, get(t, b, "/healthz"))
	if hr.Snapshot == nil {
		t.Fatal("healthz lacks the snapshot section after preheat")
	}
	if hr.Snapshot.FileHash != snap.FileHash {
		t.Errorf("healthz snapshot hash %q, want %q", hr.Snapshot.FileHash, snap.FileHash)
	}
	if hr.Snapshot.Loads != 1 || hr.Snapshot.Tables == 0 || hr.Snapshot.Results == 0 {
		t.Errorf("healthz snapshot section %+v", hr.Snapshot)
	}
	// A cold server omits the section entirely.
	cold := decodeBody[HealthResponse](t, get(t, newTestServer(t, Options{}), "/healthz"))
	if cold.Snapshot != nil {
		t.Errorf("cold healthz carries a snapshot section: %+v", cold.Snapshot)
	}
}
