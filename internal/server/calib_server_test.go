package server

// The online-calibration serving tests: /v1/fit and /v1/profiles
// contracts, the end-to-end drift → refit → invalidation loop, and the
// proof that a profile bump makes every warm cache entry — results,
// compiled tables, raw batch memoizations, fleet-wide — unreachable.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"heteromix/internal/experiments"
	"heteromix/internal/hwsim"
	"heteromix/internal/model"
)

// fitBodyScaled builds a /v1/fit body whose observations are the base
// model's predictions with time ×tScale and energy ×eScale across core
// counts and P-states — a ground-truth shift the refit can recover
// exactly for the CPU-bound EP workload.
func fitBodyScaled(t testing.TB, workload, node string, tScale, eScale float64) string {
	t.Helper()
	spec, err := hwsim.ByName(node)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := testSuite().Model(workload, spec)
	if err != nil {
		t.Fatal(err)
	}
	req := FitRequest{Workload: workload, Node: node}
	for _, cores := range []int{1, spec.Cores} {
		for _, f := range spec.Frequencies {
			pred, err := nm.Predict(hwsim.Config{Cores: cores, Frequency: f}, 0.5*1e8)
			if err != nil {
				t.Fatal(err)
			}
			req.Samples = append(req.Samples, FitSample{
				Cores:        cores,
				GHz:          f.GHzValue(),
				Work:         0.5 * 1e8,
				TimeSeconds:  float64(pred.Time) * tScale,
				EnergyJoules: float64(pred.Energy) * eScale,
			})
		}
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// perturbedModel returns the pair's base model with its instruction
// count scaled — a distinct content hash, so Install always bumps.
func perturbedModel(t testing.TB, workload, node string, scale float64) model.NodeModel {
	t.Helper()
	spec, err := hwsim.ByName(node)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := testSuite().Model(workload, spec)
	if err != nil {
		t.Fatal(err)
	}
	nm.Profile.InstructionsPerUnit *= scale
	return nm
}

func TestFitAndProfilesEndpoints(t *testing.T) {
	s := newTestServer(t, Options{})

	// Accurate observations: accepted and tracked, no refit.
	rr := post(t, s, "/v1/fit", fitBodyScaled(t, "ep", "arm-cortex-a9", 1.0, 1.0))
	if rr.Code != http.StatusOK {
		t.Fatalf("fit: %d %s", rr.Code, rr.Body)
	}
	fr := decodeBody[FitResponse](t, rr)
	if fr.Accepted == 0 || fr.Refit || fr.Version != 1 {
		t.Fatalf("accurate fit: %+v", fr)
	}
	if fr.Drift > 1e-9 {
		t.Errorf("accurate fit drift = %v, want ~0", fr.Drift)
	}
	if got := s.calibSamples.Value(); got != uint64(fr.Accepted) {
		t.Errorf("calib_samples_total = %d, want %d", got, fr.Accepted)
	}
	if got := s.calibRefits.Value(); got != 0 {
		t.Errorf("calib_refits_total = %d, want 0", got)
	}
	if got := s.calibDrift.Value(); got != 0 {
		t.Errorf("calib_drift_ppm = %d, want 0", got)
	}

	pr := get(t, s, "/v1/profiles")
	if pr.Code != http.StatusOK {
		t.Fatalf("profiles: %d %s", pr.Code, pr.Body)
	}
	prof := decodeBody[ProfilesResponse](t, pr)
	if prof.Generation != 1 || prof.RefitThreshold != 0.10 {
		t.Errorf("profiles header = %+v", prof)
	}
	if len(prof.Profiles) != 1 || prof.Profiles[0].Source != "base" ||
		prof.Profiles[0].Samples != fr.Accepted || prof.Profiles[0].Version != 1 {
		t.Errorf("profiles rows = %+v", prof.Profiles)
	}

	hr := get(t, s, "/healthz")
	if !strings.Contains(hr.Body.String(), `"profile_generation":1`) {
		t.Errorf("healthz missing profile_generation: %s", hr.Body)
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	s := newTestServer(t, Options{MaxFitBatch: 4})
	sample := `{"cores":1,"ghz":0.8,"time_seconds":1,"energy_joules":10}`
	cases := []struct {
		name, body string
	}{
		{"unknown workload", `{"workload":"fortran","node":"arm-cortex-a9","samples":[` + sample + `]}`},
		{"missing workload", `{"node":"arm-cortex-a9","samples":[` + sample + `]}`},
		{"unknown node", `{"workload":"ep","node":"pdp-11","samples":[` + sample + `]}`},
		{"no samples", `{"workload":"ep","node":"arm-cortex-a9","samples":[]}`},
		{"oversized batch", `{"workload":"ep","node":"arm-cortex-a9","samples":[` +
			strings.Repeat(sample+",", 4) + sample + `]}`},
		{"NaN time", `{"workload":"ep","node":"arm-cortex-a9","samples":[{"time_seconds":NaN,"energy_joules":1}]}`},
		{"negative time", `{"workload":"ep","node":"arm-cortex-a9","samples":[{"time_seconds":-1,"energy_joules":1}]}`},
		{"zero energy", `{"workload":"ep","node":"arm-cortex-a9","samples":[{"time_seconds":1,"energy_joules":0}]}`},
		{"overflow energy", `{"workload":"ep","node":"arm-cortex-a9","samples":[{"time_seconds":1,"energy_joules":1e999}]}`},
		{"bad cores", `{"workload":"ep","node":"arm-cortex-a9","samples":[{"cores":99,"time_seconds":1,"energy_joules":1}]}`},
		{"off-P-state ghz", `{"workload":"ep","node":"arm-cortex-a9","samples":[{"ghz":7.7,"time_seconds":1,"energy_joules":1}]}`},
		{"bad work", `{"workload":"ep","node":"arm-cortex-a9","samples":[{"work":-5,"time_seconds":1,"energy_joules":1}]}`},
		{"unknown field", `{"workload":"ep","node":"arm-cortex-a9","wibble":1,"samples":[` + sample + `]}`},
	}
	for _, tc := range cases {
		rr := post(t, s, "/v1/fit", tc.body)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: got %d %s, want 400", tc.name, rr.Code, rr.Body)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: 400 without JSON error body: %s", tc.name, rr.Body)
		}
	}
	// Nothing was stored by any rejected batch.
	for _, st := range s.calib.Statuses() {
		if st.Samples != 0 {
			t.Errorf("rejected batches left %d samples stored", st.Samples)
		}
	}
}

// TestDriftRefitEndToEnd is the subsystem's acceptance loop: warm
// predictions, a ground-truth shift arriving through /v1/fit, drift
// crossing the threshold, the automatic refit bumping the profile
// version, every warm cache entry invalidated, and the post-refit
// predictions tracking the shifted truth where the pre-refit ones were
// 50% off.
func TestDriftRefitEndToEnd(t *testing.T) {
	s := newTestServer(t, Options{})
	const predictBody = `{"workload":"ep","arm":{"nodes":2},"no_switch_energy":true}`

	// Warm the serving path: miss, then hit.
	first := post(t, s, "/v1/predict", predictBody)
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("cold predict: %d cache=%q", first.Code, first.Header().Get("X-Cache"))
	}
	if rr := post(t, s, "/v1/predict", predictBody); rr.Header().Get("X-Cache") != "hit" {
		t.Fatalf("warm predict not cached: %q", rr.Header().Get("X-Cache"))
	}
	base := decodeBody[PredictResponse](t, first)

	// The ground truth shifts: jobs now run 1.5x slower and use 1.3x the
	// energy. The warm prediction is 33%/23% off that truth.
	trueTime := base.Point.TimeSeconds * 1.5
	trueEnergy := base.Point.EnergyJoules * 1.3
	preErr := relDiff(base.Point.TimeSeconds, trueTime)
	if e := relDiff(base.Point.EnergyJoules, trueEnergy); e > preErr {
		preErr = e
	}

	// Observations of the shifted truth arrive. Drift (≈33%) crosses the
	// 10% threshold with enough samples stored, so this single ingest
	// refits and bumps the profile version.
	rr := post(t, s, "/v1/fit", fitBodyScaled(t, "ep", "arm-cortex-a9", 1.5, 1.3))
	if rr.Code != http.StatusOK {
		t.Fatalf("fit: %d %s", rr.Code, rr.Body)
	}
	fr := decodeBody[FitResponse](t, rr)
	if !fr.Refit || fr.Version != 2 || fr.Hash == "" || fr.Quality == nil {
		t.Fatalf("shifted fit did not refit: %+v", fr)
	}
	if fr.DriftBefore < 0.1 {
		t.Errorf("drift before = %v, expected past the 0.1 threshold", fr.DriftBefore)
	}
	if fr.Drift >= fr.DriftBefore || fr.Drift > 1e-6 {
		t.Errorf("post-refit drift = %v (before %v), want ~0", fr.Drift, fr.DriftBefore)
	}
	if got := s.calibRefits.Value(); got != 1 {
		t.Errorf("calib_refits_total = %d, want 1", got)
	}
	if got := s.calibInvalid.Value(); got == 0 {
		t.Error("calib_invalidations_total = 0, want > 0 (warm entries swept)")
	}

	// The warm entry is unreachable: the same request misses, rebuilds
	// against the refit profile, and now predicts the shifted truth.
	after := post(t, s, "/v1/predict", predictBody)
	if after.Code != http.StatusOK {
		t.Fatalf("post-refit predict: %d %s", after.Code, after.Body)
	}
	if after.Header().Get("X-Cache") != "miss" {
		t.Fatalf("post-refit predict served the stale entry: cache=%q", after.Header().Get("X-Cache"))
	}
	refit := decodeBody[PredictResponse](t, after)
	postErr := relDiff(refit.Point.TimeSeconds, trueTime)
	if e := relDiff(refit.Point.EnergyJoules, trueEnergy); e > postErr {
		postErr = e
	}
	if postErr > 1e-6 {
		t.Errorf("post-refit prediction error = %v, want ~0 (time %v vs %v, energy %v vs %v)",
			postErr, refit.Point.TimeSeconds, trueTime, refit.Point.EnergyJoules, trueEnergy)
	}
	if postErr >= preErr {
		t.Errorf("refit did not improve serving error: before %v, after %v", preErr, postErr)
	}

	// The profile is now a first-class versioned object everywhere.
	prof := decodeBody[ProfilesResponse](t, get(t, s, "/v1/profiles"))
	if prof.Generation != 2 {
		t.Errorf("generation = %d, want 2", prof.Generation)
	}
	row := prof.Profiles[0]
	if row.Source != "refit" || row.Version != 2 || row.Hash != fr.Hash || row.Refits != 1 {
		t.Errorf("profile row = %+v", row)
	}
	if !strings.Contains(get(t, s, "/healthz").Body.String(), `"profile_generation":2`) {
		t.Error("healthz generation did not advance")
	}
}

func relDiff(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := (got - want) / want
	if d < 0 {
		return -d
	}
	return d
}

// TestProfileBumpInvalidatesCaches pins the invalidation contract
// entry-by-entry: warm result entries and compiled tables for the
// bumped workload become unreachable (the same requests miss and
// rebuild), while another workload's entries stay warm through the
// bump.
func TestProfileBumpInvalidatesCaches(t *testing.T) {
	s := newTestServer(t, Options{})
	const (
		epPredict  = `{"workload":"ep","arm":{"nodes":2}}`
		epGeneric  = `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":2}],"frontier_only":true}`
		memPredict = `{"workload":"memcached","arm":{"nodes":2}}`
	)
	for _, body := range []struct{ path, body string }{
		{"/v1/predict", epPredict},
		{"/v1/enumerate-generic", epGeneric},
		{"/v1/predict", memPredict},
	} {
		if rr := post(t, s, body.path, body.body); rr.Code != http.StatusOK {
			t.Fatalf("warming %s: %d %s", body.path, rr.Code, rr.Body)
		}
	}
	buildsBefore := s.TableBuilds()
	entriesBefore := s.cache.Stats().Entries

	if _, err := s.calib.Install("ep", "arm-cortex-a9", perturbedModel(t, "ep", "arm-cortex-a9", 1.25), "test"); err != nil {
		t.Fatal(err)
	}
	if got := s.calibInvalid.Value(); got == 0 {
		t.Error("bump swept nothing")
	}
	if got := s.cache.Stats().Entries; got >= entriesBefore {
		t.Errorf("result cache entries %d -> %d, want fewer after the sweep", entriesBefore, got)
	}

	// ep entries: miss and rebuild (tables too).
	if rr := post(t, s, "/v1/predict", epPredict); rr.Header().Get("X-Cache") != "miss" {
		t.Errorf("ep predict after bump: cache=%q, want miss", rr.Header().Get("X-Cache"))
	}
	if rr := post(t, s, "/v1/enumerate-generic", epGeneric); rr.Header().Get("X-Cache") != "miss" {
		t.Errorf("ep generic after bump: cache=%q, want miss", rr.Header().Get("X-Cache"))
	}
	if got := s.TableBuilds(); got <= buildsBefore {
		t.Errorf("kernel tables were not rebuilt after the bump: %d -> %d", buildsBefore, got)
	}
	// The other workload's entry survived and still serves hot.
	if rr := post(t, s, "/v1/predict", memPredict); rr.Header().Get("X-Cache") != "hit" {
		t.Errorf("memcached predict after ep bump: cache=%q, want hit", rr.Header().Get("X-Cache"))
	}
}

// bumpingSource is the test suite as a model source whose first
// per-type model lookup after arming runs bump: a profile bump landing
// while a generic request resolves its models.
type bumpingSource struct {
	*experiments.Suite
	armed atomic.Bool
	once  sync.Once
	bump  func()
}

func (b *bumpingSource) Model(workload string, spec hwsim.NodeSpec) (model.NodeModel, error) {
	if b.armed.Load() {
		b.once.Do(b.bump)
	}
	return b.Suite.Model(workload, spec)
}

// TestGenericBumpDuringModelLookupRetiresTable: a bump that lands while
// a generic request resolves its models must not leave the retired
// models compiled into a table keyed under the new version. The next
// request at the new version — another work size, so no result-cache
// hit — must answer what a fresh server under the new profile answers.
func TestGenericBumpDuringModelLookupRetiresTable(t *testing.T) {
	nm := perturbedModel(t, "ep", "arm-cortex-a9", 1.25)
	src := &bumpingSource{Suite: testSuite()}
	s := newTestServer(t, Options{Models: src})
	src.bump = func() {
		if _, err := s.calib.Install("ep", "arm-cortex-a9", nm, "test"); err != nil {
			t.Error(err)
		}
	}
	src.armed.Store(true)
	if rr := post(t, s, "/v1/enumerate-generic", unshardedWorkBody(1e8)); rr.Code != http.StatusOK {
		t.Fatalf("racing request: %d %s", rr.Code, rr.Body)
	}
	if v := s.calib.Version("ep"); v != 2 {
		t.Fatalf("ep version after the racing request = %d, want 2", v)
	}

	fresh := newTestServer(t, Options{})
	if _, err := fresh.calib.Install("ep", "arm-cortex-a9", nm, "test"); err != nil {
		t.Fatal(err)
	}
	want := post(t, fresh, "/v1/enumerate-generic", unshardedWorkBody(2e8))
	got := post(t, s, "/v1/enumerate-generic", unshardedWorkBody(2e8))
	if want.Code != http.StatusOK || got.Code != http.StatusOK {
		t.Fatalf("post-bump requests: %d / %d", got.Code, want.Code)
	}
	if got.Body.String() != want.Body.String() {
		t.Fatalf("post-bump answer was computed from retired models\n got: %s\nwant: %s", got.Body, want.Body)
	}
}

// TestBumpDuringBuildLeavesNoRetiredEntries: a bump that lands while a
// generic request resolves its models runs its sweep before that
// request's table and result-cache entry are stored. Both are keyed
// under the retired version, and neither may stay behind in its cache.
// The request is a delta stream, whose frontier is the one result-cache
// entry an enumeration stores: the next delta query's predecessor.
func TestBumpDuringBuildLeavesNoRetiredEntries(t *testing.T) {
	deltaBody := func(work float64) string {
		return fmt.Sprintf(`%s,"work":%g,"frontier_only":true,"delta":true}`, triBody, work)
	}
	nm := perturbedModel(t, "ep", "arm-cortex-a9", 1.25)
	src := &bumpingSource{Suite: testSuite()}
	s := newTestServer(t, Options{Models: src})
	src.bump = func() {
		if _, err := s.calib.Install("ep", "arm-cortex-a9", nm, "test"); err != nil {
			t.Error(err)
		}
	}
	src.armed.Store(true)
	if rr := postStream(t, s, "/v1/enumerate-generic", deltaBody(1e8), nil); rr.Code != http.StatusOK {
		t.Fatalf("racing request: %d %s", rr.Code, rr.Body)
	}
	if v := s.calib.Version("ep"); v != 2 {
		t.Fatalf("ep version after the racing request = %d, want 2", v)
	}
	for _, e := range s.tables.Hottest(0) {
		if strings.Contains(e.Key, "|ep@v1|") {
			t.Errorf("table cache still holds %q", e.Key)
		}
	}
	for _, e := range s.cache.Hottest(0) {
		if strings.Contains(e.Key, "|ep@v1|") {
			t.Errorf("result cache still holds %q", e.Key)
		}
	}
	// Without a bump the same kind of request is stored as usual: the
	// repeat finds its predecessor.
	if rr := postStream(t, s, "/v1/enumerate-generic", deltaBody(2e8), nil); rr.Code != http.StatusOK {
		t.Fatalf("post-bump request: %d %s", rr.Code, rr.Body)
	}
	rr := postStream(t, s, "/v1/enumerate-generic", deltaBody(2e8), nil)
	if mode := parseNDJSON(t, rr.Body.String()).head.Mode; mode != "delta" {
		t.Errorf("a repeat at the current version found no predecessor (mode %q)", mode)
	}
}

// TestBatchRawMemoizationRetiredOnBump: raw batch-item entries carry
// the global profile generation, so a bump of ANY workload retires them
// wholesale — the coarse tier for keys that cannot see a workload
// without decoding.
func TestBatchRawMemoizationRetiredOnBump(t *testing.T) {
	s := newTestServer(t, Options{})
	const batchBody = `{"items":[{"kind":"predict","request":{"workload":"ep","arm":{"nodes":2}}}]}`
	type batchEnvelope struct {
		Items []struct {
			Status int  `json:"status"`
			Cached bool `json:"cached"`
		} `json:"items"`
	}
	post(t, s, "/v1/batch", batchBody)
	warm := decodeBody[batchEnvelope](t, post(t, s, "/v1/batch", batchBody))
	if len(warm.Items) != 1 || !warm.Items[0].Cached {
		t.Fatalf("warm batch item not memoized: %+v", warm)
	}

	if _, err := s.calib.Install("ep", "arm-cortex-a9", perturbedModel(t, "ep", "arm-cortex-a9", 1.1), "test"); err != nil {
		t.Fatal(err)
	}
	cold := decodeBody[batchEnvelope](t, post(t, s, "/v1/batch", batchBody))
	if len(cold.Items) != 1 || cold.Items[0].Cached {
		t.Fatalf("batch item served a pre-bump memoization: %+v", cold)
	}
	if cold.Items[0].Status != http.StatusOK {
		t.Fatalf("post-bump batch item: %+v", cold)
	}
}

// TestFleetProfileVersionConflict: the coordinator stamps its profile
// version onto every shard sub-request; a replica at a different
// version answers 409 (retryable, never 5xx), its slice counts as
// failed, and a fleet whose replicas all disagree answers 503. Once the
// replicas converge on the coordinator's profile, the same fan-out
// serves again.
func TestFleetProfileVersionConflict(t *testing.T) {
	f := newFleet(t, 2, Options{}, Options{})
	shardedBody := `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":2},{"node":"amd-opteron-k10","max_nodes":2}],"frontier_only":true,"shards":2}`

	// Converged fleet serves.
	if rr := post(t, f.coord, "/v1/enumerate-generic", shardedBody); rr.Code != http.StatusOK {
		t.Fatalf("converged fleet: %d %s", rr.Code, rr.Body)
	}

	// A direct pinned request against the wrong version is a 409 with a
	// JSON error body.
	pinned := `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":2}],"frontier_only":true,"profile_version":99}`
	rr := post(t, f.replicas[0], "/v1/enumerate-generic", pinned)
	if rr.Code != http.StatusConflict {
		t.Fatalf("pinned mismatch: %d %s, want 409", rr.Code, rr.Body)
	}
	var e errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "profile version conflict") {
		t.Fatalf("409 body: %s", rr.Body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("409 without Retry-After")
	}

	// The coordinator bumps (ep -> v2); the replicas still serve v1. Every
	// stamped shard now conflicts, so the whole fan-out is unavailable —
	// never a silent merge of mixed-profile slices.
	nm := perturbedModel(t, "ep", "arm-cortex-a9", 1.25)
	if _, err := f.coord.calib.Install("ep", "arm-cortex-a9", nm, "test"); err != nil {
		t.Fatal(err)
	}
	rr = post(t, f.coord, "/v1/enumerate-generic", shardedBody)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("mixed-version fleet: %d %s, want 503", rr.Code, rr.Body)
	}

	// The replicas converge on the same profile (same model bytes → same
	// version and parameters); the fan-out serves again.
	for _, rep := range f.replicas {
		if _, err := rep.calib.Install("ep", "arm-cortex-a9", nm, "test"); err != nil {
			t.Fatal(err)
		}
	}
	rr = post(t, f.coord, "/v1/enumerate-generic", shardedBody)
	if rr.Code != http.StatusOK {
		t.Fatalf("re-converged fleet: %d %s", rr.Code, rr.Body)
	}
}
