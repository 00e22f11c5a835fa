package calib

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"heteromix/internal/experiments"
	"heteromix/internal/hwsim"
	"heteromix/internal/model"
)

var (
	suiteOnce   sync.Once
	sharedSuite *experiments.Suite
)

func testSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		sharedSuite = experiments.NewSuite(experiments.SuiteOptions{Seed: 42})
	})
	return sharedSuite
}

// shiftedSamples generates observations from a scaled ground truth:
// the base model's predictions with time ×tScale and energy ×eScale,
// across core counts and P-states.
func shiftedSamples(t *testing.T, nm model.NodeModel, work, tScale, eScale float64) []Sample {
	t.Helper()
	var out []Sample
	for _, cores := range []int{1, nm.Spec.Cores} {
		for _, f := range nm.Spec.Frequencies {
			cfg := hwsim.Config{Cores: cores, Frequency: f}
			pred, err := nm.Predict(cfg, work)
			if err != nil {
				t.Fatalf("predict %v: %v", cfg, err)
			}
			out = append(out, Sample{
				Cores:        cores,
				GHz:          f.GHzValue(),
				Work:         work,
				TimeSeconds:  float64(pred.Time) * tScale,
				EnergyJoules: float64(pred.Energy) * eScale,
			})
		}
	}
	return out
}

// A refit against observations that are an exact scale of the base
// predictions must recover both scales (EP is CPU-bound, so the time
// correction via InstructionsPerUnit is exact) and drive the residual
// error to ~0.
func TestRefitRecoversExactScales(t *testing.T) {
	base, err := testSuite().Model("ep", hwsim.ARMCortexA9())
	if err != nil {
		t.Fatal(err)
	}
	samples := shiftedSamples(t, base, 5e7, 1.5, 1.3)
	refit, q, err := Refit(base, samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.TimeScale-1.5) > 1e-9 {
		t.Errorf("time scale = %v, want 1.5", q.TimeScale)
	}
	if q.TimeR2 < 0.999 || q.EnergyR2 < 0.999 {
		t.Errorf("fit r2 = (%v, %v), want ~1", q.TimeR2, q.EnergyR2)
	}
	if q.MeanRelErrAfter > 1e-9 {
		t.Errorf("residual error after exact-scale refit = %v, want ~0", q.MeanRelErrAfter)
	}
	if q.MeanRelErrAfter >= q.MeanRelErrBefore {
		t.Errorf("refit did not improve: before %v, after %v", q.MeanRelErrBefore, q.MeanRelErrAfter)
	}
	// The refit model predicts the shifted truth.
	cfg := hwsim.Config{Cores: base.Spec.Cores, Frequency: base.Spec.FMax()}
	pb, _ := base.Predict(cfg, 5e7)
	pr, err := refit.Predict(cfg, 5e7)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(float64(pr.Time)-1.5*float64(pb.Time)) / (1.5 * float64(pb.Time)); rel > 1e-9 {
		t.Errorf("refit time off by %v", rel)
	}
	if rel := math.Abs(float64(pr.Energy)-1.3*float64(pb.Energy)) / (1.3 * float64(pb.Energy)); rel > 1e-9 {
		t.Errorf("refit energy off by %v", rel)
	}
	// The base model was not mutated: its power maps and profile stand.
	pb2, _ := base.Predict(cfg, 5e7)
	if pb2.Time != pb.Time || pb2.Energy != pb.Energy {
		t.Error("Refit mutated the base model")
	}
}

func TestRefitRejectsDegenerateData(t *testing.T) {
	base, err := testSuite().Model("ep", hwsim.ARMCortexA9())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Refit(base, nil); !errors.Is(err, ErrDegenerateFit) {
		t.Errorf("empty samples: err = %v, want ErrDegenerateFit", err)
	}
	// Observations 1000x off imply a scale outside the sane bounds.
	wild := shiftedSamples(t, base, 5e7, 1000, 1000)
	if _, _, err := Refit(base, wild); !errors.Is(err, ErrDegenerateFit) {
		t.Errorf("wild scale: err = %v, want ErrDegenerateFit", err)
	}
}

// Ingest below the threshold stores samples without bumping; pushing
// drift past the threshold refits, bumps the workload version exactly
// once for identical repeat data ("unchanged" skip), and fires OnBump.
func TestRegistryIngestDriftAndBump(t *testing.T) {
	reg := NewRegistry(testSuite(), Options{RefitThreshold: 0.1, MinRefitSamples: 4})
	var events []BumpEvent
	reg.opts.OnBump = func(ev BumpEvent) { events = append(events, ev) }

	base, err := testSuite().Model("ep", hwsim.ARMCortexA9())
	if err != nil {
		t.Fatal(err)
	}
	// Accurate observations (on the AMD pair, so they do not dilute the
	// ARM pair's sample store below): no refit.
	amd, err := testSuite().Model("ep", hwsim.AMDOpteronK10())
	if err != nil {
		t.Fatal(err)
	}
	good := shiftedSamples(t, amd, 5e7, 1.0, 1.0)
	res, err := reg.Ingest("ep", "amd-opteron-k10", good[:4])
	if err != nil {
		t.Fatal(err)
	}
	if res.Refit || res.Version != 1 || res.Drift > 1e-9 {
		t.Fatalf("accurate ingest: %+v", res)
	}

	// Shifted observations: drift 50% >> 10%, refit and bump.
	shifted := shiftedSamples(t, base, 5e7, 1.5, 1.3)
	res, err = reg.Ingest("ep", "arm-cortex-a9", shifted)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Refit {
		t.Fatalf("shifted ingest did not refit: %+v", res)
	}
	if res.Version != 2 || reg.Version("ep") != 2 {
		t.Errorf("version = %d / %d, want 2", res.Version, reg.Version("ep"))
	}
	if res.Hash == "" || res.Quality == nil {
		t.Errorf("refit result missing hash/quality: %+v", res)
	}
	if res.Drift >= res.DriftBefore {
		t.Errorf("drift did not improve: before %v after %v", res.DriftBefore, res.Drift)
	}
	if len(events) != 1 || events[0].OldVersion != 1 || events[0].NewVersion != 2 ||
		events[0].NewGeneration != events[0].OldGeneration+1 {
		t.Fatalf("events = %+v", events)
	}
	if reg.Generation() != 2 {
		t.Errorf("generation = %d, want 2", reg.Generation())
	}

	// The same shifted data again: the active model now matches it, so
	// drift stays under the threshold — no churn.
	res, err = reg.Ingest("ep", "arm-cortex-a9", shifted)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refit || res.Version != 2 {
		t.Fatalf("repeat ingest churned: %+v", res)
	}
	if len(events) != 1 {
		t.Fatalf("repeat ingest fired OnBump: %d events", len(events))
	}

	// The registry's Space and Model now serve the override.
	sp, err := reg.Space("ep")
	if err != nil {
		t.Fatal(err)
	}
	cfg := hwsim.Config{Cores: base.Spec.Cores, Frequency: base.Spec.FMax()}
	pb, _ := base.Predict(cfg, 5e7)
	po, err := sp.ARM.Predict(cfg, 5e7)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(float64(po.Time)-1.5*float64(pb.Time)) / (1.5 * float64(pb.Time)); rel > 1e-6 {
		t.Errorf("Space does not serve the refit model (time off by %v)", rel)
	}
	nm, err := reg.Model("ep", hwsim.ARMCortexA9())
	if err != nil {
		t.Fatal(err)
	}
	pm, _ := nm.Predict(cfg, 5e7)
	if pm.Time != po.Time {
		t.Error("Model and Space disagree on the override")
	}

	// Statuses reports both pairs; the ARM one carries the refit.
	sts := reg.Statuses()
	if len(sts) != 2 {
		t.Fatalf("statuses = %+v", sts)
	}
	var arm *Status
	for i := range sts {
		if sts[i].Node == "arm-cortex-a9" {
			arm = &sts[i]
		}
	}
	if arm == nil || arm.Source != "refit" || arm.Refits != 1 || arm.Version != 2 {
		t.Errorf("arm status = %+v", arm)
	}
}

func TestRegistryIngestRejectsBadPairsAndSamples(t *testing.T) {
	reg := NewRegistry(testSuite(), Options{})
	if _, err := reg.Ingest("ep", "intel-xeon", []Sample{{Cores: 1, GHz: 1, Work: 1, TimeSeconds: 1, EnergyJoules: 1}}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node: err = %v, want ErrUnknownNode", err)
	}
	bad := []Sample{{Cores: 99, GHz: 1.0, Work: 5e7, TimeSeconds: 1, EnergyJoules: 1}}
	if _, err := reg.Ingest("ep", "arm-cortex-a9", bad); !errors.Is(err, ErrBadSample) {
		t.Errorf("bad config: err = %v, want ErrBadSample", err)
	}
	if _, err := reg.Ingest("ep", "arm-cortex-a9", nil); !errors.Is(err, ErrBadSample) {
		t.Errorf("no samples: err = %v, want ErrBadSample", err)
	}
	// A rejected batch must store nothing.
	for _, st := range reg.Statuses() {
		if st.Samples != 0 {
			t.Errorf("rejected batch left %d samples stored", st.Samples)
		}
	}
}

// The sample store and drift window stay bounded no matter how much is
// ingested.
func TestRegistryBoundsStores(t *testing.T) {
	reg := NewRegistry(testSuite(), Options{
		// Threshold high enough that these accurate samples never refit.
		RefitThreshold: 10, MaxSamples: 10, DriftWindow: 4,
	})
	base, err := testSuite().Model("ep", hwsim.ARMCortexA9())
	if err != nil {
		t.Fatal(err)
	}
	good := shiftedSamples(t, base, 5e7, 1.0, 1.0)
	for i := 0; i < 5; i++ {
		res, err := reg.Ingest("ep", "arm-cortex-a9", good)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stored > 10 {
			t.Fatalf("store grew past MaxSamples: %d", res.Stored)
		}
	}
	k := Key{"ep", "arm-cortex-a9"}
	reg.mu.Lock()
	win := len(reg.trackers[k].window)
	reg.mu.Unlock()
	if win > 4 {
		t.Errorf("drift window grew past bound: %d", win)
	}
}

// Snapshot round trip: save, load into a fresh registry, byte-equal
// re-save, and tamper detection via the content hash.
func TestSnapshotRoundTripAndTamperDetection(t *testing.T) {
	reg := NewRegistry(testSuite(), Options{RefitThreshold: 0.1, MinRefitSamples: 4})
	base, err := testSuite().Model("ep", hwsim.ARMCortexA9())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Ingest("ep", "arm-cortex-a9", shiftedSamples(t, base, 5e7, 1.5, 1.3)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "profiles.json")
	if err := reg.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	fresh := NewRegistry(testSuite(), Options{})
	if err := fresh.LoadSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if fresh.Version("ep") != 2 {
		t.Errorf("loaded version = %d, want 2", fresh.Version("ep"))
	}
	want := reg.Overrides()
	got := fresh.Overrides()
	if len(got) != 1 || got[0].Hash != want[0].Hash || got[0].Source != "snapshot" {
		t.Fatalf("loaded overrides = %+v, want hash %s", got, want[0].Hash)
	}
	// The loaded model predicts identically to the refit one.
	cfg := hwsim.Config{Cores: base.Spec.Cores, Frequency: base.Spec.FMax()}
	pw, _ := want[0].Model().Predict(cfg, 5e7)
	pg, err := got[0].Model().Predict(cfg, 5e7)
	if err != nil {
		t.Fatal(err)
	}
	if pw.Time != pg.Time || pw.Energy != pg.Energy {
		t.Error("loaded model predicts differently from the saved one")
	}

	// Tampering with the persisted model must fail the hash check.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(raw, []byte(`"instructions_per_unit"`), []byte(`"instructions_per_unit_x"`), 1)
	if bytes.Equal(tampered, raw) {
		// Field name differs from expectation; flip a digit instead.
		tampered = bytes.Replace(raw, []byte("1"), []byte("2"), 1)
	}
	if err := NewRegistry(testSuite(), Options{}).LoadSnapshot(bytes.NewReader(tampered)); err == nil {
		t.Error("tampered snapshot loaded without error")
	}

	// Missing file is os.ErrNotExist, the first-start signal.
	if err := fresh.LoadSnapshotFile(filepath.Join(dir, "absent.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want ErrNotExist", err)
	}
}

// A nil-base registry (fitmodel's round-trip shape) serves loaded
// overrides and rejects everything else.
func TestNilBaseRegistryServesOverridesOnly(t *testing.T) {
	src := NewRegistry(testSuite(), Options{})
	base, err := testSuite().Model("ep", hwsim.ARMCortexA9())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, "ep", "arm-cortex-a9", base, "fitmodel"); err != nil {
		t.Fatal(err)
	}
	_ = src

	reg := NewRegistry(nil, Options{})
	if err := reg.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	nm, err := reg.Model("ep", hwsim.ARMCortexA9())
	if err != nil {
		t.Fatal(err)
	}
	if nm.Spec.Name != "arm-cortex-a9" {
		t.Errorf("loaded model spec = %q", nm.Spec.Name)
	}
	if _, err := reg.Model("ep", hwsim.AMDOpteronK10()); err == nil {
		t.Error("nil-base registry served a pair it has no override for")
	}
	if _, err := reg.Space("ep"); err == nil {
		t.Error("nil-base registry served a Space")
	}
}

// TestStateHashTracksProfileState: equal profile state → equal hash;
// any bump → different hash. Snapshot compatibility rides on this.
func TestStateHashTracksProfileState(t *testing.T) {
	a := NewRegistry(testSuite(), Options{})
	b := NewRegistry(testSuite(), Options{})
	if a.StateHash() != b.StateHash() {
		t.Fatal("fresh registries must share a state hash")
	}
	base := a.StateHash()
	nm, err := testSuite().Model("ep", hwsim.ARMCortexA9())
	if err != nil {
		t.Fatal(err)
	}
	nm.Power.Idle *= 1.07
	if _, err := a.Install("ep", nm.Spec.Name, nm, "install"); err != nil {
		t.Fatal(err)
	}
	if a.StateHash() == base {
		t.Fatal("installing an override must change the state hash")
	}
	if _, err := b.Install("ep", nm.Spec.Name, nm, "install"); err != nil {
		t.Fatal(err)
	}
	if a.StateHash() != b.StateHash() {
		t.Fatal("identical installs must converge to the same state hash")
	}
}

// TestProfileDigestNamesModels: the digest tells apart two registries at
// one version whose models differ, agrees where they match, and moves
// only with the workload's own overrides and base source.
func TestProfileDigestNamesModels(t *testing.T) {
	scaled := func(scale float64) model.NodeModel {
		nm, err := testSuite().Model("ep", hwsim.ARMCortexA9())
		if err != nil {
			t.Fatal(err)
		}
		nm.Profile.InstructionsPerUnit *= scale
		return nm
	}
	install := func(r *Registry, workload string, nm model.NodeModel) {
		t.Helper()
		if _, err := r.Install(workload, nm.Spec.Name, nm, "install"); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := NewRegistry(testSuite(), Options{}), NewRegistry(testSuite(), Options{}), NewRegistry(testSuite(), Options{})
	v, base := a.Profile("ep")
	if _, d := b.Profile("ep"); v != 1 || d != base {
		t.Fatalf("fresh registries: version %d, digests %x and %x", v, base, d)
	}
	other := NewRegistry(experiments.NewSuite(experiments.SuiteOptions{Seed: 7}), Options{})
	if _, d := other.Profile("ep"); d == base {
		t.Fatal("another base fingerprint must change the digest")
	}
	install(a, "ep", scaled(1.07))
	install(b, "ep", scaled(1.07))
	install(c, "ep", scaled(1.09))
	va, da := a.Profile("ep")
	vb, db := b.Profile("ep")
	vc, dc := c.Profile("ep")
	if va != 2 || vb != 2 || vc != 2 || da == base {
		t.Fatalf("after one install: versions %d/%d/%d, digest %x (base %x)", va, vb, vc, da, base)
	}
	if da != db {
		t.Fatal("identical installs must converge to the same digest")
	}
	if dc == da {
		t.Fatal("another model at the same version must change the digest")
	}
	install(a, "memcached", scaled(1.07))
	if _, d := a.Profile("ep"); d != da {
		t.Fatal("another workload's install must not change the digest")
	}
}
