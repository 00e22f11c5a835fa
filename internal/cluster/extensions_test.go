package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"heteromix/internal/hwsim"
	"heteromix/internal/pareto"
)

// --- Pruning ---

func TestPrunedNodeConfigsSubsetAndNonEmpty(t *testing.T) {
	for _, nm := range []string{"arm", "amd"} {
		s := epSpace(t)
		m := s.ARM
		if nm == "amd" {
			m = s.AMD
		}
		pruned, err := PrunedNodeConfigs(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(pruned) == 0 {
			t.Fatalf("%s: pruning removed every configuration", nm)
		}
		if len(pruned) >= m.Spec.ConfigCount() {
			t.Errorf("%s: pruning kept all %d configurations", nm, len(pruned))
		}
		// Survivors are mutually non-dominated in (k, P).
		type kp struct{ k, p float64 }
		pts := make([]kp, len(pruned))
		for i, cfg := range pruned {
			pred, err := m.Predict(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			pts[i] = kp{float64(pred.Time), float64(pred.AvgPower)}
		}
		for i := range pts {
			for j := range pts {
				if i == j {
					continue
				}
				if pts[j].k <= pts[i].k && pts[j].p <= pts[i].p &&
					(pts[j].k < pts[i].k || pts[j].p < pts[i].p) {
					t.Errorf("%s: surviving config %d dominated by %d", nm, i, j)
				}
			}
		}
	}
}

// The pruned space's Pareto frontier equals the full space's — the
// correctness property of the reduction.
func TestPrunedFrontierEqualsFullFrontier(t *testing.T) {
	for _, workload := range []string{"ep", "memcached"} {
		s := Space{
			ARM: nodeModel(t, hwsim.ARMCortexA9(), workload),
			AMD: nodeModel(t, hwsim.AMDOpteronK10(), workload),
		}
		w := 50e6
		if workload == "memcached" {
			w = 50e3
		}
		full, err := s.Enumerate(4, 4, w)
		if err != nil {
			t.Fatal(err)
		}
		prunedPts, stats, err := s.EnumeratePruned(4, 4, w)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Reduction() <= 1 {
			t.Errorf("%s: no reduction (%+v)", workload, stats)
		}
		if stats.PrunedSpace != len(prunedPts) {
			t.Errorf("%s: stats say %d points, got %d", workload, stats.PrunedSpace, len(prunedPts))
		}

		frFull, err := pareto.Frontier(toTE(full))
		if err != nil {
			t.Fatal(err)
		}
		frPruned, err := pareto.Frontier(toTE(prunedPts))
		if err != nil {
			t.Fatal(err)
		}
		if len(frFull) != len(frPruned) {
			t.Fatalf("%s: frontier sizes differ: full %d, pruned %d",
				workload, len(frFull), len(frPruned))
		}
		for i := range frFull {
			if math.Abs(frFull[i].Time-frPruned[i].Time) > 1e-12*frFull[i].Time ||
				math.Abs(frFull[i].Energy-frPruned[i].Energy) > 1e-12*frFull[i].Energy {
				t.Errorf("%s: frontier point %d differs: full (%v,%v) pruned (%v,%v)",
					workload, i, frFull[i].Time, frFull[i].Energy,
					frPruned[i].Time, frPruned[i].Energy)
			}
		}
	}
}

func toTE(points []Point) []pareto.TE {
	tes := make([]pareto.TE, len(points))
	for i, p := range points {
		tes[i] = pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy), Index: i}
	}
	return tes
}

func TestMostEfficientPerNode(t *testing.T) {
	s := epSpace(t)
	cfg, k, p, err := MostEfficientPerNode(s.ARM)
	if err != nil {
		t.Fatal(err)
	}
	if k <= 0 || p <= 0 {
		t.Errorf("operating point (%v, %v) invalid", k, p)
	}
	if err := cfg.ValidateFor(s.ARM.Spec); err != nil {
		t.Errorf("returned config invalid: %v", err)
	}
}

// --- Splits ---

func TestSplitString(t *testing.T) {
	cases := map[Split]string{
		SplitMatching:          "matching",
		SplitProportionalNodes: "proportional-to-nodes",
		SplitEqualGroups:       "equal-groups",
		Split(9):               "split(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestMatchingSplitMatchesEvaluate(t *testing.T) {
	s := epSpace(t)
	groups := s.Groups(Configuration{
		ARM: TypeConfig{Nodes: 16, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 14, Config: maxCfg(s.AMD.Spec)},
	})
	w := 50e6
	direct, err := Evaluate(groups, w)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := SplitMatching.Fractions(groups)
	if err != nil {
		t.Fatal(err)
	}
	viaSplit, err := EvaluateSplit(groups, w, fr)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(float64(direct.Time-viaSplit.Time)) / float64(direct.Time); rel > 1e-9 {
		t.Errorf("times differ: %v vs %v", direct.Time, viaSplit.Time)
	}
	if rel := math.Abs(float64(direct.Energy-viaSplit.Energy)) / float64(direct.Energy); rel > 1e-9 {
		t.Errorf("energies differ: %v vs %v", direct.Energy, viaSplit.Energy)
	}
}

// The matching split minimizes both time and energy over arbitrary
// splits — the claim behind the paper's technique, made testable by the
// explicit idle-wait accounting of EvaluateSplit.
func TestMatchingBeatsRandomSplits(t *testing.T) {
	s := epSpace(t)
	groups := s.Groups(Configuration{
		ARM: TypeConfig{Nodes: 8, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 2, Config: maxCfg(s.AMD.Spec)},
	})
	w := 50e6
	matchFr, err := SplitMatching.Fractions(groups)
	if err != nil {
		t.Fatal(err)
	}
	matched, err := EvaluateSplit(groups, w, matchFr)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.Float64()
		fr := []float64{a, 1 - a}
		ev, err := EvaluateSplit(groups, w, fr)
		if err != nil {
			return false
		}
		return float64(ev.Time) >= float64(matched.Time)*(1-1e-9) &&
			float64(ev.Energy) >= float64(matched.Energy)*(1-1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCompareSplitsOrdering(t *testing.T) {
	s := epSpace(t)
	groups := s.Groups(Configuration{
		ARM: TypeConfig{Nodes: 16, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 2, Config: maxCfg(s.AMD.Spec)},
	})
	results, err := CompareSplits(groups, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	matched := results[SplitMatching]
	for _, policy := range []Split{SplitProportionalNodes, SplitEqualGroups} {
		ev := results[policy]
		if float64(ev.Time) < float64(matched.Time)*(1-1e-9) {
			t.Errorf("%v finished faster than matching (%v vs %v)", policy, ev.Time, matched.Time)
		}
		if float64(ev.Energy) < float64(matched.Energy)*(1-1e-9) {
			t.Errorf("%v used less energy than matching (%v vs %v)", policy, ev.Energy, matched.Energy)
		}
	}
	// On this lopsided cluster (16 slow ARM vs 2 fast AMD per-node), the
	// node-proportional split badly overloads the ARM side and must be
	// strictly worse than matching.
	if float64(results[SplitProportionalNodes].Time) < float64(matched.Time)*1.05 {
		t.Error("proportional split should be clearly slower on an asymmetric cluster")
	}
}

func TestEvaluateSplitValidation(t *testing.T) {
	s := epSpace(t)
	groups := s.Groups(Configuration{
		ARM: TypeConfig{Nodes: 2, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 1, Config: maxCfg(s.AMD.Spec)},
	})
	cases := []struct {
		name string
		w    float64
		fr   []float64
	}{
		{"zero work", 0, []float64{0.5, 0.5}},
		{"nan work", math.NaN(), []float64{0.5, 0.5}},
		{"wrong count", 1e6, []float64{1}},
		{"negative fraction", 1e6, []float64{1.5, -0.5}},
		{"sum not one", 1e6, []float64{0.2, 0.2}},
	}
	for _, c := range cases {
		if _, err := EvaluateSplit(groups, c.w, c.fr); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Work on a zero-node group.
	armOnly := s.Groups(Configuration{ARM: TypeConfig{Nodes: 2, Config: maxCfg(s.ARM.Spec)}})
	if _, err := EvaluateSplit(armOnly, 1e6, []float64{0.5, 0.5}); err == nil {
		t.Error("work on empty group should error")
	}
	// All work on one group is legal.
	if _, err := EvaluateSplit(armOnly, 1e6, []float64{1, 0}); err != nil {
		t.Errorf("single-group split should work: %v", err)
	}
}

func TestSplitFractionsErrors(t *testing.T) {
	if _, err := Split(9).Fractions(nil); err == nil {
		t.Error("unknown split should error")
	}
	if _, err := SplitMatching.Fractions([]Group{{Nodes: 0}}); err == nil {
		t.Error("no-throughput matching should error")
	}
	if _, err := SplitProportionalNodes.Fractions([]Group{{Nodes: 0}}); err == nil {
		t.Error("no-node proportional should error")
	}
	if _, err := SplitEqualGroups.Fractions([]Group{{Nodes: 0}}); err == nil {
		t.Error("no-group equal should error")
	}
}

func BenchmarkEnumeratePruned10x10(b *testing.B) {
	s := epSpace(b)
	b.ResetTimer()
	var stats PruneStats
	for i := 0; i < b.N; i++ {
		var err error
		_, stats, err = s.EnumeratePruned(10, 10, 50e6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.Reduction(), "space-reduction-x")
}
