package cluster

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"heteromix/internal/hwsim"
	"heteromix/internal/model"
	"heteromix/internal/workloads"
)

var (
	modelsMu sync.Mutex
	models   = map[string]model.NodeModel{}
)

func nodeModel(t testing.TB, spec hwsim.NodeSpec, workload string) model.NodeModel {
	t.Helper()
	key := spec.Name + "/" + workload
	modelsMu.Lock()
	defer modelsMu.Unlock()
	if nm, ok := models[key]; ok {
		return nm
	}
	w, err := workloads.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := model.Build(spec, w, model.BuildOptions{Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	models[key] = nm
	return nm
}

func epSpace(t testing.TB) Space {
	return Space{
		ARM: nodeModel(t, hwsim.ARMCortexA9(), "ep"),
		AMD: nodeModel(t, hwsim.AMDOpteronK10(), "ep"),
	}
}

func memcachedSpace(t testing.TB) Space {
	return Space{
		ARM: nodeModel(t, hwsim.ARMCortexA9(), "memcached"),
		AMD: nodeModel(t, hwsim.AMDOpteronK10(), "memcached"),
	}
}

func maxCfg(spec hwsim.NodeSpec) hwsim.Config {
	return hwsim.Config{Cores: spec.Cores, Frequency: spec.FMax()}
}

func TestGroupSwitches(t *testing.T) {
	nm := nodeModel(t, hwsim.ARMCortexA9(), "ep")
	cases := []struct {
		nodes, want int
	}{{0, 0}, {1, 1}, {8, 1}, {9, 2}, {16, 2}, {128, 16}}
	for _, c := range cases {
		g := Group{Model: nm, Nodes: c.nodes, Config: maxCfg(nm.Spec), NeedsSwitch: true}
		if got := g.Switches(); got != c.want {
			t.Errorf("switches(%d nodes) = %d, want %d", c.nodes, got, c.want)
		}
	}
	noSwitch := Group{Model: nm, Nodes: 9, Config: maxCfg(nm.Spec)}
	if noSwitch.Switches() != 0 {
		t.Error("group without NeedsSwitch should have 0 switches")
	}
}

// The 8:1 substitution arithmetic of the paper's footnote: 8 ARM nodes
// plus their switch share draw the same peak power as one AMD node.
func TestSubstitutionRatioPeakPower(t *testing.T) {
	arm := nodeModel(t, hwsim.ARMCortexA9(), "ep")
	amd := nodeModel(t, hwsim.AMDOpteronK10(), "ep")
	g8 := Group{Model: arm, Nodes: 8, Config: maxCfg(arm.Spec), NeedsSwitch: true}
	g1 := Group{Model: amd, Nodes: 1, Config: maxCfg(amd.Spec)}
	if rel := math.Abs(float64(g8.PeakPower()-g1.PeakPower())) / float64(g1.PeakPower()); rel > 0.02 {
		t.Errorf("8 ARM + switch = %v, 1 AMD = %v; want equal (8:1 ratio)",
			g8.PeakPower(), g1.PeakPower())
	}
}

func TestEvaluateValidation(t *testing.T) {
	s := epSpace(t)
	groups := s.Groups(Configuration{
		ARM: TypeConfig{Nodes: 2, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 1, Config: maxCfg(s.AMD.Spec)},
	})
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Evaluate(groups, w); err == nil {
			t.Errorf("work %v should error", w)
		}
	}
	if _, err := Evaluate([]Group{{Nodes: 0}}, 1e6); err == nil {
		t.Error("empty cluster should error")
	}
	bad := s.Groups(Configuration{ARM: TypeConfig{Nodes: 1, Config: hwsim.Config{Cores: 99}}})
	if _, err := Evaluate(bad, 1e6); err == nil {
		t.Error("invalid group config should error")
	}
	if _, err := Evaluate([]Group{{Nodes: -1}}, 1e6); err == nil {
		t.Error("negative node count should error")
	}
}

// The matching property (paper Eq. 1): each group, run alone on its share
// of the work, finishes at the evaluation's time.
func TestMatchingEqualizesFinishTimes(t *testing.T) {
	s := epSpace(t)
	cfg := Configuration{
		ARM: TypeConfig{Nodes: 16, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 14, Config: maxCfg(s.AMD.Spec)},
	}
	w := 50e6
	ev, err := Evaluate(s.Groups(cfg), w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.Work[0]+ev.Work[1]-w) > 1e-6*w {
		t.Errorf("work not conserved: %v + %v != %v", ev.Work[0], ev.Work[1], w)
	}
	predARM, err := s.ARM.Predict(cfg.ARM.Config, ev.Work[0]/16)
	if err != nil {
		t.Fatal(err)
	}
	predAMD, err := s.AMD.Predict(cfg.AMD.Config, ev.Work[1]/14)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(float64(predARM.Time-predAMD.Time)) / float64(ev.Time); rel > 1e-9 {
		t.Errorf("finish times differ: ARM %v, AMD %v", predARM.Time, predAMD.Time)
	}
	if rel := math.Abs(float64(predARM.Time-ev.Time)) / float64(ev.Time); rel > 1e-9 {
		t.Errorf("group time %v != evaluation time %v", predARM.Time, ev.Time)
	}
}

// Property: matching holds for arbitrary node counts.
func TestMatchingPropertyRandomMixes(t *testing.T) {
	s := epSpace(t)
	f := func(a, d uint8) bool {
		na := 1 + int(a)%32
		nd := 1 + int(d)%16
		cfg := Configuration{
			ARM: TypeConfig{Nodes: na, Config: maxCfg(s.ARM.Spec)},
			AMD: TypeConfig{Nodes: nd, Config: maxCfg(s.AMD.Spec)},
		}
		ev, err := Evaluate(s.Groups(cfg), 1e7)
		if err != nil {
			return false
		}
		pa, err1 := s.ARM.Predict(cfg.ARM.Config, ev.Work[0]/float64(na))
		pd, err2 := s.AMD.Predict(cfg.AMD.Config, ev.Work[1]/float64(nd))
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(float64(pa.Time-pd.Time)) < 1e-9*float64(ev.Time) &&
			math.Abs(ev.Work[0]+ev.Work[1]-1e7) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Adding nodes of either type strictly reduces service time.
func TestMoreNodesFaster(t *testing.T) {
	s := epSpace(t)
	w := 50e6
	base, err := s.Evaluate(Configuration{
		ARM: TypeConfig{Nodes: 8, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 4, Config: maxCfg(s.AMD.Spec)},
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	moreARM, err := s.Evaluate(Configuration{
		ARM: TypeConfig{Nodes: 16, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 4, Config: maxCfg(s.AMD.Spec)},
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	if moreARM.Time >= base.Time {
		t.Errorf("adding ARM nodes should speed up: %v vs %v", moreARM.Time, base.Time)
	}
}

// A heterogeneous mix is faster than either of its homogeneous halves.
func TestMixFasterThanParts(t *testing.T) {
	s := epSpace(t)
	w := 50e6
	armOnly, err := s.Evaluate(Configuration{ARM: TypeConfig{Nodes: 10, Config: maxCfg(s.ARM.Spec)}}, w)
	if err != nil {
		t.Fatal(err)
	}
	amdOnly, err := s.Evaluate(Configuration{AMD: TypeConfig{Nodes: 10, Config: maxCfg(s.AMD.Spec)}}, w)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := s.Evaluate(Configuration{
		ARM: TypeConfig{Nodes: 10, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 10, Config: maxCfg(s.AMD.Spec)},
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	if mix.Time >= armOnly.Time || mix.Time >= amdOnly.Time {
		t.Errorf("mix %v should beat ARM-only %v and AMD-only %v",
			mix.Time, armOnly.Time, amdOnly.Time)
	}
	// Throughputs add exactly: 1/T_mix = 1/T_arm + 1/T_amd.
	want := 1/float64(armOnly.Time) + 1/float64(amdOnly.Time)
	if got := 1 / float64(mix.Time); math.Abs(got-want) > 1e-9*want {
		t.Errorf("throughput additivity violated: %v vs %v", got, want)
	}
}

// Footnote 2: the 10x10 space has 36,380 configurations.
func TestSpaceSizeFootnote2(t *testing.T) {
	s := epSpace(t)
	if got := s.SpaceSize(10, 10); got != 36380 {
		t.Errorf("space size = %d, want 36380", got)
	}
}

func TestEnumerateMatchesSpaceSize(t *testing.T) {
	s := epSpace(t)
	pts, err := s.Enumerate(2, 2, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	want := s.SpaceSize(2, 2) // 2*20*2*18 + 2*20 + 2*18 = 1516
	if len(pts) != want {
		t.Errorf("enumerated %d points, want %d", len(pts), want)
	}
	// Every point has positive time and energy, and a sane ARM share.
	for _, p := range pts {
		if p.Time <= 0 || p.Energy <= 0 {
			t.Fatalf("point %v has non-positive outcome", p.Config)
		}
		if p.WorkARM < 0 || p.WorkARM > 1 {
			t.Fatalf("point %v has ARM share %v", p.Config, p.WorkARM)
		}
		if p.Config.ARM.Nodes == 0 && p.WorkARM != 0 {
			t.Fatalf("AMD-only point has ARM work %v", p.WorkARM)
		}
		if p.Config.AMD.Nodes == 0 && p.WorkARM != 1 {
			t.Fatalf("ARM-only point has ARM share %v", p.WorkARM)
		}
	}
}

func TestEnumerateRejectsEmptySpace(t *testing.T) {
	s := epSpace(t)
	if _, err := s.Enumerate(0, 0, 1e6); err == nil {
		t.Error("empty space should error")
	}
	if _, err := s.Enumerate(-1, 2, 1e6); err == nil {
		t.Error("negative bound should error")
	}
}

// Figure 6's floor: 128 ARM nodes (100 Mbps each) cannot finish a 50k x
// 1 KiB memcached job faster than ~30 ms, while mixes can.
func TestMemcachedARMOnlyDeadlineFloor(t *testing.T) {
	s := memcachedSpace(t)
	armOnly, err := s.Evaluate(Configuration{
		ARM: TypeConfig{Nodes: 128, Config: maxCfg(s.ARM.Spec)},
	}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if ms := armOnly.Time.Millis(); ms < 28 || ms > 36 {
		t.Errorf("128-ARM memcached job time = %vms, want ~31ms (Figure 6 floor)", ms)
	}
	mix, err := s.Evaluate(Configuration{
		ARM: TypeConfig{Nodes: 16, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 14, Config: maxCfg(s.AMD.Spec)},
	}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if mix.Time >= armOnly.Time {
		t.Errorf("16:14 mix (%v) should beat 128 ARM (%v)", mix.Time, armOnly.Time)
	}
}

func TestConfigurationString(t *testing.T) {
	s := epSpace(t)
	cfg := Configuration{
		ARM: TypeConfig{Nodes: 16, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 14, Config: maxCfg(s.AMD.Spec)},
	}
	got := cfg.String()
	if got != "ARM 16:AMD 14 arm[c4@1.40GHz] amd[c6@2.10GHz]" {
		t.Errorf("String() = %q", got)
	}
	armOnly := Configuration{ARM: TypeConfig{Nodes: 8, Config: maxCfg(s.ARM.Spec)}}
	if got := armOnly.String(); got != "ARM 8:AMD 0 arm[c4@1.40GHz]" {
		t.Errorf("ARM-only String() = %q", got)
	}
}

// Switch energy is charged per started group of 8 ARM nodes.
func TestSwitchEnergyIncluded(t *testing.T) {
	s := epSpace(t)
	w := 50e6
	with, err := s.Evaluate(Configuration{ARM: TypeConfig{Nodes: 8, Config: maxCfg(s.ARM.Spec)}}, w)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct: 8 nodes' energy + 20 W * T.
	pred, err := s.ARM.Predict(maxCfg(s.ARM.Spec), w/8)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(pred.Energy)*8 + 20*float64(with.Time)
	if rel := math.Abs(float64(with.Energy)-want) / want; rel > 1e-9 {
		t.Errorf("energy = %v, want %v (nodes + switch)", with.Energy, want)
	}
}

func BenchmarkEvaluateMix(b *testing.B) {
	s := epSpace(b)
	cfg := Configuration{
		ARM: TypeConfig{Nodes: 16, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 14, Config: maxCfg(s.AMD.Spec)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(cfg, 50e6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumerate10x10(b *testing.B) {
	s := epSpace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := s.Enumerate(10, 10, 50e6)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 36380 {
			b.Fatalf("space size %d", len(pts))
		}
	}
}
