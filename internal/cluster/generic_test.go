package cluster

import (
	"context"
	"errors"
	"math"
	"testing"

	"heteromix/internal/hwsim"
	"heteromix/internal/pareto"
)

func triTypes(t testing.TB, maxA9, maxA15, maxK10 int) []GroupType {
	return []GroupType{
		{Model: nodeModel(t, hwsim.ARMCortexA9(), "ep"), MaxNodes: maxA9, NeedsSwitch: true},
		{Model: nodeModel(t, hwsim.ARMCortexA15(), "ep"), MaxNodes: maxA15, NeedsSwitch: true},
		{Model: nodeModel(t, hwsim.AMDOpteronK10(), "ep"), MaxNodes: maxK10},
	}
}

func TestA15SpecValid(t *testing.T) {
	a15 := hwsim.ARMCortexA15()
	if err := a15.Validate(); err != nil {
		t.Fatal(err)
	}
	a9 := hwsim.ARMCortexA9()
	amd := hwsim.AMDOpteronK10()
	// The A15 slots between the paper's poles: faster core than the A9,
	// lower power than the AMD.
	if a15.FMax() <= a9.FMax() {
		t.Error("A15 should clock above the A9")
	}
	if a15.PeakPower() <= a9.PeakPower() {
		t.Error("A15 should draw more than the A9")
	}
	if a15.PeakPower() >= amd.PeakPower()/2 {
		t.Error("A15 should draw far less than the K10")
	}
	if a15.ISA != a9.ISA {
		t.Error("A15 shares the ARMv7-A ISA")
	}
}

func TestA15ModelBuildsAndOrdersSanely(t *testing.T) {
	a9 := nodeModel(t, hwsim.ARMCortexA9(), "ep")
	a15 := nodeModel(t, hwsim.ARMCortexA15(), "ep")
	amd := nodeModel(t, hwsim.AMDOpteronK10(), "ep")

	k9, _ := a9.TimePerUnit(maxCfg(a9.Spec))
	k15, _ := a15.TimePerUnit(maxCfg(a15.Spec))
	kAMD, _ := amd.TimePerUnit(maxCfg(amd.Spec))
	// Per-node speed: AMD > A15 > A9.
	if !(kAMD < k15 && k15 < k9) {
		t.Errorf("per-unit times should order AMD < A15 < A9: %v %v %v", kAMD, k15, k9)
	}
	// Energy efficiency: A9 > A15 > AMD.
	ppr9, _, _ := a9.PPR()
	ppr15, _, _ := a15.PPR()
	pprAMD, _, _ := amd.PPR()
	if !(ppr9 > ppr15 && ppr15 > pprAMD) {
		t.Errorf("PPR should order A9 > A15 > AMD: %v %v %v", ppr9, ppr15, pprAMD)
	}
}

func TestGenericSpaceSizeAndEnumeration(t *testing.T) {
	types := triTypes(t, 1, 1, 1)
	want := GenericSpaceSize(types)
	// (1*20+1)*(1*16+1)*(1*18+1) - 1 = 21*17*19 - 1 = 6782.
	if want != 6782 {
		t.Fatalf("GenericSpaceSize = %d, want 6782", want)
	}
	points, err := EnumerateGroups(types, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(points)) != want {
		t.Fatalf("enumerated %d points, want %d", len(points), want)
	}
	for _, p := range points {
		if p.Time <= 0 || p.Energy <= 0 {
			t.Fatalf("invalid point %+v", p)
		}
		total := 0
		for _, n := range p.Counts {
			total += n
		}
		if total == 0 {
			t.Fatal("all-absent configuration leaked into the output")
		}
		sum := 0.0
		for _, w := range p.Work {
			sum += w
		}
		if math.Abs(sum-50e6) > 1 {
			t.Fatalf("work not conserved: %v", sum)
		}
	}
}

// TestGenericTwoTypeMatchesSpace: the two-type space is the N=2 generic
// space in a different order. Every configuration the generic walk
// yields must carry exactly the bits the two-type enumeration gives it —
// time, energy and ARM work share — with and without switch energy.
func TestGenericTwoTypeMatchesSpace(t *testing.T) {
	for _, noSwitch := range []bool{false, true} {
		s := epSpace(t)
		s.NoSwitchEnergy = noSwitch
		types := []GroupType{
			{Model: s.ARM, MaxNodes: 3, NeedsSwitch: !noSwitch},
			{Model: s.AMD, MaxNodes: 3},
		}
		generic, err := EnumerateGroups(types, 50e6)
		if err != nil {
			t.Fatal(err)
		}
		twoType, err := s.Enumerate(3, 3, 50e6)
		if err != nil {
			t.Fatal(err)
		}
		if len(generic) != len(twoType) {
			t.Fatalf("noSwitch=%t: sizes differ: generic %d, two-type %d", noSwitch, len(generic), len(twoType))
		}
		byConfig := make(map[Configuration]Point, len(twoType))
		for _, p := range twoType {
			byConfig[p.Config] = p
		}
		for _, g := range generic {
			cfg := Configuration{
				ARM: TypeConfig{Nodes: g.Counts[0], Config: g.Configs[0]},
				AMD: TypeConfig{Nodes: g.Counts[1], Config: g.Configs[1]},
			}
			p, ok := byConfig[cfg]
			if !ok {
				t.Fatalf("noSwitch=%t: generic configuration %v missing from the two-type space", noSwitch, cfg)
			}
			delete(byConfig, cfg)
			share := g.Work[0] / (g.Work[0] + g.Work[1])
			if math.Float64bits(float64(g.Time)) != math.Float64bits(float64(p.Time)) ||
				math.Float64bits(float64(g.Energy)) != math.Float64bits(float64(p.Energy)) ||
				math.Float64bits(share) != math.Float64bits(p.WorkARM) {
				t.Fatalf("noSwitch=%t: %v: generic (%v, %v, %v) != two-type (%v, %v, %v)",
					noSwitch, cfg, g.Time, g.Energy, share, p.Time, p.Energy, p.WorkARM)
			}
		}
	}
}

// The tri-type frontier weakly dominates both two-type frontiers built
// from its subsets: adding a node type can only improve the tradeoff.
func TestTriTypeFrontierDominatesTwoType(t *testing.T) {
	types := triTypes(t, 2, 2, 2)
	tri, err := EnumerateGroups(types, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	noA15 := []GroupType{types[0], {Model: types[1].Model, MaxNodes: 0}, types[2]}
	duo, err := EnumerateGroups(noA15, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	triFr, err := pareto.Frontier(genericTE(tri))
	if err != nil {
		t.Fatal(err)
	}
	duoFr, err := pareto.Frontier(genericTE(duo))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range duoFr {
		te, ok := pareto.EnergyAtDeadline(triFr, d.Time)
		if !ok {
			t.Fatalf("tri-type space cannot meet deadline %v reachable by two-type", d.Time)
		}
		if te.Energy > d.Energy*(1+1e-9) {
			t.Errorf("tri-type frontier worse at deadline %v: %v vs %v", d.Time, te.Energy, d.Energy)
		}
	}
}

func TestGenericLabel(t *testing.T) {
	p := GenericPoint{Counts: []int{8, 4, 2}}
	got := p.Label([]string{"a9", "a15", "k10"})
	if got != "a9 8 : a15 4 : k10 2" {
		t.Errorf("Label = %q", got)
	}
	if got := p.Label(nil); got != "type0 8 : type1 4 : type2 2" {
		t.Errorf("unnamed Label = %q", got)
	}
	// Absent types are skipped, so the label names exactly the used mix.
	p = GenericPoint{Counts: []int{8, 0, 2}}
	if got := p.Label([]string{"a9", "a15", "k10"}); got != "a9 8 : k10 2" {
		t.Errorf("absent-skipping Label = %q", got)
	}
	p = GenericPoint{Counts: []int{0, 4, 0}}
	if got := p.Label([]string{"a9"}); got != "type1 4" {
		t.Errorf("short-names Label = %q", got)
	}
}

func TestGenericSpaceSizeSaturates(t *testing.T) {
	cfgs := make([]hwsim.Config, 20)
	// One enormous type saturates the per-type term.
	huge := []GroupType{{MaxNodes: math.MaxInt, Configs: cfgs}}
	if got := GenericSpaceSize(huge); got != math.MaxUint64 {
		t.Errorf("saturating size = %d, want MaxUint64", got)
	}
	// Types that individually fit but whose product overflows must
	// saturate too, not wrap to a small value.
	big := GroupType{MaxNodes: 1 << 40, Configs: cfgs}
	if got := GenericSpaceSize([]GroupType{big, big, big}); got != math.MaxUint64 {
		t.Errorf("product overflow size = %d, want MaxUint64", got)
	}
	// A large-but-exact case stays exact: (1+3*1)^2 - 1.
	one := make([]hwsim.Config, 1)
	small := []GroupType{{MaxNodes: 3, Configs: one}, {MaxNodes: 3, Configs: one}}
	if got := GenericSpaceSize(small); got != 15 {
		t.Errorf("exact size = %d, want 15", got)
	}
	// MaxNodes 0 contributes a factor of 1, not 1+0*len.
	if got := GenericSpaceSize([]GroupType{{MaxNodes: 0, Configs: cfgs}, {MaxNodes: 3, Configs: one}}); got != 3 {
		t.Errorf("zero-type size = %d, want 3", got)
	}
}

func TestEnumerateGroupsRefusesHugeSpaces(t *testing.T) {
	// Five real types at 4 nodes each: 81*65*73*81*73 - 1 ≈ 2.27e9
	// points, past the materialization bound but cheap to reject (the
	// guard fires before any evaluation).
	tri := triTypes(t, 4, 4, 4)
	types := []GroupType{tri[0], tri[1], tri[2], tri[0], tri[2]}
	if _, err := EnumerateGroups(types, 50e6); err == nil {
		t.Error("materializing a >2^31-point space should error")
	}
	g, err := NewGenericTable(types)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := g.FrontierCounted(context.Background(), 50e6, 2); err == nil {
		t.Error("the index-addressed parallel frontier over a >2^31-point space should error")
	}
}

// Streaming yields exactly EnumerateGroups's points in exactly its
// order; retained copies must survive the scratch-buffer reuse.
func TestGenericStreamingMatchesMaterialized(t *testing.T) {
	types := triTypes(t, 2, 2, 2)
	materialized, err := EnumerateGroups(types, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	err = EnumerateGroupsFunc(types, 50e6, func(p GenericPoint) bool {
		if i >= len(materialized) {
			t.Fatalf("stream yielded more than %d points", len(materialized))
		}
		if !genericPointsEqual(p, materialized[i]) {
			t.Fatalf("stream point %d = %+v, want %+v", i, p, materialized[i])
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(materialized) {
		t.Fatalf("stream yielded %d points, want %d", i, len(materialized))
	}

	// Early stop is honored and is not an error.
	n := 0
	err = EnumerateGroupsFunc(types, 50e6, func(GenericPoint) bool {
		n++
		return n < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("early stop after %d points, want 10", n)
	}
}

// The parallel chunk-merged frontier equals the serial streamed one,
// TEs and payloads, for every worker count.
func TestGenericParallelMatchesSerial(t *testing.T) {
	types := triTypes(t, 3, 2, 3)
	serialPts, serialTEs, err := GenericFrontierOf(types, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenericTable(types)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		pts, tes, _, err := g.FrontierCounted(context.Background(), 50e6, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(tes) != len(serialTEs) {
			t.Fatalf("workers=%d: %d frontier points, want %d", workers, len(tes), len(serialTEs))
		}
		for i := range tes {
			if tes[i] != serialTEs[i] || !genericPointsEqual(pts[i], serialPts[i]) {
				t.Fatalf("workers=%d: frontier point %d = %+v, want %+v", workers, i, pts[i], serialPts[i])
			}
		}
	}
}

// The streamed online frontier equals the frontier computed from the
// fully materialized space, and the parallel chunk-merged frontier
// equals the serial one — all bit-identical.
func TestGenericFrontierMatchesMaterialized(t *testing.T) {
	types := triTypes(t, 2, 2, 2)
	pts, err := EnumerateGroups(types, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pareto.Frontier(genericTE(pts))
	if err != nil {
		t.Fatal(err)
	}
	fpts, ftes, err := GenericFrontierOf(types, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(ftes) != len(want) {
		t.Fatalf("streamed frontier has %d points, want %d", len(ftes), len(want))
	}
	for i := range want {
		if ftes[i].Time != want[i].Time || ftes[i].Energy != want[i].Energy {
			t.Fatalf("frontier point %d = (%v, %v), want (%v, %v)",
				i, ftes[i].Time, ftes[i].Energy, want[i].Time, want[i].Energy)
		}
		if !genericPointsEqual(fpts[ftes[i].Index], pts[want[i].Index]) {
			t.Fatalf("frontier payload %d = %+v, want %+v", i, fpts[ftes[i].Index], pts[want[i].Index])
		}
	}
	g, err := NewGenericTable(types)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ppts, ptes, _, err := g.FrontierCounted(context.Background(), 50e6, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(ptes) != len(ftes) {
			t.Fatalf("workers=%d: parallel frontier has %d points, want %d", workers, len(ptes), len(ftes))
		}
		for i := range ftes {
			if ptes[i] != ftes[i] || !genericPointsEqual(ppts[i], fpts[i]) {
				t.Fatalf("workers=%d: parallel frontier point %d differs", workers, i)
			}
		}
	}
}

// The domination-pruned generic space has exactly the full space's
// Pareto frontier — the proof-by-test behind PruneGroupTypes.
func TestGenericPrunedFrontierEqualsFull(t *testing.T) {
	types := triTypes(t, 3, 3, 3)
	pruned, err := PruneGroupTypes(types)
	if err != nil {
		t.Fatal(err)
	}
	full := GenericSpaceSize(types)
	reduced := GenericSpaceSize(pruned)
	if reduced >= full {
		t.Fatalf("pruning did not shrink the space: %d -> %d", full, reduced)
	}
	fullPts, fullTEs, err := GenericFrontierOf(types, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	prunedPts, prunedTEs, err := GenericFrontierOf(pruned, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(prunedTEs) != len(fullTEs) {
		t.Fatalf("pruned frontier has %d points, full has %d", len(prunedTEs), len(fullTEs))
	}
	for i := range fullTEs {
		if prunedTEs[i].Time != fullTEs[i].Time || prunedTEs[i].Energy != fullTEs[i].Energy {
			t.Fatalf("frontier point %d: pruned (%v, %v) vs full (%v, %v)",
				i, prunedTEs[i].Time, prunedTEs[i].Energy, fullTEs[i].Time, fullTEs[i].Energy)
		}
		if !genericPointsEqual(prunedPts[i], fullPts[i]) {
			t.Fatalf("frontier payload %d differs between pruned and full", i)
		}
	}
}

func TestGenericPointCloneAndSummary(t *testing.T) {
	types := triTypes(t, 1, 1, 1)
	var clone GenericPoint
	err := EnumerateGroupsFunc(types, 50e6, func(p GenericPoint) bool {
		// Keep a deep copy of the first tri-type mix; the scratch point
		// keeps mutating afterwards.
		total := 0
		for _, n := range p.Counts {
			if n > 0 {
				total++
			}
		}
		if total == 3 {
			clone = p.Clone()
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if clone.Counts == nil {
		t.Fatal("no tri-type mix found")
	}
	want := clone.Clone()
	// Re-running the stream to completion must not disturb the clone.
	if err := EnumerateGroupsFunc(types, 50e6, func(GenericPoint) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if !genericPointsEqual(clone, want) {
		t.Fatal("Clone shares storage with the scratch point")
	}

	s := clone.Summary([]string{"a9", "a15", "k10"})
	if len(s.Groups) != 3 {
		t.Fatalf("summary has %d groups, want 3", len(s.Groups))
	}
	fracs := 0.0
	for _, g := range s.Groups {
		if g.Nodes <= 0 || g.Cores <= 0 || g.GHz <= 0 {
			t.Fatalf("bad group summary %+v", g)
		}
		fracs += g.WorkFraction
	}
	if math.Abs(fracs-1) > 1e-12 {
		t.Fatalf("work fractions sum to %v", fracs)
	}
	if s.TimeSeconds != float64(clone.Time) || s.EnergyJoules != float64(clone.Energy) {
		t.Fatal("summary scalars differ from the point")
	}
	if s.Label != clone.Label([]string{"a9", "a15", "k10"}) {
		t.Fatalf("summary label %q", s.Label)
	}
}

func genericPointsEqual(a, b GenericPoint) bool {
	if a.Time != b.Time || a.Energy != b.Energy ||
		len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] || a.Configs[i] != b.Configs[i] || a.Work[i] != b.Work[i] {
			return false
		}
	}
	return true
}

func TestEnumerateGroupsErrors(t *testing.T) {
	if _, err := EnumerateGroups(nil, 1e6); err == nil {
		t.Error("no types should error")
	}
	s := epSpace(t)
	if _, err := EnumerateGroups([]GroupType{{Model: s.ARM, MaxNodes: -1}}, 1e6); err == nil {
		t.Error("negative MaxNodes should error")
	}
	if _, err := EnumerateGroups([]GroupType{{Model: s.ARM, MaxNodes: 0}}, 1e6); err == nil {
		t.Error("all-zero space should error")
	}
}

func genericTE(points []GenericPoint) []pareto.TE {
	tes := make([]pareto.TE, len(points))
	for i, p := range points {
		tes[i] = pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy), Index: i}
	}
	return tes
}

// TestFrontierCountedHonoursCancellation: a cancelled ctx stops the
// frontier before it builds or walks anything and surfaces ctx's error.
func TestFrontierCountedHonoursCancellation(t *testing.T) {
	g, err := NewGenericTable(triTypes(t, 4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		pts, _, _, err := g.FrontierCounted(ctx, 50e6, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: FrontierCounted on a cancelled ctx = %v, want context.Canceled", workers, err)
		}
		if pts != nil {
			t.Fatalf("workers=%d: cancelled frontier returned %d points", workers, len(pts))
		}
	}
}
