package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"heteromix/internal/hwsim"
	"heteromix/internal/workloads"
)

func TestTableEvaluateMatchesSpaceEvaluate(t *testing.T) {
	s := epSpace(t)
	tbl, err := s.NewTable()
	if err != nil {
		t.Fatal(err)
	}
	const w = 5e7
	for _, cfg := range []Configuration{
		{ARM: TypeConfig{Nodes: 3, Config: maxCfg(s.ARM.Spec)},
			AMD: TypeConfig{Nodes: 2, Config: maxCfg(s.AMD.Spec)}},
		{ARM: TypeConfig{Nodes: 9, Config: hwsim.Configs(s.ARM.Spec)[0]}},
		{AMD: TypeConfig{Nodes: 1, Config: hwsim.Configs(s.AMD.Spec)[2]}},
	} {
		got, err := tbl.Evaluate(cfg, w)
		if err != nil {
			t.Fatalf("Table.Evaluate(%v): %v", cfg, err)
		}
		want, err := s.Evaluate(cfg, w)
		if err != nil {
			t.Fatalf("Space.Evaluate(%v): %v", cfg, err)
		}
		if got.Time != want.Time || got.WorkARM != want.WorkARM {
			t.Errorf("%v: time/split (%v, %v) != direct (%v, %v)",
				cfg, got.Time, got.WorkARM, want.Time, want.WorkARM)
		}
		if !relClose(float64(got.Energy), float64(want.Energy), 1e-12) {
			t.Errorf("%v: energy %v != direct %v", cfg, got.Energy, want.Energy)
		}
	}
}

func TestTableEvaluateRejectsBadInput(t *testing.T) {
	s := epSpace(t)
	tbl, err := s.NewTable()
	if err != nil {
		t.Fatal(err)
	}
	valid := Configuration{ARM: TypeConfig{Nodes: 1, Config: maxCfg(s.ARM.Spec)}}
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := tbl.Evaluate(valid, w); err == nil {
			t.Errorf("Evaluate accepted work %v", w)
		}
	}
	for name, cfg := range map[string]Configuration{
		"no nodes":       {},
		"negative nodes": {ARM: TypeConfig{Nodes: -1, Config: maxCfg(s.ARM.Spec)}},
		"unknown config": {ARM: TypeConfig{Nodes: 1, Config: hwsim.Config{Cores: 99, Frequency: 1}}},
	} {
		if _, err := tbl.Evaluate(cfg, 1e4); err == nil {
			t.Errorf("%s: Evaluate accepted %v", name, cfg)
		}
	}
	if _, err := tbl.Evaluate(Configuration{
		AMD: TypeConfig{Nodes: 1, Config: hwsim.Config{Cores: 1, Frequency: 12345}},
	}, 1e4); err == nil || !strings.Contains(err.Error(), "not a configuration") {
		t.Errorf("unknown AMD config error = %v", err)
	}
}

func TestTableForEachMatchesEnumerate(t *testing.T) {
	s := memcachedSpace(t)
	tbl, err := s.NewTable()
	if err != nil {
		t.Fatal(err)
	}
	const w, maxARM, maxAMD = 5e4, 3, 2
	want, err := s.Enumerate(maxARM, maxAMD, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Size(maxARM, maxAMD); got != len(want) {
		t.Fatalf("Size = %d, want %d", got, len(want))
	}
	i := 0
	err = tbl.ForEach(maxARM, maxAMD, w, func(p Point) bool {
		if p != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, p, want[i])
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("ForEach yielded %d points, want %d", i, len(want))
	}
	// Early stop.
	n := 0
	if err := tbl.ForEach(maxARM, maxAMD, w, func(Point) bool { n++; return n < 5 }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early stop after %d points, want 5", n)
	}
	// Invalid bounds.
	if err := tbl.ForEach(0, 0, w, func(Point) bool { return true }); err == nil {
		t.Error("ForEach accepted an empty space")
	}
	if err := tbl.ForEach(-1, 2, w, func(Point) bool { return true }); err == nil {
		t.Error("ForEach accepted negative bounds")
	}
}

func TestTableFrontierMatchesFrontierOf(t *testing.T) {
	s := epSpace(t)
	tbl, err := s.NewTable()
	if err != nil {
		t.Fatal(err)
	}
	const w, maxARM, maxAMD = 5e7, 4, 4
	wantPts, wantTE, err := FrontierOf(s, maxARM, maxAMD, w)
	if err != nil {
		t.Fatal(err)
	}
	gotPts, gotTE, err := tbl.Frontier(maxARM, maxAMD, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPts) != len(wantPts) || len(gotTE) != len(wantTE) {
		t.Fatalf("frontier sizes (%d, %d) != (%d, %d)",
			len(gotPts), len(gotTE), len(wantPts), len(wantTE))
	}
	for i := range gotPts {
		if gotPts[i] != wantPts[i] || gotTE[i] != wantTE[i] {
			t.Fatalf("frontier point %d differs: %+v vs %+v", i, gotPts[i], wantPts[i])
		}
	}
}

// TestTableFrontierCountedMatchesFrontier pins Table.FrontierCounted to
// the serial oracle Table.Frontier, bit for bit — points, TE bits and TE
// indices — over every workload, both switch conventions, three fixed
// bound shapes plus seeded ones (a zero side included when drawn) and
// seeded work sizes. The first call for a bounds pair builds its
// candidate set and evaluates the walk plus the candidates; every later
// call evaluates only the candidates. It also honours a cancelled
// context.
func TestTableFrontierCountedMatchesFrontier(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloads.Names() {
		for _, noSwitch := range []bool{false, true} {
			s := Space{
				ARM:            nodeModel(t, hwsim.ARMCortexA9(), name),
				AMD:            nodeModel(t, hwsim.AMDOpteronK10(), name),
				NoSwitchEnergy: noSwitch,
			}
			tbl, err := s.NewTable()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(26))
			bounds := [][2]int{{10, 10}, {16, 4}, {3, 12}}
			for len(bounds) < 6 {
				if b := [2]int{rng.Intn(9), rng.Intn(9)}; b[0]+b[1] > 0 {
					bounds = append(bounds, b)
				}
			}
			for _, b := range bounds {
				size := uint64(tbl.Size(b[0], b[1]))
				for k := range 20 {
					w := math.Pow(10, 2+6*rng.Float64())
					where := fmt.Sprintf("%s switch=%t %dx%d w=%g", name, !noSwitch, b[0], b[1], w)
					evaluated := checkTableMatchesFrontier(t, where, tbl, b[0], b[1], w)
					cands := uint64(len(boxCandidates(tbl, b[0], b[1])))
					if cands == 0 || cands > size {
						t.Fatalf("%s: a set of %d candidates for a %d-point space", where, cands, size)
					}
					want := cands
					if k == 0 {
						want += size
					}
					if evaluated != want {
						t.Errorf("%s (call %d): evaluated %d points, want %d (space %d, candidates %d)", where, k, evaluated, want, size, cands)
					}
				}
			}
		}
	}
	tbl, err := epSpace(t).NewTable()
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for range 2 { // cold, then with the set built
		if pts, _, _, err := tbl.FrontierCounted(cancelled, 10, 10, 5e7); !errors.Is(err, context.Canceled) || pts != nil {
			t.Errorf("FrontierCounted on a cancelled ctx = %d points, %v; want context.Canceled", len(pts), err)
		}
		if _, _, _, err := tbl.FrontierCounted(ctx, 10, 10, 5e7); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPointSummaryFlattens(t *testing.T) {
	s := epSpace(t)
	p, err := s.Evaluate(Configuration{
		ARM: TypeConfig{Nodes: 2, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 3, Config: maxCfg(s.AMD.Spec)},
	}, 5e7)
	if err != nil {
		t.Fatal(err)
	}
	sum := p.Summary()
	if sum.ARMNodes != 2 || sum.AMDNodes != 3 {
		t.Errorf("node counts = %d:%d, want 2:3", sum.ARMNodes, sum.AMDNodes)
	}
	if sum.ARMGHz != s.ARM.Spec.FMax().GHzValue() {
		t.Errorf("ARMGHz = %v, want %v", sum.ARMGHz, s.ARM.Spec.FMax().GHzValue())
	}
	if sum.TimeSeconds != float64(p.Time) || sum.EnergyJoules != float64(p.Energy) {
		t.Error("time/energy not carried through")
	}
	if !strings.Contains(sum.Label, "ARM 2:AMD 3") {
		t.Errorf("label = %q", sum.Label)
	}
	// Homogeneous sides omit their settings.
	armOnly, err := s.Evaluate(Configuration{ARM: TypeConfig{Nodes: 1, Config: maxCfg(s.ARM.Spec)}}, 5e7)
	if err != nil {
		t.Fatal(err)
	}
	if got := armOnly.Summary(); got.AMDCores != 0 || got.AMDGHz != 0 {
		t.Errorf("AMD settings leaked into an ARM-only summary: %+v", got)
	}
}

// TestTableAllocsAndSize pins the Table's resource contract: Evaluate
// allocates nothing (its doc has always promised as much), each walk
// allocates at most one cursor on top of what the frontier itself
// retains, a warm candidate-set frontier not even that, and the kernel
// table's size does not grow with node bounds — the bounds arrive per
// call (up to the daemon's -max-nodes), so the table holds per-type
// entries only.
func TestTableAllocsAndSize(t *testing.T) {
	s := epSpace(t)
	tbl, err := s.NewTable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Configuration{
		ARM: TypeConfig{Nodes: 3, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 2, Config: maxCfg(s.AMD.Spec)},
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = tbl.Evaluate(cfg, 5e7) }); n != 0 {
		t.Errorf("Table.Evaluate allocates %v times, want 0", n)
	}
	// One cursor: its scratch ints, configs and work, plus the cursor
	// itself should it escape.
	const cursorAllocs = 4
	if n := testing.AllocsPerRun(5, func() {
		_ = tbl.ForEach(10, 10, 5e7, func(Point) bool { return true })
	}); n > cursorAllocs {
		t.Errorf("Table.ForEach(10, 10) allocates %v times, want <= %d", n, cursorAllocs)
	}
	// The online frontier's own retention on the 10x10 ep space is 17
	// allocations.
	if n := testing.AllocsPerRun(5, func() { _, _, _ = tbl.Frontier(10, 10, 5e7) }); n > 17+cursorAllocs {
		t.Errorf("Table.Frontier(10, 10) allocates %v times, want <= %d", n, 17+cursorAllocs)
	}
	// A warm FrontierCounted answers from the box's 16 candidates with no
	// cursor: the online frontier grows to its 16 points in 5 appends,
	// plus the returned points. A fallback to the walk would cost the
	// walk's allocations above.
	ctx := context.Background()
	if _, _, _, err := tbl.FrontierCounted(ctx, 10, 10, 5e7); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() { _, _, _, _ = tbl.FrontierCounted(ctx, 10, 10, 5e7) }); n > 5+1 {
		t.Errorf("warm Table.FrontierCounted(10, 10) allocates %v times, want <= %d", n, 5+1)
	}
	if got := tbl.SizeBytes(); got > 4096 {
		t.Errorf("ep Table.SizeBytes = %d, want <= 4096", got)
	}
	sizeAt := func(maxNodes int) int {
		g, err := NewGenericTable(s.groupTypes(maxNodes, maxNodes, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		return g.SizeBytes()
	}
	if one, most := sizeAt(1), sizeAt(128); one != most {
		t.Errorf("GenericTable.SizeBytes grows with node bounds: %d at 1 node, %d at 128", one, most)
	}
}

// TestGenericTableFrontierAllocs pins the warm candidate-set frontier's
// allocations on the pruned 4/4/4 tri-cluster table: a cursor, one flat
// backing for the evaluated candidates, the online frontier's growth
// and the result copies — a few dozen, where the full walk made
// thousands (one clone per chunk-frontier insertion).
func TestGenericTableFrontierAllocs(t *testing.T) {
	pruned, err := PruneGroupTypes(triTypes(t, 4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenericTable(pruned)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, _, err := g.FrontierCounted(ctx, 5e7, 1); err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 32
	if n := testing.AllocsPerRun(20, func() { _, _, _, _ = g.FrontierCounted(ctx, 3e7, 1) }); n > maxAllocs {
		t.Errorf("warm tri-cluster FrontierCounted allocates %v times, want <= %d", n, maxAllocs)
	}
}
