package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"heteromix/internal/hwsim"
	"heteromix/internal/pareto"
	"heteromix/internal/workloads"
)

// candidateCase is one seeded case of the candidate differential test;
// String names everything needed to reproduce a failure.
type candidateCase struct {
	workload string
	seed     int64
	specs    []string
	bounds   []int
	switches []bool
	pruned   bool
}

func (c candidateCase) String() string {
	return fmt.Sprintf("%s seed=%d specs=%v bounds=%v switch=%v pruned=%t",
		c.workload, c.seed, c.specs, c.bounds, c.switches, c.pruned)
}

func (c candidateCase) table(t *testing.T) *GenericTable {
	t.Helper()
	types := make([]GroupType, len(c.specs))
	for i, name := range c.specs {
		spec, err := hwsim.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		types[i] = GroupType{Model: nodeModel(t, spec, c.workload), MaxNodes: c.bounds[i], NeedsSwitch: c.switches[i]}
	}
	if c.pruned {
		var err error
		if types, err = PruneGroupTypes(types); err != nil {
			t.Fatalf("%v: prune: %v", c, err)
		}
	}
	g, err := NewGenericTable(types)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return g
}

// maxCaseSpace keeps each random case's serial walks cheap: bounds are
// lowered until the space fits.
const maxCaseSpace = 60_000

// randomCandidateCase draws 1-4 types (repeats allowed), bounds, switch
// conventions and pruning from seed.
func randomCandidateCase(t *testing.T, workload string, seed int64) candidateCase {
	rng := rand.New(rand.NewSource(seed))
	names := hwsim.Names()
	c := candidateCase{workload: workload, seed: seed, pruned: rng.Intn(2) == 0}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		c.specs = append(c.specs, names[rng.Intn(len(names))])
		c.bounds = append(c.bounds, rng.Intn(5))
		c.switches = append(c.switches, rng.Intn(2) == 0)
	}
	c.bounds[rng.Intn(len(c.bounds))]++ // never an empty space
	for c.table(t).Size() > maxCaseSpace {
		i := rng.Intn(len(c.bounds))
		if c.bounds[i] > 1 || (c.bounds[i] == 1 && c.total() > 1) {
			c.bounds[i]--
		}
	}
	return c
}

func (c candidateCase) total() int {
	n := 0
	for _, b := range c.bounds {
		n += b
	}
	return n
}

// candidateWorks is the work sizes every case is queried at: fixed sizes
// from 3 to 1.7e9 plus seeded random ones, log-uniform over [1, 1e9].
func candidateWorks(seed int64) []float64 {
	works := []float64{3, 1e3, 5e4, 5e7, 1.7e9}
	rng := rand.New(rand.NewSource(seed))
	for len(works) < 20 {
		works = append(works, math.Pow(10, 9*rng.Float64()))
	}
	return works
}

// checkMatchesWalk compares the candidate-set answer with the serial
// full walk: configurations and time/energy bits, in order.
func checkMatchesWalk(t *testing.T, what string, g *GenericTable, w float64) {
	t.Helper()
	wantPts, wantTEs, err := g.Frontier(w)
	if err != nil {
		t.Fatalf("%v w=%v: serial walk: %v", what, w, err)
	}
	pts, tes, _, err := g.FrontierCounted(context.Background(), w, 2)
	if err != nil {
		t.Fatalf("%v w=%v: candidate frontier: %v", what, w, err)
	}
	if len(tes) != len(wantTEs) {
		t.Fatalf("%v w=%v: candidate frontier has %d points, walk %d", what, w, len(tes), len(wantTEs))
	}
	for i := range tes {
		if math.Float64bits(tes[i].Time) != math.Float64bits(wantTEs[i].Time) ||
			math.Float64bits(tes[i].Energy) != math.Float64bits(wantTEs[i].Energy) ||
			tes[i].Index != wantTEs[i].Index || !genericPointEqual(pts[i], wantPts[i]) {
			t.Fatalf("%v w=%v: point %d: candidate %+v %+v, walk %+v %+v",
				what, w, i, tes[i], pts[i], wantTEs[i], wantPts[i])
		}
	}
}

// TestCandidateFrontierMatchesWalk is the differential test of the
// candidate-set frontier against the serial full walk, its oracle: the
// canonical pruned 4/4/4 tri-cluster and seeded random 1-4 type spaces
// (pruned and unpruned, switch on and off) for every workload, each at
// 20 work sizes. A failure names the case's seed.
func TestCandidateFrontierMatchesWalk(t *testing.T) {
	for wi, wl := range workloads.Names() {
		t.Run(wl, func(t *testing.T) {
			cases := []candidateCase{{
				workload: wl,
				specs:    []string{"arm-cortex-a9", "arm-cortex-a15", "amd-opteron-k10"},
				bounds:   []int{4, 4, 4},
				switches: []bool{true, true, false},
				pruned:   true,
			}}
			for k := int64(0); k < 4; k++ {
				cases = append(cases, randomCandidateCase(t, wl, 1000*int64(wi+1)+k))
			}
			for _, c := range cases {
				g := c.table(t)
				for _, w := range candidateWorks(c.seed) {
					checkMatchesWalk(t, c.String(), g, w)
				}
				if set := g.cand.set.Load(); set == nil || !set.ok || uint64(len(set.idx)) >= g.Size() && g.Size() > 64 {
					t.Fatalf("%v: candidate set %+v did not shrink the %d-point space", c, set, g.Size())
				}
			}
		})
	}
}

// TestFrontierCountedEvaluations pins what FrontierCounted reports and
// the serving layer records: the build walk plus the candidates on the
// first call, only the candidates after it.
func TestFrontierCountedEvaluations(t *testing.T) {
	pruned, err := PruneGroupTypes(triTypes(t, 4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenericTable(pruned)
	if err != nil {
		t.Fatal(err)
	}
	_, _, first, err := g.FrontierCounted(context.Background(), 5e7, 1)
	if err != nil {
		t.Fatal(err)
	}
	cands := uint64(len(g.cand.set.Load().idx))
	if first != g.Size()+cands {
		t.Errorf("first call evaluated %d points, want the %d-point build walk plus %d candidates", first, g.Size(), cands)
	}
	_, _, warm, err := g.FrontierCounted(context.Background(), 7e5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cands || cands == 0 || cands > 1000 {
		t.Errorf("warm call evaluated %d points, want the %d candidates", warm, cands)
	}
}

// TestCandidateFrontierOutsideWorkRange: a w outside the table's guarded
// range takes the full walk, and the answer still matches the serial
// walk's.
func TestCandidateFrontierOutsideWorkRange(t *testing.T) {
	g, err := NewGenericTable(triTypes(t, 2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := g.t.workRange(g.t.maxNodes)
	if !(lo < 1e-200 && hi > 1e200) {
		t.Fatalf("guarded work range [%g, %g] should span ordinary work sizes by far", lo, hi)
	}
	for _, w := range []float64{lo / 4, math.Min(hi*4, math.MaxFloat64/8)} {
		if w >= lo && w <= hi {
			t.Fatalf("w=%g should lie outside [%g, %g]", w, lo, hi)
		}
		_, _, evaluated, err := g.FrontierCounted(context.Background(), w, 2)
		wantPts, wantTEs, wantErr := g.Frontier(w)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("w=%g: candidate path error %v, walk error %v", w, err, wantErr)
		}
		if err != nil {
			continue
		}
		if evaluated < g.Size() {
			t.Errorf("w=%g: evaluated %d points, want the full %d-point walk", w, evaluated, g.Size())
		}
		pts, tes, _, _ := g.FrontierCounted(context.Background(), w, 2)
		if len(tes) != len(wantTEs) {
			t.Fatalf("w=%g: %d points vs walk %d", w, len(tes), len(wantTEs))
		}
		for i := range tes {
			if tes[i] != wantTEs[i] || !genericPointEqual(pts[i], wantPts[i]) {
				t.Fatalf("w=%g: point %d differs from the walk", w, i)
			}
		}
	}
	// A w just inside the range answers from the candidates.
	checkMatchesWalk(t, "inside range", g, lo*4)
}

// TestCandidateBuildCancelledNotKept: a build stopped by ctx returns
// ctx's error and leaves no set behind; the next call builds and
// answers.
func TestCandidateBuildCancelledNotKept(t *testing.T) {
	g, err := NewGenericTable(triTypes(t, 3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.sliceSet(ctx, 0, g.Size(), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build = %v, want context.Canceled", err)
	}
	if _, _, err := g.t.buildRangeCandidates(ctx, 0, int(g.Size()), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build walk = %v, want context.Canceled", err)
	}
	if g.cand.set.Load() != nil {
		t.Fatal("a cancelled build was kept")
	}
	_, _, evaluated, err := g.FrontierCounted(context.Background(), 5e7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if evaluated <= g.Size() || g.cand.set.Load() == nil {
		t.Fatalf("the call after a cancelled build evaluated %d points of %d and kept %v; want a fresh build",
			evaluated, g.Size(), g.cand.set.Load())
	}
	checkMatchesWalk(t, "after cancel", g, 5e7)
}

// TestCandidateFrontierConcurrentFirstUse races first callers on one
// cold table (run it under -race): exactly one builds, and every caller
// gets the serial walk's answer.
func TestCandidateFrontierConcurrentFirstUse(t *testing.T) {
	pruned, err := PruneGroupTypes(triTypes(t, 3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenericTable(pruned)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 6
	works := candidateWorks(7)[:callers]
	want := make([][]pareto.TE, callers)
	for i, w := range works {
		if _, want[i], err = g.Frontier(w); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	built := make([]bool, callers)
	errs := make([]error, callers)
	got := make([][]pareto.TE, callers)
	for i := range works {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var evaluated uint64
			_, got[i], evaluated, errs[i] = g.FrontierCounted(context.Background(), works[i], 2)
			built[i] = evaluated > g.Size()
		}(i)
	}
	wg.Wait()
	builds := 0
	for i := range works {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if built[i] {
			builds++
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("caller %d: %d points, walk %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("caller %d point %d: %+v, walk %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
	if builds != 1 {
		t.Errorf("%d callers built the candidate set, want exactly 1", builds)
	}
}

// TestCandidateBuilderOverCap: a builder whose running set outgrows
// maxCandidates gives up instead of growing, and a table whose set
// would be over the cap keeps answering by the walk.
func TestCandidateBuilderOverCap(t *testing.T) {
	var b candidateBuilder
	// An anti-chain spaced far beyond the margin: nothing beats anything.
	for i := 0; i <= maxCandidates; i++ {
		b.offer(candidate{idx: uint64(i), te: pareto.TE{Time: float64(i + 1), Energy: float64(2*maxCandidates - i)}})
	}
	if !b.over || b.kept != nil {
		t.Fatalf("builder kept %d candidates past the cap of %d", len(b.kept), maxCandidates)
	}
	g, err := NewGenericTable(triTypes(t, 2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	g.cand.set.Store(&candidateSet{lo: 1e-300, hi: 1e300})
	_, _, evaluated, err := g.FrontierCounted(context.Background(), 5e7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if evaluated != g.Size() {
		t.Errorf("an over-cap table evaluated %d points, want the %d-point walk", evaluated, g.Size())
	}
	checkMatchesWalk(t, "over cap", g, 5e7)
}
