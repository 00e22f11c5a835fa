package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// boxCandidates returns the positions of the maxARM×maxAMD box's built
// candidate set, nil when it has none.
func boxCandidates(tbl *Table, maxARM, maxAMD int) []uint64 {
	tbl.boxes.mu.Lock()
	ci := tbl.boxes.m[subspace{uint64(maxARM), uint64(maxAMD)}]
	tbl.boxes.mu.Unlock()
	if ci == nil {
		return nil
	}
	if set := ci.set.Load(); set != nil {
		return set.idx
	}
	return nil
}

// checkTableMatchesFrontier compares FrontierCounted with the walk,
// Table.Frontier: points, time/energy bits and TE indices, in order. It
// returns the evaluation count.
func checkTableMatchesFrontier(t *testing.T, what string, tbl *Table, maxARM, maxAMD int, w float64) uint64 {
	t.Helper()
	wantPts, wantTEs, err := tbl.Frontier(maxARM, maxAMD, w)
	if err != nil {
		t.Fatalf("%s: Frontier: %v", what, err)
	}
	pts, tes, evaluated, err := tbl.FrontierCounted(context.Background(), maxARM, maxAMD, w)
	if err != nil {
		t.Fatalf("%s: FrontierCounted: %v", what, err)
	}
	if len(pts) != len(wantPts) || len(tes) != len(wantTEs) {
		t.Fatalf("%s: frontier sizes (%d, %d), want (%d, %d)", what, len(pts), len(tes), len(wantPts), len(wantTEs))
	}
	for i := range pts {
		got, want := tes[i], wantTEs[i]
		if pts[i] != wantPts[i] || got.Index != want.Index ||
			math.Float64bits(got.Time) != math.Float64bits(want.Time) ||
			math.Float64bits(got.Energy) != math.Float64bits(want.Energy) {
			t.Fatalf("%s: frontier entry %d = %+v %+v, want %+v %+v", what, i, pts[i], got, wantPts[i], want)
		}
	}
	return evaluated
}

// TestTableFrontierCountedWalks: a w outside the box's guarded work
// range, a set over the cap and a set the table's budget cannot hold all
// take the walk and still answer what it answers.
func TestTableFrontierCountedWalks(t *testing.T) {
	tbl, err := epSpace(t).NewTable()
	if err != nil {
		t.Fatal(err)
	}
	const maxARM, maxAMD = 10, 10
	size := uint64(tbl.Size(maxARM, maxAMD))
	checkTableMatchesFrontier(t, "build", tbl, maxARM, maxAMD, 5e7)
	cands := uint64(len(boxCandidates(tbl, maxARM, maxAMD)))
	lo, hi := tbl.g.workRange([]int{maxARM, maxAMD})
	if !(lo < 1e-200 && hi > 1e200) {
		t.Fatalf("guarded work range [%g, %g] should span ordinary work sizes by far", lo, hi)
	}
	// The range comes from the call's bounds, not the one node per type
	// the table is compiled at.
	if oneLo, oneHi := tbl.g.workRange(tbl.g.maxNodes); oneLo == lo && oneHi == hi {
		t.Errorf("the 10x10 box's guarded range equals the one-node table's, [%g, %g]", lo, hi)
	}
	outside := 0
	for _, w := range []float64{lo / 4, math.Min(hi*4, math.MaxFloat64/8)} {
		if _, _, err := tbl.Frontier(maxARM, maxAMD, w); err != nil {
			continue // out of the model's own range as well
		}
		outside++
		if evaluated := checkTableMatchesFrontier(t, fmt.Sprintf("outside range w=%g", w), tbl, maxARM, maxAMD, w); evaluated != size {
			t.Errorf("w=%g outside [%g, %g]: evaluated %d points, want the %d-point walk", w, lo, hi, evaluated, size)
		}
	}
	if outside == 0 {
		t.Fatal("no work size outside the guarded range could be walked")
	}
	if evaluated := checkTableMatchesFrontier(t, "inside range", tbl, maxARM, maxAMD, lo*4); evaluated != cands {
		t.Errorf("w=%g inside the range: evaluated %d points, want the %d candidates", lo*4, evaluated, cands)
	}

	// A set over the cap covers no w.
	tbl.boxes.index(subspace{3, 4}, func() *order { return tbl.g.twoTypeOrder(3, 4) }).set.Store(&candidateSet{lo: 1e-300, hi: 1e300})
	if evaluated := checkTableMatchesFrontier(t, "over cap", tbl, 3, 4, 5e7); evaluated != uint64(tbl.Size(3, 4)) {
		t.Errorf("an over-cap box evaluated %d points, want the %d-point walk", evaluated, tbl.Size(3, 4))
	}

	// A budget with room for an entry but not its positions: the build
	// runs once, its set is kept empty, and the box walks from then on.
	// The other boxes' entries are dropped to make room.
	tbl.boxes.mu.Lock()
	tbl.boxes.budget = sliceEntryCost
	tbl.boxes.mu.Unlock()
	small := uint64(tbl.Size(4, 3))
	if evaluated := checkTableMatchesFrontier(t, "over budget", tbl, 4, 3, 5e7); evaluated != 2*small {
		t.Errorf("first call of an over-budget box evaluated %d points, want its build and its walk, %d", evaluated, 2*small)
	}
	if evaluated := checkTableMatchesFrontier(t, "over budget", tbl, 4, 3, 3e4); evaluated != small {
		t.Errorf("later call of an over-budget box evaluated %d points, want its %d-point walk", evaluated, small)
	}
	if boxCandidates(tbl, 4, 3) != nil || boxCandidates(tbl, maxARM, maxAMD) != nil || tbl.boxes.used != sliceEntryCost {
		t.Errorf("over budget: sets of %d and %d candidates kept, budget used %d of %d",
			len(boxCandidates(tbl, 4, 3)), len(boxCandidates(tbl, maxARM, maxAMD)), tbl.boxes.used, sliceEntryCost)
	}
}

// TestTableFrontierCountedMakesRoom: a flood of distinct bounds fills
// the table's budget many times over; older sets are dropped, every
// answer stays the walk's, and a box in steady use keeps its set.
func TestTableFrontierCountedMakesRoom(t *testing.T) {
	tbl, err := memcachedSpace(t).NewTable()
	if err != nil {
		t.Fatal(err)
	}
	const steadyARM, steadyAMD = 10, 10
	checkTableMatchesFrontier(t, "build", tbl, steadyARM, steadyAMD, 5e7)
	cands := uint64(len(boxCandidates(tbl, steadyARM, steadyAMD)))
	asked := 0
	for a := 0; a <= 12; a++ {
		for d := 0; d <= 12; d++ {
			if a+d == 0 || (a == steadyARM && d == steadyAMD) {
				continue
			}
			w := float64(1+a*13+d) * 1e4
			checkTableMatchesFrontier(t, fmt.Sprintf("flood %dx%d", a, d), tbl, a, d, w)
			asked++
			if evaluated := checkTableMatchesFrontier(t, "steady", tbl, steadyARM, steadyAMD, w); evaluated != cands {
				t.Fatalf("after %d boxes: the box in steady use evaluated %d points, want its %d candidates", asked, evaluated, cands)
			}
		}
	}
	if asked*sliceEntryCost <= maxCandidates {
		t.Fatalf("%d boxes cannot fill the budget", asked)
	}
	checkSliceBudget(t, &tbl.boxes)
	if kept := boxCandidates(tbl, 0, 1); kept != nil {
		t.Errorf("the first flooded box still holds %d candidates; the budget should have dropped it", len(kept))
	}
	if evaluated := checkTableMatchesFrontier(t, "rebuilt", tbl, 0, 1, 5e7); evaluated != uint64(tbl.Size(0, 1))+uint64(len(boxCandidates(tbl, 0, 1))) {
		t.Errorf("a dropped box evaluated %d points on its next call, want a fresh build", evaluated)
	}
}

// stopAfter is a context whose Err turns to Canceled after n calls: a
// request cancelled part way through a walk.
type stopAfter struct {
	context.Context
	n int
}

func (c *stopAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestTableFrontierCountedBuildCancelledNotKept: a build stopped by ctx
// part way through its walk returns ctx's error and leaves no set
// behind; the next call builds and answers.
func TestTableFrontierCountedBuildCancelledNotKept(t *testing.T) {
	tbl, err := epSpace(t).NewTable()
	if err != nil {
		t.Fatal(err)
	}
	// One check on entry, then the build's polls at chunks 0 and 1.
	ctx := &stopAfter{Context: context.Background(), n: 3}
	if pts, _, _, err := tbl.FrontierCounted(ctx, 10, 10, 5e7); !errors.Is(err, context.Canceled) || pts != nil {
		t.Fatalf("a build cancelled part way = %d points, %v; want context.Canceled", len(pts), err)
	}
	if ctx.n != 0 {
		t.Fatalf("the build stopped with %d polls to spare", ctx.n)
	}
	if kept := boxCandidates(tbl, 10, 10); kept != nil {
		t.Fatalf("a cancelled build kept %d candidates", len(kept))
	}
	evaluated := checkTableMatchesFrontier(t, "after cancel", tbl, 10, 10, 5e7)
	cands := uint64(len(boxCandidates(tbl, 10, 10)))
	if size := uint64(tbl.Size(10, 10)); cands == 0 || evaluated != size+cands {
		t.Fatalf("the call after a cancelled build evaluated %d points; want a fresh build, %d + %d", evaluated, size, cands)
	}
}

// TestTableFrontierCountedAfterRestore: a Table restored from a dump
// starts without candidate sets, builds them lazily, answers like the
// walk, and its dump's bytes do not change.
func TestTableFrontierCountedAfterRestore(t *testing.T) {
	space := epSpace(t)
	tbl, err := space.NewTable()
	if err != nil {
		t.Fatal(err)
	}
	checkTableMatchesFrontier(t, "original", tbl, 10, 10, 5e7)
	before, err := json.Marshal(tbl.Dump())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := space.NewTableFromDump(tbl.Dump())
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.boxes.m) != 0 {
		t.Fatalf("a restored table starts with %d candidate sets", len(restored.boxes.m))
	}
	size := uint64(restored.Size(10, 10))
	if evaluated := checkTableMatchesFrontier(t, "restored, first call", restored, 10, 10, 5e7); evaluated <= size {
		t.Errorf("the restored table's first call evaluated %d points, want a build of %d plus its candidates", evaluated, size)
	}
	cands := uint64(len(boxCandidates(restored, 10, 10)))
	if evaluated := checkTableMatchesFrontier(t, "restored, later call", restored, 10, 10, 2e6); evaluated != cands {
		t.Errorf("the restored table's later call evaluated %d points, want its %d candidates", evaluated, cands)
	}
	for name, d := range map[string]GenericTableDump{"original": tbl.Dump(), "restored": restored.Dump()} {
		after, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != string(before) {
			t.Errorf("the %s table's dump changed once candidate sets were built", name)
		}
	}
}

// TestTableCandidateConcurrentFirstUse races first callers on a cold
// table (run it under -race), several on each of a few bounds: one build
// per bounds, and every caller gets the walk's answer.
func TestTableCandidateConcurrentFirstUse(t *testing.T) {
	tbl, err := epSpace(t).NewTable()
	if err != nil {
		t.Fatal(err)
	}
	bounds := [][2]int{{10, 10}, {6, 3}, {0, 7}}
	const callers = 4
	works := candidateWorks(27)[:callers]
	type result struct {
		pts       []Point
		evaluated uint64
		err       error
	}
	var wg sync.WaitGroup
	results := make([][callers]result, len(bounds))
	for i, b := range bounds {
		for k := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := &results[i][k]
				r.pts, _, r.evaluated, r.err = tbl.FrontierCounted(context.Background(), b[0], b[1], works[k])
			}()
		}
	}
	wg.Wait()
	for i, b := range bounds {
		builds := 0
		for k, r := range results[i] {
			if r.err != nil {
				t.Fatalf("%dx%d caller %d: %v", b[0], b[1], k, r.err)
			}
			if r.evaluated > uint64(tbl.Size(b[0], b[1])) {
				builds++
			}
			want, _, err := tbl.Frontier(b[0], b[1], works[k])
			if err != nil {
				t.Fatal(err)
			}
			if len(r.pts) != len(want) {
				t.Fatalf("%dx%d caller %d: %d points, walk %d", b[0], b[1], k, len(r.pts), len(want))
			}
			for j := range want {
				if r.pts[j] != want[j] {
					t.Fatalf("%dx%d caller %d point %d: %+v, walk %+v", b[0], b[1], k, j, r.pts[j], want[j])
				}
			}
		}
		if builds != 1 {
			t.Errorf("%dx%d: %d callers built the candidate set, want exactly 1", b[0], b[1], builds)
		}
	}
}

// BenchmarkTableFrontierWarm: the ep 10x10 two-type space (36,380
// points) through a warm Table's FrontierCounted at seeded work sizes in
// [25e6, 75e6], after one call built the box's candidate set — what the
// daemon pays per cold two-type frontier request on a cached table.
func BenchmarkTableFrontierWarm(b *testing.B) {
	tbl, err := epSpace(b).NewTable()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, _, _, err := tbl.FrontierCounted(ctx, 10, 10, 50e6); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tes, _, err := tbl.FrontierCounted(ctx, 10, 10, 50e6*(0.5+rng.Float64()))
		if err != nil {
			b.Fatal(err)
		}
		if len(tes) == 0 {
			b.Fatal("empty frontier")
		}
	}
}
