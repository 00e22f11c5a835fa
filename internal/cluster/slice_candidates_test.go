package cluster

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"heteromix/internal/shard"
	"heteromix/internal/workloads"
)

// sliceCandidates returns the indices of shard sh's built candidate set,
// nil when it has none.
func sliceCandidates(g *GenericTable, sh shard.Shard) []uint64 {
	lo, hi := sh.Range(g.Size())
	ci := g.cand
	if lo != 0 || hi != g.Size() {
		g.slices.mu.Lock()
		ci = g.slices.m[subspace{lo, hi}]
		g.slices.mu.Unlock()
	}
	if ci == nil {
		return nil
	}
	if set := ci.set.Load(); set != nil {
		return set.idx
	}
	return nil
}

// checkShardMatchesWalk compares FrontierShardCounted with the range
// walk, FrontierShard: indices, points, time/energy bits and TE indices,
// in order. It returns the evaluation count.
func checkShardMatchesWalk(t *testing.T, what string, g *GenericTable, w float64, sh shard.Shard) uint64 {
	t.Helper()
	want, err := g.FrontierShard(w, sh)
	if err != nil {
		t.Fatalf("%v %v w=%v: range walk: %v", what, sh, w, err)
	}
	got, evaluated, err := g.FrontierShardCounted(context.Background(), w, sh)
	if err != nil {
		t.Fatalf("%v %v w=%v: slice frontier: %v", what, sh, w, err)
	}
	if len(got.Indices) != len(want.Indices) || len(got.TEs) != len(want.TEs) || len(got.Points) != len(want.Points) {
		t.Fatalf("%v %v w=%v: %d/%d/%d points/TEs/indices, walk %d/%d/%d", what, sh, w,
			len(got.Points), len(got.TEs), len(got.Indices), len(want.Points), len(want.TEs), len(want.Indices))
	}
	for i := range want.TEs {
		g, wt := got.TEs[i], want.TEs[i]
		if got.Indices[i] != want.Indices[i] ||
			math.Float64bits(g.Time) != math.Float64bits(wt.Time) ||
			math.Float64bits(g.Energy) != math.Float64bits(wt.Energy) ||
			g.Index != wt.Index || !genericPointEqual(got.Points[i], want.Points[i]) {
			t.Fatalf("%v %v w=%v: point %d: slice #%d %+v %+v, walk #%d %+v %+v", what, sh, w, i,
				got.Indices[i], g, got.Points[i], want.Indices[i], wt, want.Points[i])
		}
	}
	return evaluated
}

// TestSliceCandidatesMatchRangeWalk is the differential test of the
// slice candidate sets against the range walk, their oracle: every slice
// of n = 1..7 over TestCandidateFrontierMatchesWalk's cases (the pruned
// tri-cluster and seeded random spaces for every workload), each at 20
// work sizes. The first call to a slice builds its set and evaluates the
// slice plus its candidates; later calls evaluate only the candidates.
// A failure names the case's seed. It runs no concurrent code, so its
// name stays out of make fleet-race's filter.
func TestSliceCandidatesMatchRangeWalk(t *testing.T) {
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
				works := candidateWorks(c.seed)
				// Slices of a small space repeat across counts; a range
				// builds its set only the first time it is asked for.
				built := map[[2]uint64]bool{}
				for n := 1; n <= 7; n++ {
					for i := 0; i < n; i++ {
						sh := shard.Shard{Index: i, Count: n}
						size := sh.SliceSize(g.Size())
						lo, hi := sh.Range(g.Size())
						first := !built[[2]uint64{lo, hi}]
						built[[2]uint64{lo, hi}] = true
						for k, w := range works {
							evaluated := checkShardMatchesWalk(t, c.String(), g, w, sh)
							cands := uint64(len(sliceCandidates(g, sh)))
							if size > 0 && cands == 0 {
								t.Fatalf("%v %v: no candidate set was built", c, sh)
							}
							want := cands
							if k == 0 && first {
								want += size
							}
							if evaluated != want {
								t.Fatalf("%v %v w=%v (call %d): evaluated %d points, want %d (slice %d, candidates %d)",
									c, sh, w, k, evaluated, want, size, cands)
							}
						}
					}
				}
			}
		})
	}
}

// TestShardCandidateFrontierWalks: a w outside the table's guarded work
// range, and a slice whose set the slice budget cannot hold, take the
// range walk and still answer what it answers.
func TestShardCandidateFrontierWalks(t *testing.T) {
	pruned, err := PruneGroupTypes(triTypes(t, 3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenericTable(pruned)
	if err != nil {
		t.Fatal(err)
	}
	sh := shard.Shard{Index: 1, Count: 4}
	size := sh.SliceSize(g.Size())
	// The walks below merge the frontiers of the slice's chunks.
	if size <= genericFrontierChunk {
		t.Fatalf("a %d-point slice does not span two %d-point walk chunks", size, genericFrontierChunk)
	}
	lo, hi := g.t.workRange(g.t.maxNodes)
	checkShardMatchesWalk(t, "build", g, 5e7, sh)
	cands := uint64(len(sliceCandidates(g, sh)))
	if cands == 0 || cands >= size {
		t.Fatalf("slice set of %d candidates for a %d-point slice", cands, size)
	}
	outside := 0
	for _, w := range []float64{lo / 4, math.Min(hi*4, math.MaxFloat64/8)} {
		if _, err := g.FrontierShard(w, sh); err != nil {
			continue // out of the model's own range as well
		}
		outside++
		if evaluated := checkShardMatchesWalk(t, "outside range", g, w, sh); evaluated != size {
			t.Errorf("w=%g outside [%g, %g]: evaluated %d points, want the %d-point range walk", w, lo, hi, evaluated, size)
		}
	}
	if outside == 0 {
		t.Fatal("no work size outside the guarded range could be walked")
	}
	if evaluated := checkShardMatchesWalk(t, "inside range", g, lo*4, sh); evaluated != cands {
		t.Errorf("w=%g inside the range: evaluated %d points, want the %d candidates", lo*4, evaluated, cands)
	}

	// A budget with room for an entry but not its indices: the build runs
	// once, its set is kept empty, and the slice walks from then on. The
	// other slice's set is dropped to make room for the entry.
	other := shard.Shard{Index: 2, Count: 4}
	g.slices.mu.Lock()
	g.slices.budget = sliceEntryCost
	g.slices.mu.Unlock()
	otherSize := other.SliceSize(g.Size())
	if evaluated := checkShardMatchesWalk(t, "over budget", g, 5e7, other); evaluated != 2*otherSize {
		t.Errorf("first call of an over-budget slice evaluated %d points, want its build and its walk, %d", evaluated, 2*otherSize)
	}
	if evaluated := checkShardMatchesWalk(t, "over budget", g, 3e4, other); evaluated != otherSize {
		t.Errorf("later call of an over-budget slice evaluated %d points, want its %d-point walk", evaluated, otherSize)
	}
	if sliceCandidates(g, other) != nil || sliceCandidates(g, sh) != nil || g.slices.used != sliceEntryCost {
		t.Errorf("over budget: slice sets of %d and %d candidates kept, budget used %d of %d",
			len(sliceCandidates(g, other)), len(sliceCandidates(g, sh)), g.slices.used, sliceEntryCost)
	}
}

// checkSliceBudget checks a table's slice-set accounting: the units the
// entries and their sets hold are the units accounted, within budget.
func checkSliceBudget(t *testing.T, s *sliceSets) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	units := 0
	for key, ci := range s.m {
		held := sliceEntryCost
		if set := ci.set.Load(); set != nil {
			held += len(set.idx)
		}
		if held != ci.cost {
			t.Fatalf("slice entry %v holds %d units, charged %d", key, held, ci.cost)
		}
		units += held
	}
	if units != s.used || units > s.budget {
		t.Fatalf("slice sets hold %d units (accounted %d), budget %d", units, s.used, s.budget)
	}
	if len(s.m) > s.budget/sliceEntryCost {
		t.Fatalf("%d slice entries, at most %d fit the budget", len(s.m), s.budget/sliceEntryCost)
	}
}

// TestShardCandidateSetsBounded pins the slice sets' memory bound: after
// every slice of n = 1..64 has been asked for, the entries and indices
// all of a table's slice sets hold stay within the shared budget of
// maxCandidates units, and every answer — from a set or a walk — is the
// range walk's.
func TestShardCandidateSetsBounded(t *testing.T) {
	pruned, err := PruneGroupTypes(triTypes(t, 3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenericTable(pruned)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 64; n++ {
		for i := 0; i < n; i++ {
			checkShardMatchesWalk(t, "bounded", g, 2e6, shard.Shard{Index: i, Count: n})
		}
	}
	if g.slices.budget != maxCandidates {
		t.Fatalf("slice budget %d, want %d", g.slices.budget, maxCandidates)
	}
	checkSliceBudget(t, &g.slices)
	if len(g.slices.m) < 8 {
		t.Fatalf("only %d slices got a set; the budget should admit many small ones", len(g.slices.m))
	}
}

// TestShardCandidateSetsMakeRoom: slices of many shard counts, asked for
// first, fill the slice budget many times over, yet the slices of a
// later count still answer from sets, and slices in steady use keep
// theirs: the least recently used entries make room.
func TestShardCandidateSetsMakeRoom(t *testing.T) {
	pruned, err := PruneGroupTypes(triTypes(t, 3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenericTable(pruned)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	asked := 0
	for n := 64; n >= 5; n-- {
		for i := 0; i < n; i++ {
			if _, _, err := g.FrontierShardCounted(ctx, 2e6, shard.Shard{Index: i, Count: n}); err != nil {
				t.Fatal(err)
			}
			asked++
		}
	}
	if asked*sliceEntryCost <= maxCandidates {
		t.Fatalf("%d slices cannot fill the budget", asked)
	}
	checkSliceBudget(t, &g.slices)
	// fromSet checks that a warm slice of 4 answers from its set.
	fromSet := func(what string, i int, w float64) {
		t.Helper()
		sh := shard.Shard{Index: i, Count: 4}
		evaluated := checkShardMatchesWalk(t, what, g, w, sh)
		if cands := uint64(len(sliceCandidates(g, sh))); cands == 0 || evaluated != cands {
			t.Fatalf("%s: %v evaluated %d points, want its %d candidates", what, sh, evaluated, cands)
		}
	}
	for i := 0; i < 4; i++ {
		checkShardMatchesWalk(t, "build", g, 2e6, shard.Shard{Index: i, Count: 4})
		fromSet("after a full budget", i, 7e5)
	}
	// Flood again, asking for the four slices between counts: they stay
	// the most recently used and are never dropped.
	for n := 64; n >= 5; n-- {
		for i := 0; i < n; i++ {
			if _, _, err := g.FrontierShardCounted(ctx, 3e5, shard.Shard{Index: i, Count: n}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			fromSet("in steady use", i, float64(n)*1e5)
		}
	}
	checkSliceBudget(t, &g.slices)
}

// TestShardCandidateBuildCancelledNotKept: a slice build stopped by ctx
// returns ctx's error and leaves no set; the next call builds.
func TestShardCandidateBuildCancelledNotKept(t *testing.T) {
	g, err := NewGenericTable(triTypes(t, 3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	sh := shard.Shard{Index: 0, Count: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lo, hi := sh.Range(g.Size())
	if _, _, err := g.sliceSet(ctx, lo, hi, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled slice build = %v, want context.Canceled", err)
	}
	ci := g.slices.index(subspace{lo, hi})
	if ci.set.Load() != nil {
		t.Fatal("a cancelled slice build was kept")
	}
	if evaluated := checkShardMatchesWalk(t, "after cancel", g, 5e7, sh); evaluated <= hi-lo || ci.set.Load() == nil {
		t.Fatalf("the call after a cancelled build evaluated %d of %d points; want a fresh build", evaluated, hi-lo)
	}
}

// TestShardCandidateConcurrentFirstUse races first callers on each slice
// of a cold table (run it under -race): one build per slice, and every
// caller gets the range walk's answer.
func TestShardCandidateConcurrentFirstUse(t *testing.T) {
	pruned, err := PruneGroupTypes(triTypes(t, 3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenericTable(pruned)
	if err != nil {
		t.Fatal(err)
	}
	const n, callers = 3, 4
	works := candidateWorks(11)[:callers]
	type result struct {
		part      ShardFrontier[GenericPoint]
		evaluated uint64
		err       error
	}
	var wg sync.WaitGroup
	results := make([][callers]result, n)
	for i := 0; i < n; i++ {
		for k := 0; k < callers; k++ {
			wg.Add(1)
			go func(i, k int) {
				defer wg.Done()
				r := &results[i][k]
				r.part, r.evaluated, r.err = g.FrontierShardCounted(context.Background(), works[k], shard.Shard{Index: i, Count: n})
			}(i, k)
		}
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		sh := shard.Shard{Index: i, Count: n}
		builds := 0
		for k, r := range results[i] {
			if r.err != nil {
				t.Fatalf("%v caller %d: %v", sh, k, r.err)
			}
			if r.evaluated > sh.SliceSize(g.Size()) {
				builds++
			}
			want, err := g.FrontierShard(works[k], sh)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.part.TEs) != len(want.TEs) {
				t.Fatalf("%v caller %d: %d points, walk %d", sh, k, len(r.part.TEs), len(want.TEs))
			}
			for j := range want.TEs {
				if r.part.TEs[j] != want.TEs[j] || r.part.Indices[j] != want.Indices[j] {
					t.Fatalf("%v caller %d point %d differs from the walk", sh, k, j)
				}
			}
		}
		if builds != 1 {
			t.Errorf("%v: %d callers built the slice set, want exactly 1", sh, builds)
		}
	}
}
