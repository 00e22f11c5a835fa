package cluster

import (
	"context"
	"slices"
	"sync"
	"testing"

	"heteromix/internal/pareto"
	"heteromix/internal/shard"
	"heteromix/internal/workloads"
)

// shardCandidateUnion asks every slice of an n-way split of g for its
// candidates, as a fleet coordinator's fan-out does, and returns their
// union in shard order; ok is false when some slice answered none.
func shardCandidateUnion(t *testing.T, g *GenericTable, n int) (union []uint64, ok bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		part, _, sliceOK, err := g.ShardCandidates(context.Background(), 1, shard.Shard{Index: i, Count: n})
		if err != nil {
			t.Fatal(err)
		}
		if !sliceOK {
			return nil, false
		}
		union = append(union, part.Indices...)
	}
	return union, true
}

// TestFoldedSliceCandidatesMatchWholeSpace is the fold's property test:
// for the pruned 4/4/4 tri-cluster and seeded random 1-4 type spaces,
// each pruned and unpruned, for every workload, the candidate sets of the
// n slices (n = 1..7) of one table, folded on a fresh table of the same
// spec, install exactly the whole-space set a build makes, and the fresh
// table then answers frontiers without a build walk. A failure names the
// case's seed.
func TestFoldedSliceCandidatesMatchWholeSpace(t *testing.T) {
	ctx := context.Background()
	for wi, wl := range workloads.Names() {
		t.Run(wl, func(t *testing.T) {
			cases := []candidateCase{{
				workload: wl,
				specs:    []string{"arm-cortex-a9", "arm-cortex-a15", "amd-opteron-k10"},
				bounds:   []int{4, 4, 4},
				switches: []bool{true, true, false},
				pruned:   true,
			}}
			for k := int64(0); k < 3; k++ {
				c := randomCandidateCase(t, wl, 5000*int64(wi+1)+k)
				flipped := c
				flipped.pruned = !c.pruned
				if flipped.table(t).Size() <= maxCaseSpace {
					cases = append(cases, flipped)
				}
				cases = append(cases, c)
			}
			for _, c := range cases {
				whole := c.table(t)
				want, _, err := whole.t.all.buildRangeCandidates(ctx, 0, int(whole.Size()), 2)
				if err != nil || !want.ok {
					t.Fatalf("%v: whole-space build %+v, %v", c, want, err)
				}
				sliced := c.table(t)
				for n := 1; n <= 7; n++ {
					union, ok := shardCandidateUnion(t, sliced, n)
					if !ok {
						t.Fatalf("%v: a slice of %d answered no candidates", c, n)
					}
					folded := c.table(t)
					if !folded.InstallCandidates(union) {
						t.Fatalf("%v, %d slices: the fold installed nothing", c, n)
					}
					got := folded.cand.set.Load()
					if !slices.Equal(got.idx, want.idx) || got.lo != want.lo || got.hi != want.hi {
						t.Fatalf("%v, %d slices: folded %d candidates %v [%g, %g], build %d %v [%g, %g]",
							c, n, len(got.idx), got.idx, got.lo, got.hi, len(want.idx), want.idx, want.lo, want.hi)
					}
					if folded.InstallCandidates(union) {
						t.Fatalf("%v, %d slices: a second install replaced the set", c, n)
					}
					if n == 4 {
						for _, w := range candidateWorks(c.seed)[:5] {
							checkMatchesWalk(t, c.String(), folded, w)
						}
						if _, _, evaluated, err := folded.FrontierCounted(ctx, 5e7, 2); err != nil || evaluated != uint64(len(want.idx)) {
							t.Fatalf("%v: a folded table evaluated %d points (%v), want its %d candidates", c, evaluated, err, len(want.idx))
						}
					}
				}
			}
		})
	}
}

// TestFoldCandidatesInstallsNothing: a slice whose set is over its cap
// answers no candidates, so a coordinator has nothing to fold; and a
// fold that cannot be the space's set — empty, or naming a position
// outside the space — installs nothing, leaving the table to build its
// own.
func TestFoldCandidatesInstallsNothing(t *testing.T) {
	pruned, err := PruneGroupTypes(triTypes(t, 3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenericTable(pruned)
	if err != nil {
		t.Fatal(err)
	}
	sh := shard.Shard{Index: 1, Count: 3}
	lo, hi := sh.Range(g.Size())
	g.sliceIndex(lo, hi).set.Store(&candidateSet{lo: 1e-300, hi: 1e300})
	if _, ok := shardCandidateUnion(t, g, 3); ok {
		t.Fatal("an over-cap slice answered candidates")
	}
	if _, _, ok, _ := g.ShardCandidates(context.Background(), 1, shard.Shard{Index: 0, Count: 3}); !ok {
		t.Fatal("a slice within its cap answered no candidates")
	}
	for name, idx := range map[string][]uint64{
		"empty":         nil,
		"outside space": {0, g.Size()},
	} {
		if g.InstallCandidates(idx) || g.cand.set.Load() != nil {
			t.Fatalf("%s: the fold installed a set", name)
		}
	}
	if _, _, evaluated, err := g.FrontierCounted(context.Background(), 5e7, 2); err != nil || evaluated <= g.Size() {
		t.Fatalf("after refused installs the first frontier evaluated %d points (%v), want a build over %d", evaluated, err, g.Size())
	}
}

// TestFoldCandidatesRaceFirstBuild races an install against a first
// FrontierCounted on cold tables (run it under -race): exactly one of
// them stores the set — the install reports it stored, or the frontier
// evaluated a build walk — and the stored set is the whole-space set.
func TestFoldCandidatesRaceFirstBuild(t *testing.T) {
	pruned, err := PruneGroupTypes(triTypes(t, 3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewGenericTable(pruned)
	if err != nil {
		t.Fatal(err)
	}
	union, ok := shardCandidateUnion(t, src, 4)
	if !ok {
		t.Fatal("a slice answered no candidates")
	}
	want, _, err := src.t.all.buildRangeCandidates(context.Background(), 0, int(src.Size()), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, wantTEs, err := src.Frontier(5e7)
	if err != nil {
		t.Fatal(err)
	}
	installs := 0
	for round := 0; round < 20; round++ {
		g, err := NewGenericTable(pruned)
		if err != nil {
			t.Fatal(err)
		}
		var (
			installed bool
			evaluated uint64
			tes       []pareto.TE
			ferr      error
			group     sync.WaitGroup
		)
		group.Add(2)
		go func() {
			defer group.Done()
			installed = g.InstallCandidates(union)
		}()
		go func() {
			defer group.Done()
			_, tes, evaluated, ferr = g.FrontierCounted(context.Background(), 5e7, 2)
		}()
		group.Wait()
		if ferr != nil {
			t.Fatal(ferr)
		}
		if built := evaluated > g.Size(); built == installed {
			t.Fatalf("round %d: install stored %t, frontier built %t (evaluated %d); want exactly one", round, installed, built, evaluated)
		}
		if installed {
			installs++
		}
		if got := g.cand.set.Load(); got == nil || !slices.Equal(got.idx, want.idx) {
			t.Fatalf("round %d: stored set %v, want %v", round, got, want.idx)
		}
		if !slices.Equal(tes, wantTEs) {
			t.Fatalf("round %d: frontier differs from the walk", round)
		}
	}
	t.Logf("the install stored the set in %d of 20 rounds", installs)
}
