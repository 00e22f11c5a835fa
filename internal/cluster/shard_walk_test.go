package cluster

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"heteromix/internal/shard"
)

// shardSpecs is the adversarial shard-count battery from the issue:
// unsharded, even splits, and a count coprime to everything in the
// space's factorization.
var shardSpecs = []int{1, 2, 4, 7}

// TestShardedFrontierBitIdentical is the tentpole property: for the
// tri-type space, merging the n partial frontiers reproduces the serial
// frontier bit for bit — TEs and payloads — for every shard count, with
// and without domination pruning of the per-type config lists.
func TestShardedFrontierBitIdentical(t *testing.T) {
	const w = 50e6
	base := triTypes(t, 2, 2, 2)
	pruned, err := PruneGroupTypes(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		types []GroupType
	}{
		{"full", base},
		{"pruned", pruned},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantPts, wantTEs, err := GenericFrontierOf(tc.types, w)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGenericTable(tc.types)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range shardSpecs {
				parts := make([]ShardFrontier[GenericPoint], n)
				for i := 0; i < n; i++ {
					parts[i], err = g.FrontierShard(w, shard.Shard{Index: i, Count: n})
					if err != nil {
						t.Fatal(err)
					}
				}
				merged, err := MergeShardFrontiers(parts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(merged.TEs, wantTEs) {
					t.Fatalf("n=%d: merged TEs differ from serial frontier\n got %v\nwant %v", n, merged.TEs, wantTEs)
				}
				if !reflect.DeepEqual(merged.Points, wantPts) {
					t.Fatalf("n=%d: merged payloads differ from serial frontier", n)
				}
			}
		})
	}
}

// TestFrontierOfIndicesMergesShards: the shard slices' survivor
// indices, gathered in any order, merge through FrontierOfIndices into
// the serial frontier bit for bit; the caller's slice is left as it
// was, and an index past the space is refused.
func TestFrontierOfIndicesMergesShards(t *testing.T) {
	const w = 50e6
	types, err := PruneGroupTypes(triTypes(t, 2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	wantPts, wantTEs, err := GenericFrontierOf(types, w)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenericTable(types)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range shardSpecs {
		var idx []uint64
		for i := n - 1; i >= 0; i-- { // last slice first: the merge sorts
			part, err := g.FrontierShard(w, shard.Shard{Index: i, Count: n})
			if err != nil {
				t.Fatal(err)
			}
			idx = append(idx, part.Indices...)
		}
		given := slices.Clone(idx)
		pts, tes, err := g.FrontierOfIndices(w, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tes, wantTEs) || !reflect.DeepEqual(pts, wantPts) {
			t.Fatalf("n=%d: merged frontier differs from the serial one\n got %v\nwant %v", n, tes, wantTEs)
		}
		if !slices.Equal(idx, given) {
			t.Fatalf("n=%d: FrontierOfIndices reordered its argument", n)
		}
	}
	if _, _, err := g.FrontierOfIndices(w, []uint64{0, g.Size()}); err == nil {
		t.Fatal("FrontierOfIndices accepted an index past the space")
	}
}

// TestShardedEnumerationPartitionsSpace: the n shard slices of
// ForEachShard cover every serial index exactly once, in ascending
// order, match SliceSize, and every point equals the serial
// enumeration's point at its claimed index.
func TestShardedEnumerationPartitionsSpace(t *testing.T) {
	const w = 50e6
	types := triTypes(t, 1, 1, 1)
	serial, err := EnumerateGroups(types, w)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenericTable(types)
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(len(serial))
	for _, n := range shardSpecs {
		next := uint64(0)
		for i := 0; i < n; i++ {
			sh := shard.Shard{Index: i, Count: n}
			count := uint64(0)
			err := g.ForEachShard(w, sh, func(p GenericPoint, idx uint64) bool {
				if idx != next {
					t.Fatalf("n=%d shard %d: yielded index %d, want %d", n, i, idx, next)
				}
				if !reflect.DeepEqual(p, serial[idx]) {
					t.Fatalf("n=%d shard %d: point at index %d differs from serial enumeration\n got %+v\nwant %+v",
						n, i, idx, p, serial[idx])
				}
				next++
				count++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if count != sh.SliceSize(size) {
				t.Fatalf("n=%d shard %d: %d points, SliceSize says %d", n, i, count, sh.SliceSize(size))
			}
		}
		if next != size {
			t.Fatalf("n=%d: shards cover %d of %d points", n, next, size)
		}
	}
}

// TestShardWalkValidation: malformed shard specs and invalid work are
// rejected by every sharded entry point, early stop from yield is not
// an error, a cancelled shard walk returns ctx's error, and a finished
// one — an empty slice included — reports its slice's size as the
// points evaluated.
func TestShardWalkValidation(t *testing.T) {
	const w = 50e6
	types := triTypes(t, 1, 1, 1)
	g, err := NewGenericTable(types)
	if err != nil {
		t.Fatal(err)
	}
	bad := []shard.Shard{{Index: 0, Count: 0}, {Index: 4, Count: 4}, {Index: -1, Count: 2}}
	for _, sh := range bad {
		if err := g.ForEachShard(w, sh, func(GenericPoint, uint64) bool { return true }); err == nil {
			t.Fatalf("generic ForEachShard accepted %+v", sh)
		}
		if _, err := g.FrontierShard(w, sh); err == nil {
			t.Fatalf("generic FrontierShard accepted %+v", sh)
		}
	}
	if err := g.ForEachShard(-1, shard.Shard{Index: 0, Count: 1}, func(GenericPoint, uint64) bool { return true }); err == nil {
		t.Fatal("generic ForEachShard accepted negative work")
	}
	steps := 0
	err = g.ForEachShard(w, shard.Shard{Index: 0, Count: 1}, func(GenericPoint, uint64) bool {
		steps++
		return steps < 3
	})
	if err != nil || steps != 3 {
		t.Fatalf("early stop: err=%v steps=%d", err, steps)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.FrontierShardCounted(ctx, w, shard.Shard{Index: 0, Count: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled shard walk: err=%v, want context.Canceled", err)
	}
	for _, sh := range []shard.Shard{{Index: 1, Count: 3}, {Index: 0, Count: int(g.Size()) + 1}} {
		part, n, err := g.FrontierShardCounted(context.Background(), w, sh)
		if err != nil || n != sh.SliceSize(g.Size()) || (n == 0) != (len(part.Points) == 0) {
			t.Fatalf("shard %v walk evaluated %d points into %d (err=%v), want its slice's %d",
				sh, n, len(part.Points), err, sh.SliceSize(g.Size()))
		}
	}

	if _, err := MergeShardFrontiers([]ShardFrontier[int]{{Points: []int{1}, TEs: nil, Indices: []uint64{0}}}); err == nil {
		t.Fatal("MergeShardFrontiers accepted a ragged part")
	}
}
