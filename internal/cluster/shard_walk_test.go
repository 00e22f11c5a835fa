package cluster

import (
	"reflect"
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

// TestShardedEnumerationPartitionsSpace: the n shard slices of
// EnumerateGroupsShard cover every serial index exactly once, match
// SliceSize, and every point equals the serial enumeration's point at
// its claimed index.
func TestShardedEnumerationPartitionsSpace(t *testing.T) {
	const w = 50e6
	types := triTypes(t, 1, 1, 1)
	serial, err := EnumerateGroups(types, w)
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(len(serial))
	for _, n := range shardSpecs {
		seen := make([]bool, size)
		total := uint64(0)
		for i := 0; i < n; i++ {
			sh := shard.Shard{Index: i, Count: n}
			pts, idxs, err := EnumerateGroupsShard(types, w, sh)
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) != len(idxs) {
				t.Fatalf("n=%d shard %d: %d points, %d indices", n, i, len(pts), len(idxs))
			}
			if got := uint64(len(pts)); got != sh.SliceSize(size) {
				t.Fatalf("n=%d shard %d: %d points, SliceSize says %d", n, i, got, sh.SliceSize(size))
			}
			for k, idx := range idxs {
				if idx >= size {
					t.Fatalf("n=%d shard %d: index %d out of space", n, i, idx)
				}
				if seen[idx] {
					t.Fatalf("n=%d: index %d owned by two shards", n, idx)
				}
				seen[idx] = true
				if !reflect.DeepEqual(pts[k], serial[idx]) {
					t.Fatalf("n=%d shard %d: point at index %d differs from serial enumeration\n got %+v\nwant %+v",
						n, i, idx, pts[k], serial[idx])
				}
			}
			total += uint64(len(pts))
		}
		if total != size {
			t.Fatalf("n=%d: shards cover %d of %d points", n, total, size)
		}
	}
}

// TestShardWalkValidation: malformed shard specs and invalid work are
// rejected by every sharded entry point, and early stop from yield is
// not an error.
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
		if _, _, err := EnumerateGroupsShard(types, w, sh); err == nil {
			t.Fatalf("EnumerateGroupsShard accepted %+v", sh)
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

	if _, err := MergeShardFrontiers([]ShardFrontier[int]{{Points: []int{1}, TEs: nil, Indices: []uint64{0}}}); err == nil {
		t.Fatal("MergeShardFrontiers accepted a ragged part")
	}
}
