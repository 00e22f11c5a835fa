package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"heteromix/internal/shard"
)

// The 3-type benchmark space: the tri-cluster example's A9/A15/K10 mix
// at 4 nodes per type — 384,344 configurations before pruning.
func benchTriTypes(b *testing.B) []GroupType {
	return triTypes(b, 4, 4, 4)
}

func BenchmarkEnumerateGroupsSerial(b *testing.B) {
	types := benchTriTypes(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := EnumerateGroups(types, 50e6)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("empty space")
		}
	}
}

// Pruned materialization: domination pruning shrinks the per-type option
// lists before the same flat-backed enumeration.
func BenchmarkEnumerateGroupsPruned(b *testing.B) {
	pruned, err := PruneGroupTypes(benchTriTypes(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := EnumerateGroups(pruned, 50e6)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("empty space")
		}
	}
}

// Streaming frontier over the full space: nothing materialized, only
// frontier survivors copied out of the scratch buffers.
func BenchmarkEnumerateGroupsFrontier(b *testing.B) {
	types := benchTriTypes(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tes, err := GenericFrontierOf(types, 50e6)
		if err != nil {
			b.Fatal(err)
		}
		if len(tes) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// The production path and the issue's headline number: pruning +
// parallel evaluation + streaming online frontier on the same 3-type
// space BenchmarkEnumerateGroupsSerial materializes in full.
func BenchmarkEnumerateGroupsParallel(b *testing.B) {
	pruned, err := PruneGroupTypes(benchTriTypes(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := NewGenericTable(pruned)
		if err != nil {
			b.Fatal(err)
		}
		_, tes, _, err := g.FrontierCounted(context.Background(), 50e6, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(tes) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// A warm table answering frontier queries at seeded varying work sizes,
// the serving daemon's steady state on a cached table where every
// request is a result-cache miss: after the first call builds the
// candidate set, each query evaluates only the candidates.
func BenchmarkGenericTableFrontierWarm(b *testing.B) {
	pruned, err := PruneGroupTypes(benchTriTypes(b))
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGenericTable(pruned)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, _, _, err := g.FrontierCounted(ctx, 50e6, 0); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tes, _, err := g.FrontierCounted(ctx, 50e6*(0.5+rng.Float64()), 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(tes) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// One shard's walk of the unpruned tri-cluster space (384,344 points),
// one sub-benchmark per shard at n = 4 and n = 7: what a fleet replica
// pays per cold shard request, and how evenly the slices split the work.
func BenchmarkGenericTableFrontierShard(b *testing.B) {
	g, err := NewGenericTable(benchTriTypes(b))
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4, 7} {
		for i := 0; i < n; i++ {
			sh := shard.Shard{Index: i, Count: n}
			b.Run(fmt.Sprintf("n=%d/shard=%d", n, i), func(b *testing.B) {
				b.ReportAllocs()
				for k := 0; k < b.N; k++ {
					part, err := g.FrontierShard(50e6, sh)
					if err != nil {
						b.Fatal(err)
					}
					if len(part.TEs) == 0 {
						b.Fatal("empty shard frontier")
					}
				}
			})
		}
	}
}

// A warm replica's shard request: FrontierShardCounted on each slice of
// the pruned tri-cluster space at n = 4 (the table a fleet's
// frontier-only sub-requests walk), after one call built the slice's
// candidate set, at varying work sizes.
func BenchmarkGenericTableFrontierShardWarm(b *testing.B) {
	pruned, err := PruneGroupTypes(benchTriTypes(b))
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGenericTable(pruned)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const n = 4
	for i := 0; i < n; i++ {
		sh := shard.Shard{Index: i, Count: n}
		if _, _, err := g.FrontierShardCounted(ctx, 50e6, sh); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/shard=%d", n, i), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				part, _, err := g.FrontierShardCounted(ctx, 50e6*(0.5+rng.Float64()), sh)
				if err != nil {
					b.Fatal(err)
				}
				if len(part.TEs) == 0 {
					b.Fatal("empty shard frontier")
				}
			}
		})
	}
}
