package cluster

// Sharded walkers: each replica of a fleet walks only its slice of an
// enumeration index space, and the slices merge back bit-identical to
// the serial walk. The slice is defined by a keyed Feistel permutation
// of the index space (internal/shard): shard i of n owns the permuted
// positions j ≡ i (mod n), a deterministic, coordination-free, exact
// partition whose cardinalities differ by at most one — and, because
// the permutation shuffles uniformly, whose *work* is balanced even
// when the enumeration order has structure (consecutive indices share
// their slower types' node counts).
//
// Determinism across the permuted walk order rests on one rule: every
// point carries its index in the *serial* enumeration order, partial
// frontiers retain the smallest index among exact (time, energy)
// duplicates (pareto.TrackedIndexed), and MergeShardFrontiers re-offers
// the partial frontiers' survivors in ascending serial index. Because a
// Pareto frontier is order-independent up to duplicate resolution, and
// the serial walk's first-offered-wins is exactly smallest-index-wins,
// the merged frontier equals the serial frontier bit for bit — TEs and
// payloads — which TestShardedFrontierBitIdentical pins for 1/2/4/7
// shards with and without domination pruning.

import (
	"fmt"
	"sort"

	"heteromix/internal/pareto"
	"heteromix/internal/shard"
)

// ShardFrontier is one shard's partial Pareto frontier: the retained
// points, their TEs (time-ascending) and each point's index in the
// serial enumeration order — the merge key.
type ShardFrontier[T any] struct {
	Points  []T
	TEs     []pareto.TE
	Indices []uint64
}

// ForEachShard streams shard sh's slice of the space for w work units:
// the permuted positions j ≡ sh.Index (mod sh.Count), evaluated at
// their serial index perm(j) and yielded with that index. The yielded
// point is scratch, as in ForEach; yield returning false stops the walk
// early (not an error).
func (g *GenericTable) ForEachShard(w float64, sh shard.Shard, yield func(p GenericPoint, index uint64) bool) error {
	if err := g.check(w); err != nil {
		return err
	}
	if err := sh.Validate(); err != nil {
		return err
	}
	perm := shard.NewPermutation(g.t.size, shard.DefaultSeed)
	c := g.t.newCursor()
	for j := uint64(sh.Index); j < g.t.size; j += uint64(sh.Count) {
		idx := perm.Apply(j)
		// Serial index idx maps to mixed-radix vector idx+1: vector 0 is
		// the all-absent one, so every vector in [1, size] is a real point
		// and eval cannot report absent here.
		c.seek(idx + 1)
		c.eval(w)
		if !yield(c.p, idx) {
			return nil
		}
	}
	return nil
}

// FrontierShard streams shard sh's slice through an online frontier and
// returns the partial frontier with serial indices. Duplicates resolve
// toward the smallest serial index (not first-offered: the shard walk
// order is permuted), so shard frontiers merge deterministically.
func (g *GenericTable) FrontierShard(w float64, sh shard.Shard) (ShardFrontier[GenericPoint], error) {
	tr := pareto.TrackedIndexed[GenericPoint]{Clone: GenericPoint.Clone}
	var insErr error
	err := g.ForEachShard(w, sh, func(p GenericPoint, idx uint64) bool {
		if _, err := tr.Insert(pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy)}, idx, p); err != nil {
			insErr = err
			return false
		}
		return true
	})
	if err == nil {
		err = insErr
	}
	if err != nil {
		return ShardFrontier[GenericPoint]{}, err
	}
	pts, tes, idxs := tr.Frontier()
	return ShardFrontier[GenericPoint]{Points: pts, TEs: tes, Indices: idxs}, nil
}

// EnumerateGroupsShard materializes shard sh's slice of the generic
// space in its permuted walk order, returning each point with its
// serial enumeration index. The union of all sh.Count slices is exactly
// EnumerateGroups's output (as a set keyed by index).
func EnumerateGroupsShard(types []GroupType, w float64, sh shard.Shard) ([]GenericPoint, []uint64, error) {
	g, err := NewGenericTable(types)
	if err != nil {
		return nil, nil, err
	}
	if err := g.check(w); err != nil {
		return nil, nil, err
	}
	if err := sh.Validate(); err != nil {
		return nil, nil, err
	}
	if _, err := g.t.intSize(); err != nil {
		return nil, nil, err
	}
	n := int(sh.SliceSize(g.t.size))
	out := make([]GenericPoint, 0, n)
	idxs := make([]uint64, 0, n)
	bk := newGenBacking(n, g.Types())
	err = g.ForEachShard(w, sh, func(p GenericPoint, idx uint64) bool {
		out = append(out, bk.copy(p))
		idxs = append(idxs, idx)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	return out, idxs, nil
}

// MergeShardFrontiers merges partial frontiers into the frontier of the
// union of their spaces: every survivor is re-offered in ascending
// serial index, so cross-shard domination is applied and duplicate
// resolution matches the serial walk. Merging the sh.Count slices of
// one space reproduces that space's serial frontier bit for bit.
func MergeShardFrontiers[T any](parts []ShardFrontier[T]) (ShardFrontier[T], error) {
	type entry struct {
		te  pareto.TE
		idx uint64
		v   T
	}
	total := 0
	for _, p := range parts {
		if len(p.TEs) != len(p.Points) || len(p.Indices) != len(p.Points) {
			return ShardFrontier[T]{}, fmt.Errorf("cluster: ragged shard frontier (%d points, %d TEs, %d indices)",
				len(p.Points), len(p.TEs), len(p.Indices))
		}
		total += len(p.Points)
	}
	entries := make([]entry, 0, total)
	for _, p := range parts {
		for i := range p.Points {
			entries = append(entries, entry{te: p.TEs[i], idx: p.Indices[i], v: p.Points[i]})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].idx < entries[j].idx })
	var tr pareto.TrackedIndexed[T] // inputs are already owned copies: no Clone
	for _, e := range entries {
		if _, err := tr.Insert(pareto.TE{Time: e.te.Time, Energy: e.te.Energy}, e.idx, e.v); err != nil {
			return ShardFrontier[T]{}, err
		}
	}
	pts, tes, idxs := tr.Frontier()
	return ShardFrontier[T]{Points: pts, TEs: tes, Indices: idxs}, nil
}
