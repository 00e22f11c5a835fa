package cluster

// Sharded walkers: each replica of a fleet walks only its slice of an
// enumeration index space, and the slices merge back bit-identical to
// the serial walk. Shard i of n owns the contiguous serial indices
// [⌊i·N/n⌋, ⌊(i+1)·N/n⌋) (shard.Shard.Range), a deterministic,
// coordination-free, exact partition whose cardinalities differ by at
// most one. Per-point kernel cost does not depend on the index, so equal
// cardinality is balanced work: on the unpruned 4/4/4 tri-cluster space
// the shards' median walk times stay within ~10% of each other at n = 4
// and n = 7, less than one shard's own run-to-run spread
// (BenchmarkGenericTableFrontierShard, six runs on 2 shared vCPUs).
//
// Determinism rests on one rule: every point carries its index in the
// serial enumeration order, a shard walks its range in that order, and
// the merge (GenericTable.FrontierOfIndices) re-evaluates the partial
// frontiers' survivors in ascending serial index. Because a Pareto
// frontier is order-independent up to duplicate resolution, and
// first-offered-wins in serial order is smallest-index-wins, the merged
// frontier equals the serial frontier bit for bit — TEs and payloads —
// which TestShardedFrontierBitIdentical pins for 1/2/4/7 shards with and
// without domination pruning.

import (
	"context"
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
// its range of serial indices in ascending order, each yielded with its
// index. The yielded point is scratch, as in ForEach; yield returning
// false stops the walk early (not an error).
func (g *GenericTable) ForEachShard(w float64, sh shard.Shard, yield func(p GenericPoint, index uint64) bool) error {
	if err := g.check(w); err != nil {
		return err
	}
	if err := sh.Validate(); err != nil {
		return err
	}
	lo, hi := sh.Range(g.t.size)
	c := g.t.all.newCursor()
	c.start(lo)
	for i := lo; i < hi; i++ {
		c.eval(w)
		if !yield(c.p, i) {
			return nil
		}
		c.next()
	}
	return nil
}

// FrontierShard walks shard sh's range of the space for w work units
// through an online frontier and returns the partial frontier with each
// point's serial index. It always walks the whole range — the oracle
// FrontierShardCounted's candidate sets answer for — and evaluates
// every point of it.
func (g *GenericTable) FrontierShard(w float64, sh shard.Shard) (ShardFrontier[GenericPoint], error) {
	lo, hi, err := g.shardRange(w, sh)
	if err != nil {
		return ShardFrontier[GenericPoint]{}, err
	}
	idx, tes, err := g.t.all.rangeFrontier(context.Background(), w, lo, hi)
	if err != nil {
		return ShardFrontier[GenericPoint]{}, err
	}
	c := g.t.all.newCursor()
	return ShardFrontier[GenericPoint]{Points: c.points(idx, w), TEs: tes, Indices: idx}, nil
}

// FrontierShardCounted answers FrontierShard's query, bit for bit, plus
// how many points it evaluated. It is frontierRange over the slice, on
// the calling goroutine: the slice's first call builds its margin
// candidate set (candidates.go) by one walk of the range at w = 1, and
// every call then offers only the slice's candidates, in serial order,
// to the online frontier. Slice 0/1 uses the table's own set. Where no
// set applies — w outside the table's guarded range, a set over its
// cap, a slice the table's slice budget does not admit — it walks the
// range. ctx is checked on entry and while walking; a cancelled or
// expired call returns its error, and a build it stopped is not kept.
func (g *GenericTable) FrontierShardCounted(ctx context.Context, w float64, sh shard.Shard) (ShardFrontier[GenericPoint], uint64, error) {
	lo, hi, err := g.shardRange(w, sh)
	if err != nil {
		return ShardFrontier[GenericPoint]{}, 0, err
	}
	return g.frontierRange(ctx, w, lo, hi, 1)
}

// shardRange checks a shard query and returns the slice's serial range.
func (g *GenericTable) shardRange(w float64, sh shard.Shard) (lo, hi uint64, err error) {
	if err := g.check(w); err != nil {
		return 0, 0, err
	}
	if err := sh.Validate(); err != nil {
		return 0, 0, err
	}
	lo, hi = sh.Range(g.t.size)
	return lo, hi, nil
}

// noCandidates is the set of a range without one; it covers no w.
var noCandidates candidateSet

// sliceIndex returns the candidate index of the serial range [lo, hi):
// the table's own for the whole space, the slice's (sliceSets)
// otherwise. An empty range or a space too large to index has none.
func (g *GenericTable) sliceIndex(lo, hi uint64) *candidateIndex {
	switch _, err := g.t.intSize(); {
	case err != nil || lo == hi:
		return nil
	case lo == 0 && hi == g.t.size:
		return g.cand
	}
	return g.slices.index(subspace{lo, hi}, nil)
}

// rangePollMask sets how often a range walk polls its context: every
// 256 points, rare enough to be free and frequent enough that an expired
// deadline stops the walk within a fraction of a millisecond.
const rangePollMask = 0xff

// rangeFrontier walks o's positions [lo, hi) for w work units — one
// decode, then odometer steps — through an online frontier whose payload
// is the position, so nothing is copied per retained point. It returns
// the survivors' positions and TEs, time-ascending. ctx is polled every
// rangePollMask+1 points.
func (o *order) rangeFrontier(ctx context.Context, w float64, lo, hi uint64) ([]uint64, []pareto.TE, error) {
	var tr pareto.Tracked[uint64]
	c := o.newCursor()
	c.start(lo)
	for i := lo; i < hi; i++ {
		if (i-lo)&rangePollMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		c.eval(w)
		if _, err := tr.Insert(pareto.TE{Time: float64(c.p.Time), Energy: float64(c.p.Energy)}, i); err != nil {
			return nil, nil, err
		}
		c.next()
	}
	idx, tes := tr.TakeFrontier()
	return idx, tes, nil
}

// points evaluates the points at the given positions for w work units,
// in the given order, into one flat backing.
func (c *genCursor) points(idx []uint64, w float64) []GenericPoint {
	out := make([]GenericPoint, len(idx))
	bk := newGenBacking(len(idx), len(c.o.t.kern))
	for k, i := range idx {
		c.start(i)
		c.eval(w)
		out[k] = bk.copy(c.p)
	}
	return out
}

// MergeShardFrontiers merges partial frontiers into the frontier of the
// union of their spaces: every survivor is re-offered in ascending
// serial index, so cross-shard domination is applied and first-offered
// wins among exact duplicates exactly as in the serial walk. Merging the
// sh.Count slices of one space reproduces that space's serial frontier
// bit for bit. Kept only for the benchmark replay's shard_merge_us.
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
	var tr pareto.Tracked[int] // payload: the entry's position
	for k, e := range entries {
		if _, err := tr.Insert(pareto.TE{Time: e.te.Time, Energy: e.te.Energy}, k); err != nil {
			return ShardFrontier[T]{}, err
		}
	}
	pos, tes := tr.TakeFrontier()
	merged := ShardFrontier[T]{Points: make([]T, len(pos)), TEs: tes, Indices: make([]uint64, len(pos))}
	for j, k := range pos {
		merged.Points[j], merged.Indices[j] = entries[k].v, entries[k].idx
	}
	return merged, nil
}
