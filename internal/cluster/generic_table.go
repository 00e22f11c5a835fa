package cluster

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"unsafe"

	"heteromix/internal/pareto"
)

// GenericTable is the exported, reusable form of the generic N-type
// evaluation-kernel layer (kernel.go), the analogue of Table for
// arbitrary type lists. It is compiled once per cluster spec — the type
// list alone — and is deliberately independent of every per-request
// parameter: the work volume enters only the per-point arithmetic, so
// one table answers every work size, deadline and frontier query against
// the same cluster. One-shot drivers can keep calling EnumerateGroups*
// (which build a table internally); long-lived consumers — the serving
// daemon caches tables per cluster spec in its table cache — build
// once and amortize the model walk across requests. A GenericTable's
// coefficients are immutable after construction; its frontier candidate
// set is built once, by the first FrontierCounted call, each shard
// slice's by the slice's first FrontierShardCounted call, and the table
// is safe for concurrent use.
type GenericTable struct {
	t      *genericTable
	cand   *candidateIndex
	slices sliceSets
}

// NewGenericTable validates types and precompiles every per-node
// configuration's kernel coefficients. Respect any Configs restriction
// already on the types (e.g. from PruneGroupTypes); pruned and unpruned
// type lists compile to distinct tables.
func NewGenericTable(types []GroupType) (*GenericTable, error) {
	t, err := newGenericTable(types)
	if err != nil {
		return nil, err
	}
	return wrapGenericTable(t), nil
}

// wrapGenericTable pairs a compiled kernel table with its (not yet
// built) frontier candidate set.
func wrapGenericTable(t *genericTable) *GenericTable {
	return &GenericTable{t: t, cand: newCandidateIndex(), slices: sliceSets{budget: maxCandidates}}
}

// Types returns how many node types the table was compiled over.
func (g *GenericTable) Types() int { return len(g.t.kern) }

// Size returns the number of points the table's space holds (saturated
// at math.MaxUint64 for astronomically large bounds).
func (g *GenericTable) Size() uint64 { return g.t.size }

// SizeBytes estimates the table's resident size for cache accounting:
// the per-type kernel entries dominate; headers and per-type scalars are
// counted once. It does not grow with the node bounds. The candidate
// sets, built after a cache admits the table, are not counted: the
// table's own holds at most maxCandidates indices, a few hundred in
// practice, and all of its shard-slice sets together at most
// maxCandidates more, entries included, the least recently used making
// room for new ones (sliceSets) — 64 KiB of indices in all.
func (g *GenericTable) SizeBytes() int {
	return int(unsafe.Sizeof(GenericTable{})) + g.t.sizeBytes()
}

// sizeBytes is the kernel table's share of SizeBytes.
func (t *genericTable) sizeBytes() int {
	const entrySize = int(unsafe.Sizeof(kernelEntry{}))
	const sliceHeader = int(unsafe.Sizeof([]kernelEntry(nil)))
	// Per type: maxNodes, switchW, full and stride.
	const perType = 8 + 8 + int(unsafe.Sizeof(digitRange{})) + 8
	n := int(unsafe.Sizeof(genericTable{}))
	for _, entries := range t.kern {
		n += sliceHeader + len(entries)*entrySize + perType
	}
	return n
}

// check guards the per-call invariants every evaluation method shares.
func (g *GenericTable) check(w float64) error {
	if err := validWork(w); err != nil {
		return err
	}
	if g.t.size == 0 {
		return fmt.Errorf("cluster: generic space is empty (all MaxNodes zero?)")
	}
	return nil
}

// ForEach streams every point of the space for w work units to yield,
// in EnumerateGroups's order, without materializing anything. The
// yielded point's slices are scratch buffers valid only during the
// call — Clone to retain. Returning false from yield stops the walk
// early (not an error).
func (g *GenericTable) ForEach(w float64, yield func(GenericPoint) bool) error {
	if err := g.check(w); err != nil {
		return err
	}
	g.t.forEach(w, yield)
	return nil
}

// Enumerate materializes every point of the space for w work units, in
// the same order and with the same flat-backing allocation discipline
// as EnumerateGroups.
func (g *GenericTable) Enumerate(w float64) ([]GenericPoint, error) {
	if err := g.check(w); err != nil {
		return nil, err
	}
	n, err := g.t.intSize()
	if err != nil {
		return nil, err
	}
	out := make([]GenericPoint, 0, n)
	bk := newGenBacking(n, g.Types())
	g.t.forEach(w, func(p GenericPoint) bool {
		out = append(out, bk.copy(p))
		return true
	})
	return out, nil
}

// Frontier streams the space for w work units through an online Pareto
// frontier and returns only its optimal points, exactly as
// GenericFrontierOf does but off the precompiled table.
func (g *GenericTable) Frontier(w float64) ([]GenericPoint, []pareto.TE, error) {
	if err := g.check(w); err != nil {
		return nil, nil, err
	}
	tr := pareto.Tracked[GenericPoint]{Clone: GenericPoint.Clone}
	var insErr error
	g.t.forEach(w, func(p GenericPoint) bool {
		_, err := tr.Insert(pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy)}, p)
		if err != nil {
			insErr = err
			return false
		}
		return true
	})
	if insErr != nil {
		return nil, nil, insErr
	}
	pts, tes := tr.TakeFrontier()
	return pts, tes, nil
}

// genericFrontierChunk is the per-claim index run of the chunked
// frontier walk and the candidate build: large enough to amortize the
// per-chunk cursor and frontier, small enough that the dynamic scheduler
// balances uneven chunks.
const genericFrontierChunk = 8192

// FrontierCounted answers Frontier's query for w work units with the
// same result, bit for bit (including first-offered-wins among exact
// duplicates), without walking the space per call, and reports how many
// points it evaluated. It is frontierRange over the whole space: the
// first call builds the table's margin candidate set (candidates.go) by
// one chunked walk at w = 1 fanned out over the worker pool, and every
// call then evaluates only the candidates. Where the set does not apply
// — w outside the table's guarded range, or a set over its cap — it
// walks the space in chunks over the pool. The space is never
// materialized. workers <= 0 selects GOMAXPROCS. ctx is checked on entry
// and while walking; a cancelled or expired request returns ctx's error,
// and a build it stopped is not kept.
func (g *GenericTable) FrontierCounted(ctx context.Context, w float64, workers int) (pts []GenericPoint, tes []pareto.TE, evaluated uint64, err error) {
	if err := g.check(w); err != nil {
		return nil, nil, 0, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	part, evaluated, err := g.frontierRange(ctx, w, 0, g.t.size, workers)
	return part.Points, part.TEs, evaluated, err
}

// frontierRange answers the frontier of the serial range [lo, hi) for w
// work units, each point with its serial index: from the range's
// candidate set (sliceSet) when the set covers w, and otherwise from the
// survivors of a chunked walk of the range (walkRange). evaluated counts
// the candidates or the range walked, plus the build walk when this call
// built the set. A range of more than maxMaterialize points is an error.
func (g *GenericTable) frontierRange(ctx context.Context, w float64, lo, hi uint64, workers int) (part ShardFrontier[GenericPoint], evaluated uint64, err error) {
	if err := ctx.Err(); err != nil {
		return part, 0, err
	}
	n, err := materializable(hi - lo)
	if err != nil {
		return part, 0, err
	}
	set, evaluated, err := g.sliceSet(ctx, lo, hi, workers)
	if err != nil {
		return part, 0, err
	}
	idx := set.idx
	if set.covers(w) {
		evaluated += uint64(len(idx))
	} else {
		if idx, err = g.t.walkRange(ctx, w, lo, n, workers); err != nil {
			return part, 0, err
		}
		evaluated += hi - lo
	}
	part, err = g.t.frontierOf(idx, w)
	return part, evaluated, err
}

// walkRange is the chunked walk of the n points from serial index base:
// each claimed chunk keeps the serial indices of its own frontier
// (rangeFrontier), and the chunks' survivors come back in ascending
// order. Every point a chunk drops is dominated by, or an exact later
// duplicate of, a survivor of that chunk, so frontierOf over the
// survivors is the serial walk's frontier.
func (t *genericTable) walkRange(ctx context.Context, w float64, base uint64, n, workers int) ([]uint64, error) {
	survivors := make([][]uint64, (n+genericFrontierChunk-1)/genericFrontierChunk)
	err := parallelFor(n, workers, genericFrontierChunk, func(lo, hi int) (err error) {
		// parallelFor claims start at chunk multiples, so lo identifies
		// the chunk's slot.
		survivors[lo/genericFrontierChunk], _, err = t.rangeFrontier(ctx, w, base+uint64(lo), base+uint64(hi))
		return err
	})
	if err != nil {
		return nil, err
	}
	idx := slices.Concat(survivors...)
	slices.Sort(idx)
	return idx, nil
}

// frontierOf offers the points at the ascending serial indices idx,
// evaluated for w work units, to an online frontier, each TE carrying
// its offer position as its Index, then evaluates only the survivors
// into one flat backing. The result is what the serial walk gives when
// every other point is, at w, dominated by one of them or an exact
// duplicate of one with a smaller index.
func (t *genericTable) frontierOf(idx []uint64, w float64) (ShardFrontier[GenericPoint], error) {
	var f pareto.OnlineFrontier
	c := t.newCursor()
	for k, i := range idx {
		c.seek(i + 1)
		c.eval(w)
		if _, err := f.Add(pareto.TE{Time: float64(c.p.Time), Energy: float64(c.p.Energy), Index: k}); err != nil {
			return ShardFrontier[GenericPoint]{}, err
		}
	}
	tes := f.TakeFrontier()
	keep := make([]uint64, len(tes))
	for j := range tes {
		keep[j], tes[j].Index = idx[tes[j].Index], j
	}
	return ShardFrontier[GenericPoint]{Points: c.points(keep, w), TEs: tes, Indices: keep}, nil
}

// FrontierOfIndices evaluates the points at serial indices idx (any
// order; idx is not modified) for w work units and returns their
// frontier, offered in ascending index as in the serial walk. Given the
// survivors of partial frontiers covering the space — a fleet's shards —
// it is the serial frontier, bit for bit. An index at or past Size() is
// an error.
func (g *GenericTable) FrontierOfIndices(w float64, idx []uint64) ([]GenericPoint, []pareto.TE, error) {
	if err := g.check(w); err != nil {
		return nil, nil, err
	}
	for _, i := range idx {
		if i >= g.t.size {
			return nil, nil, fmt.Errorf("cluster: serial index %d outside a space of %d points", i, g.t.size)
		}
	}
	sorted := slices.Clone(idx)
	slices.Sort(sorted)
	part, err := g.t.frontierOf(sorted, w)
	return part.Points, part.TEs, err
}
