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
	// Per type: maxNodes, switchW, and the serial order's end and box of
	// one range per type.
	const rangeSize = int(unsafe.Sizeof(digitRange{}))
	const perType = 8 + 8 + 8
	n := int(unsafe.Sizeof(genericTable{}))
	for _, entries := range t.kern {
		n += sliceHeader + len(entries)*entrySize + perType + len(t.kern)*rangeSize
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
	g.t.all.forEach(w, yield)
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
	g.t.all.forEach(w, func(p GenericPoint) bool {
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
	g.t.all.forEach(w, func(p GenericPoint) bool {
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
// work units, each point with its serial index: order.frontierRange
// over the table's serial order, with the range's candidate index
// (sliceIndex), materialized into one flat backing.
func (g *GenericTable) frontierRange(ctx context.Context, w float64, lo, hi uint64, workers int) (part ShardFrontier[GenericPoint], evaluated uint64, err error) {
	c := g.t.all.newCursor()
	idx, tes, evaluated, err := g.t.all.frontierRange(ctx, &c, g.sliceIndex(lo, hi), w, lo, hi, workers)
	if err != nil {
		return part, 0, err
	}
	return c.shardFrontier(idx, tes, w), evaluated, nil
}

// frontierRange answers the frontier of o's positions [lo, hi) for w
// work units: from ci's candidate set when the set covers w, and
// otherwise from the survivors of a chunked walk of the range
// (walkRange). It returns the positions it offered and the frontier's
// TEs, each Index pointing into them; c, a cursor over o, is the
// caller's scratch for the offers. A nil ci keeps no set. evaluated
// counts the candidates or the range walked, plus the build walk when
// this call built the set. ctx is checked on entry and while walking. A
// range of more than maxMaterialize points is an error.
func (o *order) frontierRange(ctx context.Context, c *genCursor, ci *candidateIndex, w float64, lo, hi uint64, workers int) (idx []uint64, tes []pareto.TE, evaluated uint64, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	n, err := materializable(hi - lo)
	if err != nil {
		return nil, nil, 0, err
	}
	set, evaluated, err := o.rangeSet(ctx, ci, lo, n, workers)
	if err != nil {
		return nil, nil, 0, err
	}
	idx = set.idx
	if set.covers(w) {
		evaluated += uint64(len(idx))
	} else {
		if idx, err = o.walkRange(ctx, w, lo, n, workers); err != nil {
			return nil, nil, 0, err
		}
		evaluated += hi - lo
	}
	tes, err = c.frontierOf(idx, w)
	return idx, tes, evaluated, err
}

// rangeSet returns ci's candidate set of the n positions of o from base,
// building it on first use over workers goroutines; walked counts the
// points the build evaluated. A nil ci or an empty range gets
// noCandidates.
func (o *order) rangeSet(ctx context.Context, ci *candidateIndex, base uint64, n, workers int) (set *candidateSet, walked uint64, err error) {
	if ci == nil || n == 0 {
		return &noCandidates, 0, nil
	}
	return ci.get(ctx, func() (*candidateSet, uint64, error) {
		return o.buildRangeCandidates(ctx, base, n, workers)
	})
}

// walkRange is the chunked walk of the n positions of o from base: each
// claimed chunk keeps the positions of its own frontier (rangeFrontier),
// and the chunks' survivors come back in ascending order. Every point a
// chunk drops is dominated by, or an exact later duplicate of, a
// survivor of that chunk, so frontierOf over the survivors is the walk's
// frontier.
func (o *order) walkRange(ctx context.Context, w float64, base uint64, n, workers int) ([]uint64, error) {
	survivors := make([][]uint64, (n+genericFrontierChunk-1)/genericFrontierChunk)
	err := parallelFor(n, workers, genericFrontierChunk, func(lo, hi int) (err error) {
		// parallelFor claims start at chunk multiples, so lo identifies
		// the chunk's slot.
		survivors[lo/genericFrontierChunk], _, err = o.rangeFrontier(ctx, w, base+uint64(lo), base+uint64(hi))
		return err
	})
	if err != nil {
		return nil, err
	}
	idx := slices.Concat(survivors...)
	slices.Sort(idx)
	return idx, nil
}

// frontierOf offers the points at the ascending positions idx of c's
// order, evaluated for w work units, to an online frontier, each TE
// carrying its offer position in idx as its Index. The result is the
// walk's frontier when every other point is, at w, dominated by one of
// them or an exact duplicate of one at an earlier position. It needs no
// cursor beyond c.
func (c *genCursor) frontierOf(idx []uint64, w float64) ([]pareto.TE, error) {
	var f pareto.OnlineFrontier
	for k, pos := range idx {
		c.start(pos)
		c.eval(w)
		if _, err := f.Add(pareto.TE{Time: float64(c.p.Time), Energy: float64(c.p.Energy), Index: k}); err != nil {
			return nil, err
		}
	}
	return f.TakeFrontier(), nil
}

// shardFrontier evaluates frontierOf's survivors among the serial
// indices idx into one flat backing, each TE's Index turned into its
// point's.
func (c *genCursor) shardFrontier(idx []uint64, tes []pareto.TE, w float64) ShardFrontier[GenericPoint] {
	keep := make([]uint64, len(tes))
	for j := range tes {
		keep[j], tes[j].Index = idx[tes[j].Index], j
	}
	return ShardFrontier[GenericPoint]{Points: c.points(keep, w), TEs: tes, Indices: keep}
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
	c := g.t.all.newCursor()
	tes, err := c.frontierOf(sorted, w)
	if err != nil {
		return nil, nil, err
	}
	part := c.shardFrontier(sorted, tes, w)
	return part.Points, part.TEs, nil
}
