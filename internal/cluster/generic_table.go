package cluster

import (
	"context"
	"fmt"
	"runtime"
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
// once and amortize the model walk across requests. A GenericTable is
// immutable after construction and safe for concurrent use.
type GenericTable struct {
	t *genericTable
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
	return &GenericTable{t: t}, nil
}

// Types returns how many node types the table was compiled over.
func (g *GenericTable) Types() int { return len(g.t.kern) }

// Size returns the number of points the table's space holds (saturated
// at math.MaxUint64 for astronomically large bounds).
func (g *GenericTable) Size() uint64 { return g.t.size }

// SizeBytes estimates the table's resident size for cache accounting:
// the per-type kernel entries dominate; headers and per-type scalars are
// counted once. It does not grow with the node bounds.
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
	pts, tes := tr.Frontier()
	return pts, tes, nil
}

// genericFrontierChunk is the per-claim index run of the parallel
// frontier: large enough to amortize the per-chunk cursor and frontier,
// small enough that the dynamic scheduler balances uneven chunks.
const genericFrontierChunk = 8192

// FrontierParallel is Frontier fanned out over a worker pool: each
// claimed chunk maintains its own online frontier over scratch buffers
// and the chunk frontiers are merged in enumeration order, so the
// result is identical to the serial path (including
// first-offered-wins among exact duplicates). The space is never
// materialized — at most the per-chunk frontiers live at once.
// workers <= 0 selects GOMAXPROCS. ctx is checked once per claimed
// chunk, so a cancelled or expired request stops within one chunk's
// walk and the call returns ctx's error.
func (g *GenericTable) FrontierParallel(ctx context.Context, w float64, workers int) ([]GenericPoint, []pareto.TE, error) {
	if err := g.check(w); err != nil {
		return nil, nil, err
	}
	n, err := g.t.intSize()
	if err != nil {
		return nil, nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	numChunks := (n + genericFrontierChunk - 1) / genericFrontierChunk
	locals := make([]pareto.Tracked[GenericPoint], numChunks)
	err = parallelFor(n, workers, genericFrontierChunk, func(lo, hi int) error {
		// parallelFor claims start at chunk multiples, so lo identifies
		// the chunk's slot in the ordered merge below.
		if err := ctx.Err(); err != nil {
			return err
		}
		tr := &locals[lo/genericFrontierChunk]
		tr.Clone = GenericPoint.Clone
		// Point indices are 1-based (index 0 is the all-absent vector); the
		// chunk's indices are consecutive, so one seek and then odometer
		// steps visit them.
		c := g.t.newCursor()
		c.seek(uint64(lo) + 1)
		for i := lo; i < hi; i++ {
			c.eval(w)
			if _, err := tr.Insert(pareto.TE{Time: float64(c.p.Time), Energy: float64(c.p.Energy)}, c.p); err != nil {
				return err
			}
			c.next()
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Merge chunk frontiers in enumeration order; chunk payloads are
	// already cloned, so the merged frontier can alias them.
	var merged pareto.Tracked[GenericPoint]
	for ci := range locals {
		pts, tes := locals[ci].Frontier()
		for j := range tes {
			if _, err := merged.Insert(pareto.TE{Time: tes[j].Time, Energy: tes[j].Energy}, pts[j]); err != nil {
				return nil, nil, err
			}
		}
	}
	pts, tes := merged.Frontier()
	return pts, tes, nil
}
