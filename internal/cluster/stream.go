package cluster

import (
	"context"

	"heteromix/internal/pareto"
)

// This file is the streaming enumeration API: callers that only need an
// aggregate of the configuration space — a Pareto frontier, a minimum, a
// count — consume points as they are produced and never hold the full
// point slice (36,380 entries for the paper's 10x10 space, millions for
// the scaling studies).

// EnumerateFunc streams every point of the space to yield, in
// Enumerate's order, without materializing the point slice. Returning
// false from yield stops the enumeration early (not an error).
func (s Space) EnumerateFunc(maxARM, maxAMD int, w float64, yield func(Point) bool) error {
	t, err := s.compile(maxARM, maxAMD, w, nil, nil)
	if err != nil {
		return err
	}
	t.forEachTwoType(maxARM, maxAMD, w, yield)
	return nil
}

// FrontierOf enumerates the space and returns only its Pareto-optimal
// points, maintained online as the enumeration streams: the full space is
// never materialized, only the current frontier (typically a few hundred
// points). The returned TE slice is the energy-deadline frontier in
// pareto.Frontier's order (time-ascending), with each Index pointing into
// the returned point slice.
func FrontierOf(s Space, maxARM, maxAMD int, w float64) ([]Point, []pareto.TE, error) {
	t, err := s.compile(maxARM, maxAMD, w, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	pts, tes, _, err := t.frontierTwoType(context.Background(), maxARM, maxAMD, w)
	return pts, tes, err
}

// frontierTwoType walks the bounded two-type space in Enumerate's order
// through an online Pareto frontier; the shared core of FrontierOf,
// Table.Frontier and Table.FrontierCounted. walked counts the points
// evaluated. ctx is polled every rangePollMask+1 points. Points need no
// Clone hook: the two-type walk yields value-type Points with no
// retained backing storage.
func (t *genericTable) frontierTwoType(ctx context.Context, maxARM, maxAMD int, w float64) (pts []Point, tes []pareto.TE, walked uint64, err error) {
	if err := validBounds(maxARM, maxAMD); err != nil {
		return nil, nil, 0, err
	}
	if err := validWork(w); err != nil {
		return nil, nil, 0, err
	}
	var tr pareto.Tracked[Point]
	t.forEachTwoType(maxARM, maxAMD, w, func(p Point) bool {
		if walked&rangePollMask == 0 {
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		walked++
		_, err = tr.Insert(pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy)}, p)
		return err == nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	pts, tes = tr.TakeFrontier()
	return pts, tes, walked, nil
}
