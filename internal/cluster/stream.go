package cluster

import "heteromix/internal/pareto"

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
	t.twoTypeOrder(maxARM, maxAMD).eachPoint(w, yield)
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
	return t.frontierTwoType(maxARM, maxAMD, w)
}

// frontierTwoType walks the bounded two-type space in Enumerate's order
// through an online Pareto frontier: the walk FrontierOf and
// Table.Frontier share, and the oracle Table.FrontierCounted answers
// for. Points need no Clone hook: the two-type walk yields value-type
// Points with no retained backing storage.
func (t *genericTable) frontierTwoType(maxARM, maxAMD int, w float64) (pts []Point, tes []pareto.TE, err error) {
	var tr pareto.Tracked[Point]
	t.twoTypeOrder(maxARM, maxAMD).eachPoint(w, func(p Point) bool {
		_, err = tr.Insert(pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy)}, p)
		return err == nil
	})
	if err != nil {
		return nil, nil, err
	}
	pts, tes = tr.TakeFrontier()
	return pts, tes, nil
}
