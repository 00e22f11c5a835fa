package cluster

import (
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
	return frontierOfStream(func(yield func(Point) bool) error {
		return s.EnumerateFunc(maxARM, maxAMD, w, yield)
	})
}

// frontierOfStream runs an online Pareto frontier over any streaming
// enumeration via pareto.Tracked; the shared core of FrontierOf and
// Table.Frontier. Points need no Clone hook: the two-type enumerators
// yield value-type Points with no retained backing storage.
func frontierOfStream(enumerate func(yield func(Point) bool) error) ([]Point, []pareto.TE, error) {
	var tr pareto.Tracked[Point]
	var addErr error
	err := enumerate(func(p Point) bool {
		_, err := tr.Insert(pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy)}, p)
		if err != nil {
			addErr = err
			return false
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	if addErr != nil {
		return nil, nil, addErr
	}
	pts, tes := tr.Frontier()
	return pts, tes, nil
}
