package cluster

import (
	"context"
	"fmt"
	"unsafe"

	"heteromix/internal/hwsim"
	"heteromix/internal/pareto"
)

// This file is the two-type view of the evaluation kernel (kernel.go): a
// Space is the N=2 case of the generic space, ARM as type 0 and AMD as
// type 1, and every two-type enumerator walks the generic table. Only the
// order differs. Space.Enumerate's order — the heterogeneous mixes (ARM
// count, ARM config, AMD count, AMD config), then the ARM-only family,
// then the AMD-only family — is the generic odometer run over three
// boxes of digit ranges instead of the full one. Each configuration
// carries the same bits either way (TestGenericTwoTypeMatchesSpace).

// groupTypes is the space as generic types: ARM first, so its digit is
// the slowest. nil configuration lists select every configuration.
func (s Space) groupTypes(maxARM, maxAMD int, cfgARM, cfgAMD []hwsim.Config) []GroupType {
	return []GroupType{
		{Model: s.ARM, MaxNodes: maxARM, NeedsSwitch: !s.NoSwitchEnergy, Configs: cfgARM},
		{Model: s.AMD, MaxNodes: maxAMD, Configs: cfgAMD},
	}
}

// compile validates the space bounds and work volume, then builds the
// kernel table — the shared preamble of every Space enumerator. A zero
// bound leaves that side's model untouched, as Evaluate does for groups
// with zero nodes.
func (s Space) compile(maxARM, maxAMD int, w float64, cfgARM, cfgAMD []hwsim.Config) (*genericTable, error) {
	if err := validBounds(maxARM, maxAMD); err != nil {
		return nil, err
	}
	if err := validWork(w); err != nil {
		return nil, err
	}
	return newGenericTable(s.groupTypes(maxARM, maxAMD, cfgARM, cfgAMD))
}

func validBounds(maxARM, maxAMD int) error {
	if maxARM < 0 || maxAMD < 0 || maxARM+maxAMD == 0 {
		return fmt.Errorf("cluster: invalid space %dx%d", maxARM, maxAMD)
	}
	return nil
}

// twoTypeDigits returns the highest ARM and AMD digits of the bounded
// two-type space: each type's node bound times its entry count.
func (t *genericTable) twoTypeDigits(maxARM, maxAMD int) (a, d int) {
	return maxARM * len(t.kern[0]), maxAMD * len(t.kern[1])
}

// twoTypeSize returns how many points forEachTwoType yields for the
// bounds.
func (t *genericTable) twoTypeSize(maxARM, maxAMD int) int {
	a, d := t.twoTypeDigits(maxARM, maxAMD)
	return a*d + a + d
}

// twoTypeBoxes returns the digit boxes of the bounded two-type space in
// Enumerate's order. The bounds are per call, independent of the table's
// MaxNodes.
func (t *genericTable) twoTypeBoxes(maxARM, maxAMD int) [3][2]digitRange {
	a, d := t.twoTypeDigits(maxARM, maxAMD)
	return [3][2]digitRange{
		{{1, a}, {1, d}}, // heterogeneous mixes
		{{1, a}, {0, 0}}, // ARM only
		{{0, 0}, {1, d}}, // AMD only
	}
}

// forEachTwoType streams the bounded two-type space in Enumerate's order
// without materializing anything; yield returning false stops it early.
func (t *genericTable) forEachTwoType(maxARM, maxAMD int, w float64, yield func(Point) bool) {
	c := t.newCursor()
	for _, box := range t.twoTypeBoxes(maxARM, maxAMD) {
		// Every box has a present type, so eval never reports absent.
		for ok := c.start(box[:]); ok; ok = c.next() {
			c.eval(w)
			if !yield(twoTypePoint(&c.p)) {
				return
			}
		}
	}
}

// twoTypeAt decodes position pos of forEachTwoType's order over the
// maxARM×maxAMD space into per-type node counts and entry picks, in
// O(1): the boxes hold a·d, a and d points for a ARM and d AMD digits.
func (t *genericTable) twoTypeAt(maxARM, maxAMD int, pos uint64) (count, pick [2]int) {
	ai, di := t.twoTypeDigits(maxARM, maxAMD)
	a, d := uint64(ai), uint64(di)
	var digit [2]uint64
	switch {
	case pos < a*d:
		digit = [2]uint64{pos/d + 1, pos%d + 1}
	case pos < a*d+a:
		digit[0] = pos - a*d + 1
	default:
		digit[1] = pos - a*d - a + 1
	}
	for i, dg := range digit {
		if dg > 0 {
			n := uint64(len(t.kern[i]))
			count[i], pick[i] = int((dg-1)/n+1), int((dg-1)%n)
		}
	}
	return count, pick
}

// twoTypeFrontierOf offers the points at the ascending positions idx of
// forEachTwoType's order over the maxARM×maxAMD space, evaluated for w
// work units, to an online frontier, each TE carrying its offer position
// as its Index, then evaluates only the survivors: frontierOf's shape
// for the two-type order. The result is the walk's when every other
// point is, at w, dominated by one of them or an exact duplicate of one
// at an earlier position. It allocates no cursor.
func (t *genericTable) twoTypeFrontierOf(idx []uint64, maxARM, maxAMD int, w float64) ([]Point, []pareto.TE, error) {
	var counts [2]int
	var cfgs [2]hwsim.Config
	var work [2]float64
	p := GenericPoint{Counts: counts[:], Configs: cfgs[:], Work: work[:]}
	at := func(pos uint64) {
		count, pick := t.twoTypeAt(maxARM, maxAMD, pos)
		t.eval(count[:], pick[:], w, &p)
	}
	var f pareto.OnlineFrontier
	for k, pos := range idx {
		at(pos)
		if _, err := f.Add(pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy), Index: k}); err != nil {
			return nil, nil, err
		}
	}
	tes := f.TakeFrontier()
	pts := make([]Point, len(tes))
	for j := range tes {
		at(idx[tes[j].Index])
		pts[j], tes[j].Index = twoTypePoint(&p), j
	}
	return pts, tes, nil
}

// twoTypePoint is the (ARM, AMD) point p as a Point. Absent types carry
// zero counts, configurations and work, so no case split is needed.
func twoTypePoint(p *GenericPoint) Point {
	workARM := 0.0
	if tot := p.Work[0] + p.Work[1]; tot > 0 {
		workARM = p.Work[0] / tot
	}
	return Point{
		Config: Configuration{
			ARM: TypeConfig{Nodes: p.Counts[0], Config: p.Configs[0]},
			AMD: TypeConfig{Nodes: p.Counts[1], Config: p.Configs[1]},
		},
		Time:    p.Time,
		Energy:  p.Energy,
		WorkARM: workARM,
	}
}

// Table is the exported, reusable form of the two-type kernel view: both
// models validated and their per-configuration coefficients precomputed
// once, then shared across any number of evaluations, enumerations and
// frontier queries. Enumerate* rebuilds the kernel on every call, which
// is right for one-shot experiment drivers; a long-lived consumer — the
// serving daemon memoizes one Table per (workload, switch-accounting)
// pair — builds it once and amortizes the model walk across queries. The
// node bounds are per call, so a Table's kernel does not depend on them.
// The kernel is immutable after construction; each bounds pair's
// frontier candidate set is built by that pair's first FrontierCounted
// call and kept under one budget (sliceSets). A Table is safe for
// concurrent use.
type Table struct {
	space    Space
	g        *genericTable // (ARM, AMD) entries, compiled at one node per type
	arm, amd map[hwsim.Config]int
	boxes    sliceSets // candidate sets by bounds box
}

// NewTable precomputes the kernel table for every per-node configuration
// of both specs. Unlike the enumerators, both models are always
// validated — a Table exists to answer arbitrary later queries, either
// side of which may be populated.
func (s Space) NewTable() (*Table, error) {
	g, err := newGenericTable(s.groupTypes(1, 1, nil, nil))
	if err != nil {
		return nil, err
	}
	return newTable(s, g), nil
}

// newTable indexes g's entries by configuration for Evaluate.
func newTable(s Space, g *genericTable) *Table {
	index := func(entries []kernelEntry) map[hwsim.Config]int {
		m := make(map[hwsim.Config]int, len(entries))
		for i, e := range entries {
			m[e.cfg] = i
		}
		return m
	}
	return &Table{space: s, g: g, arm: index(g.kern[0]), amd: index(g.kern[1]), boxes: sliceSets{budget: maxCandidates}}
}

// Space returns the space the table was built from.
func (t *Table) Space() Space { return t.space }

// Evaluate services w work units on one configuration from the
// precomputed coefficients. It matches Space.Evaluate point for point
// (bit-identical time and split, energy within a few ULPs) at a fraction
// of the cost: bounds checks, two map lookups and the kernel arithmetic,
// with no allocation.
func (t *Table) Evaluate(cfg Configuration, w float64) (Point, error) {
	if err := validWork(w); err != nil {
		return Point{}, err
	}
	if cfg.ARM.Nodes < 0 || cfg.AMD.Nodes < 0 {
		return Point{}, fmt.Errorf("cluster: negative node count in %v", cfg)
	}
	if cfg.ARM.Nodes+cfg.AMD.Nodes == 0 {
		return Point{}, fmt.Errorf("cluster: no nodes in any group")
	}
	count := [2]int{cfg.ARM.Nodes, cfg.AMD.Nodes}
	var pick [2]int
	var ok bool
	if count[0] > 0 {
		if pick[0], ok = t.arm[cfg.ARM.Config]; !ok {
			return Point{}, fmt.Errorf("cluster: %v is not a configuration of %s",
				cfg.ARM.Config, t.space.ARM.Spec.Name)
		}
	}
	if count[1] > 0 {
		if pick[1], ok = t.amd[cfg.AMD.Config]; !ok {
			return Point{}, fmt.Errorf("cluster: %v is not a configuration of %s",
				cfg.AMD.Config, t.space.AMD.Spec.Name)
		}
	}
	var counts [2]int
	var cfgs [2]hwsim.Config
	var work [2]float64
	p := GenericPoint{Counts: counts[:], Configs: cfgs[:], Work: work[:]}
	t.g.eval(count[:], pick[:], w, &p)
	return twoTypePoint(&p), nil
}

// Size returns how many points ForEach yields for the bounds.
func (t *Table) Size(maxARM, maxAMD int) int { return t.g.twoTypeSize(maxARM, maxAMD) }

// SizeBytes estimates the table's resident size for cache accounting:
// the kernel table and the config-index maps (counted at a flat
// per-entry overhead), plus the struct itself. As for GenericTable, the
// candidate sets, built after a cache admits the table, are not counted:
// all of its bounds boxes' sets together hold at most maxCandidates
// units, entries included, the least recently used making room for new
// ones — 32 KiB of positions in all.
func (t *Table) SizeBytes() int {
	// A map entry costs roughly its key+value plus bucket overhead.
	const mapEntry = int(unsafe.Sizeof(hwsim.Config{})) + 8 + 16
	return int(unsafe.Sizeof(Table{})) + t.g.sizeBytes() + (len(t.arm)+len(t.amd))*mapEntry
}

// ForEach streams every point of the bounded space to yield in
// Enumerate's order; yield returning false stops the walk early (not an
// error).
func (t *Table) ForEach(maxARM, maxAMD int, w float64, yield func(Point) bool) error {
	if err := validBounds(maxARM, maxAMD); err != nil {
		return err
	}
	if err := validWork(w); err != nil {
		return err
	}
	t.g.forEachTwoType(maxARM, maxAMD, w, yield)
	return nil
}

// Frontier enumerates the bounded space and returns only its
// Pareto-optimal points, exactly as FrontierOf does but off the
// precomputed table. It always walks the space: it is the serial oracle
// FrontierCounted answers for.
func (t *Table) Frontier(maxARM, maxAMD int, w float64) ([]Point, []pareto.TE, error) {
	pts, tes, _, err := t.g.frontierTwoType(context.Background(), maxARM, maxAMD, w)
	return pts, tes, err
}

// FrontierCounted answers Frontier's query, bit for bit (including
// first-offered-wins among exact duplicates), without walking the space
// per call, and reports how many points it evaluated. The first call for
// a bounds pair builds that box's margin candidate set (candidates.go)
// by one walk at w = 1 in Frontier's order, on the calling goroutine;
// every call then offers only the candidates, in that order, to the
// online frontier and evaluates only the survivors. Where the set does
// not apply — w outside the box's guarded range, or a set over its cap
// or the table's budget — it walks the space. ctx is checked on entry
// and polled every 256 points while walking; a cancelled or expired
// call returns ctx's error, and a build it stopped is not kept.
func (t *Table) FrontierCounted(ctx context.Context, maxARM, maxAMD int, w float64) ([]Point, []pareto.TE, uint64, error) {
	if err := validBounds(maxARM, maxAMD); err != nil {
		return nil, nil, 0, err
	}
	if err := validWork(w); err != nil {
		return nil, nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	ci := t.boxes.index(subspace{uint64(maxARM), uint64(maxAMD)})
	set, evaluated, err := ci.get(ctx, func() (*candidateSet, uint64, error) {
		return t.g.buildBoxCandidates(ctx, maxARM, maxAMD)
	})
	if err != nil {
		return nil, nil, 0, err
	}
	if !set.covers(w) {
		pts, tes, walked, err := t.g.frontierTwoType(ctx, maxARM, maxAMD, w)
		return pts, tes, evaluated + walked, err
	}
	pts, tes, err := t.g.twoTypeFrontierOf(set.idx, maxARM, maxAMD, w)
	return pts, tes, evaluated + uint64(len(set.idx)), err
}
