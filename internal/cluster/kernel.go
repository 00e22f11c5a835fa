package cluster

import (
	"fmt"
	"math"

	"heteromix/internal/hwsim"
	"heteromix/internal/model"
	"heteromix/internal/units"
)

// This file is the evaluation-kernel layer under every enumerator, two-type
// and N-type alike. A genericTable is built once per type list from
// model.Kernel coefficients — one entry per distinct per-node (cores,
// frequency) setting of each type, dozens of entries against tens of
// thousands of points — and evaluating a configuration then reduces to a
// handful of float multiplies with no validation, no map lookups and no
// allocations. Every error path (model validation, config validation,
// degenerate predictions, bad bounds) is taken during table construction;
// the work volume enters only the per-point arithmetic, so one table
// serves every work size (validated per call) and per-point evaluation is
// infallible.
//
// A point of the space is a mixed-radix vector with one digit per type.
// Digit 0 is the absent option; digit d >= 1 means (d-1)/len(entries)+1
// nodes at entry (d-1)%len(entries), so each type's options run
// count-major. The table stores only the per-type entries: node counts
// are derived from the digit, so its size does not grow with MaxNodes.
// A walk order is a list of digit boxes (order, below): the generic
// order and the two-type order (table.go) differ only in their boxes.
//
// Numerical contract: Point.Time, the work split and Point.WorkARM are
// bit-identical to the direct Space.Evaluate path (the throughput and
// split arithmetic is the same expression over the same TimePerUnit
// values). Energies fold the work volume in after the per-unit
// coefficient instead of before, which agrees with the direct path to
// within a few ULPs (~1e-15 relative); TestEnumerateMatchesDirectEvaluate
// asserts 1e-12.

// maxTypeNodes caps the node bound of one type in a compiled table, so
// node counts, digits and switch counts stay far from integer overflow.
// Tables restored from dumps, which arrive from peers, are held to the
// same cap.
const maxTypeNodes = 1 << 20

// kernelEntry is one per-node configuration's precomputed coefficients.
type kernelEntry struct {
	cfg hwsim.Config
	k   float64 // seconds per work unit on one node
	epu float64 // joules per work unit on one node
}

// typeKernels validates nm once and precomputes entries for the given
// configurations (in the given order).
func typeKernels(nm model.NodeModel, cfgs []hwsim.Config) ([]kernelEntry, error) {
	if err := nm.Validate(); err != nil {
		return nil, err
	}
	out := make([]kernelEntry, len(cfgs))
	for i, cfg := range cfgs {
		k, err := nm.KernelFor(cfg)
		if err != nil {
			return nil, err
		}
		out[i] = kernelEntry{cfg: cfg, k: k.TimePerUnit, epu: k.EnergyPerUnit}
	}
	return out, nil
}

// validWork mirrors Evaluate's work-volume check.
func validWork(w float64) error {
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("cluster: work must be positive and finite, got %v", w)
	}
	return nil
}

// armSwitches is Group.Switches for a switch-connected type.
func armSwitches(nodes int) int {
	return (nodes + ARMPortsPerSwitch - 1) / ARMPortsPerSwitch
}

// digitRange is an inclusive range of one type's digits.
type digitRange struct{ lo, hi int }

// genericTable is the precomputed evaluation table of an N-type space.
type genericTable struct {
	kern     [][]kernelEntry // per type: entries in enumeration order (none when MaxNodes is 0)
	maxNodes []int
	switchW  []float64 // per type: per-switch watts (0 unless NeedsSwitch)
	all      order     // the generic serial order over the whole space
	size     uint64    // points in the space (product of radixes - 1), saturated
}

// satMul multiplies saturating at math.MaxUint64.
func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxUint64/b {
		return math.MaxUint64
	}
	return a * b
}

// satAdd adds saturating at math.MaxUint64.
func satAdd(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

// typeConfigs returns the per-node configurations enumerated for gt:
// its explicit restriction when set (e.g. from PruneGroupTypes), every
// configuration of the spec otherwise.
func typeConfigs(gt GroupType) []hwsim.Config {
	if gt.Configs != nil {
		return gt.Configs
	}
	return hwsim.Configs(gt.Model.Spec)
}

// validMaxNodes rejects node bounds outside [0, maxTypeNodes].
func validMaxNodes(i, n int) error {
	if n < 0 || n > maxTypeNodes {
		return fmt.Errorf("cluster: type %d has MaxNodes %d outside [0, %d]", i, n, maxTypeNodes)
	}
	return nil
}

// newGenericTable validates types and precomputes every per-node
// configuration's kernel coefficients. Types with MaxNodes 0 are never
// evaluated, so their models are not touched (matching Evaluate's
// treatment of zero-node groups).
func newGenericTable(types []GroupType) (*genericTable, error) {
	if len(types) == 0 {
		return nil, fmt.Errorf("cluster: no node types")
	}
	for i, gt := range types {
		if err := validMaxNodes(i, gt.MaxNodes); err != nil {
			return nil, err
		}
	}
	t := &genericTable{
		kern:     make([][]kernelEntry, len(types)),
		maxNodes: make([]int, len(types)),
		switchW:  make([]float64, len(types)),
	}
	for i, gt := range types {
		if gt.MaxNodes > 0 {
			entries, err := typeKernels(gt.Model, typeConfigs(gt))
			if err != nil {
				return nil, fmt.Errorf("cluster: type %d: %w", i, err)
			}
			t.kern[i] = entries
		}
		t.maxNodes[i] = gt.MaxNodes
		if gt.NeedsSwitch {
			t.switchW[i] = float64(SwitchPower)
		}
	}
	t.index()
	return t, nil
}

// index derives the generic serial order and the space size from the
// entries and node bounds: N boxes of N ranges, box b for first present
// type j = N-1-b.
func (t *genericTable) index() {
	n := len(t.kern)
	ranges := make([]digitRange, n*n)
	for b := 0; b < n; b++ {
		j := n - 1 - b
		for i := 0; i < n; i++ {
			hi := t.maxNodes[i] * len(t.kern[i])
			switch {
			case i < j:
				ranges[b*n+i] = digitRange{0, 0}
			case i == j:
				ranges[b*n+i] = digitRange{1, hi}
			default:
				ranges[b*n+i] = digitRange{0, hi}
			}
		}
	}
	t.all = newOrder(t, t.maxNodes, ranges, make([]uint64, n))
	t.size = t.all.size()
}

// maxMaterialize bounds the point count the materializing enumerators
// accept; beyond it callers must stream (EnumerateGroupsFunc) or prune.
const maxMaterialize = 1 << 31

// intSize returns the space size as an int for the materializing and
// index-addressed paths.
func (t *genericTable) intSize() (int, error) { return materializable(t.size) }

// materializable returns the point count n as an int, or an error when n
// points are too many to materialize or index.
func materializable(n uint64) (int, error) {
	if n > maxMaterialize {
		return 0, fmt.Errorf("cluster: generic space of %d points is too large to materialize; prune or stream with EnumerateGroupsFunc", n)
	}
	return int(n), nil
}

// order is one walk order over a table's space: the table, the node
// bounds its points respect, and an ordered list of digit boxes (one
// inclusive range per type), each walked as an odometer with the last
// type fastest. Positions number the points 0..size-1 across the boxes.
// Every walker — the full walk, a range's chunks, a candidate build, the
// random-access offers of a candidate set — takes an order, so the
// generic and two-type views share one cursor, one decoder and one
// build. Two orders are in use:
//   - the generic serial order (genericTable.all) is the odometer over
//     every digit, type 0 slowest, less the all-absent vector: box b
//     holds the vectors whose first present type is j = N-1-b (types
//     before j absent, type j at digit >= 1, later types free), so a
//     position is a serial index;
//   - the two-type order (twoTypeOrder) is Space.Enumerate's.
type order struct {
	t        *genericTable
	maxNodes []int        // per type: the node bound of the order's points
	ranges   []digitRange // box k's range of type i at k·types+i
	ends     []uint64     // ends[k]: the positions in boxes 0..k, saturated
}

// newOrder indexes the boxes of an order into ends, which has one slot
// per box.
func newOrder(t *genericTable, maxNodes []int, ranges []digitRange, ends []uint64) order {
	o := order{t: t, maxNodes: maxNodes, ranges: ranges, ends: ends}
	total := uint64(0)
	for k := range ends {
		size := uint64(1)
		for _, r := range o.box(k) {
			if r.lo > r.hi {
				size = 0
				break
			}
			size = satMul(size, uint64(r.hi-r.lo)+1)
		}
		total = satAdd(total, size)
		ends[k] = total
	}
	return o
}

// box returns box k's ranges, one per type.
func (o *order) box(k int) []digitRange {
	n := len(o.maxNodes)
	return o.ranges[k*n : (k+1)*n : (k+1)*n]
}

// size returns how many points the order walks (saturated at
// math.MaxUint64). Every order has a box.
func (o *order) size() uint64 { return o.ends[len(o.ends)-1] }

// genCursor is one walker's scratch over an order: the box being walked,
// per type the current digit and the (count, entry) pair it decodes to,
// plus a point whose slices are reused across evaluations.
type genCursor struct {
	o                  *order
	box                int
	r                  []digitRange // the box's ranges
	digit, count, pick []int
	p                  GenericPoint
}

// newCursor allocates a cursor's scratch.
func (o *order) newCursor() genCursor {
	n := len(o.t.kern)
	return o.cursorOn(make([]int, 4*n), make([]hwsim.Config, n), make([]float64, n))
}

// cursorOn makes a cursor over caller-owned scratch: 4 ints, one
// configuration and one float per type. A caller that knows the type
// count keeps the scratch on its stack.
func (o *order) cursorOn(ints []int, cfgs []hwsim.Config, work []float64) genCursor {
	n := len(cfgs)
	return genCursor{
		o:     o,
		digit: ints[0*n : 1*n : 1*n],
		count: ints[1*n : 2*n : 2*n],
		pick:  ints[2*n : 3*n : 3*n],
		p:     GenericPoint{Counts: ints[3*n : 4*n : 4*n], Configs: cfgs, Work: work},
	}
}

// setDigit positions type i at digit d.
func (c *genCursor) setDigit(i, d int) {
	c.digit[i] = d
	if d == 0 {
		c.count[i], c.pick[i] = 0, 0
		return
	}
	n := len(c.o.t.kern[i])
	c.count[i], c.pick[i] = (d-1)/n+1, (d-1)%n
}

// stepDigit advances type i to its next digit without dividing: the
// absent option steps to one node at entry 0, then entries run fastest.
func (c *genCursor) stepDigit(i int) {
	c.digit[i]++
	switch {
	case c.count[i] == 0:
		c.count[i], c.pick[i] = 1, 0
	case c.pick[i]+1 == len(c.o.t.kern[i]):
		c.count[i], c.pick[i] = c.count[i]+1, 0
	default:
		c.pick[i]++
	}
}

// start positions c at position pos of its order — the random-access
// decode: find pos's box, then its digits within the box, last type
// first — and reports whether the order has that position. Empty boxes
// hold no position, so they are never entered.
func (c *genCursor) start(pos uint64) bool {
	k := 0
	for k < len(c.o.ends) && pos >= c.o.ends[k] {
		k++
	}
	if k == len(c.o.ends) {
		return false
	}
	if k > 0 {
		pos -= c.o.ends[k-1]
	}
	c.box, c.r = k, c.o.box(k)
	for i := len(c.r) - 1; i >= 0; i-- {
		radix := uint64(c.r[i].hi-c.r[i].lo) + 1
		c.setDigit(i, c.r[i].lo+int(pos%radix))
		pos /= radix
	}
	return true
}

// next advances c to the next position, stepping the box's odometer and
// crossing into the next non-empty box when it runs out, and reports
// false past the order's last position.
func (c *genCursor) next() bool {
	for i := len(c.r) - 1; i >= 0; i-- {
		if c.digit[i] < c.r[i].hi {
			c.stepDigit(i)
			return true
		}
		c.setDigit(i, c.r[i].lo)
	}
	return c.start(c.o.ends[c.box])
}

// eval evaluates the cursor's current vector into its scratch point.
func (c *genCursor) eval(w float64) {
	c.o.t.eval(c.count, c.pick, w, &c.p)
}

// eval fills p from per-type node counts and entry picks for w work
// units: the matching split (throughputs accumulate in type order, every
// group finishes at w / Σ thr), then the summed group energies including
// switch draw over the duration. At least one count must be positive.
// p.Work doubles as the throughput scratch, so eval needs no allocation.
func (t *genericTable) eval(count, pick []int, w float64, p *GenericPoint) {
	// Equal-length views let the compiler drop the per-index bounds checks.
	n := len(count)
	pick, kern, switchW := pick[:n], t.kern[:n], t.switchW[:n]
	counts, cfgs, work := p.Counts[:n], p.Configs[:n], p.Work[:n]
	total := 0.0
	for i, c := range count {
		counts[i] = c
		thr := 0.0
		if c > 0 {
			e := &kern[i][pick[i]]
			cfgs[i] = e.cfg
			thr = float64(c) / e.k
			total += thr
		} else {
			cfgs[i] = hwsim.Config{}
		}
		work[i] = thr
	}
	tt := w / total
	energy := 0.0
	for i, c := range count {
		if c == 0 {
			continue
		}
		wk := w * work[i] / total
		work[i] = wk
		e := kern[i][pick[i]].epu * wk
		if switchW[i] > 0 {
			e += switchW[i] * float64(armSwitches(c)) * tt
		}
		energy += e
	}
	p.Time = units.Seconds(tt)
	p.Energy = units.Joule(energy)
}

// forEach streams every point of o to yield for w work units, in order.
// The yielded point is scratch: valid only during the call, Clone to
// retain. yield returning false stops the walk.
func (o *order) forEach(w float64, yield func(GenericPoint) bool) {
	c := o.newCursor()
	for ok := c.start(0); ok; ok = c.next() {
		c.eval(w)
		if !yield(c.p) {
			return
		}
	}
}

// genBacking carves materialized points' slices out of three flat
// arrays — one allocation per array for the whole batch instead of
// three per point.
type genBacking struct {
	counts  []int
	configs []hwsim.Config
	work    []float64
	types   int
}

func newGenBacking(n, types int) *genBacking {
	return &genBacking{
		counts:  make([]int, n*types),
		configs: make([]hwsim.Config, n*types),
		work:    make([]float64, n*types),
		types:   types,
	}
}

// copy clones p into the next backing row.
func (b *genBacking) copy(p GenericPoint) GenericPoint {
	k := b.types
	q := GenericPoint{
		Counts:  b.counts[:k:k],
		Configs: b.configs[:k:k],
		Work:    b.work[:k:k],
		Time:    p.Time,
		Energy:  p.Energy,
	}
	b.counts, b.configs, b.work = b.counts[k:], b.configs[k:], b.work[k:]
	copy(q.Counts, p.Counts)
	copy(q.Configs, p.Configs)
	copy(q.Work, p.Work)
	return q
}
