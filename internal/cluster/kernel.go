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
// The generic order walks one odometer over every digit (type 0 slowest);
// the two-type order (table.go) walks the same odometer over three boxes
// of digit ranges.
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
	switchW  []float64    // per type: per-switch watts (0 unless NeedsSwitch)
	full     []digitRange // per type: every digit, 0..MaxNodes×len(entries)
	stride   []uint64     // mixed-radix stride of type i (type 0 slowest)
	size     uint64       // points in the space (product of radixes - 1), saturated
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

// index derives the digit ranges, strides and size from the entries and
// node bounds.
func (t *genericTable) index() {
	n := len(t.kern)
	t.full = make([]digitRange, n)
	t.stride = make([]uint64, n)
	prod := uint64(1)
	for i := n - 1; i >= 0; i-- {
		hi := t.maxNodes[i] * len(t.kern[i])
		t.full[i] = digitRange{0, hi}
		t.stride[i] = prod
		prod = satMul(prod, uint64(hi)+1)
	}
	t.size = prod
	if t.size != math.MaxUint64 {
		t.size-- // the all-absent vector is never yielded
	}
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

// genCursor is one walker's scratch: per type the current digit, the
// (count, entry) pair it decodes to and the box being walked, plus a
// point whose slices are reused across evaluations.
type genCursor struct {
	t                  *genericTable
	digit, count, pick []int
	lo, hi             []int
	p                  GenericPoint
}

func (t *genericTable) newCursor() genCursor {
	n := len(t.kern)
	ints := make([]int, 6*n)
	return genCursor{
		t:     t,
		digit: ints[0*n : 1*n : 1*n],
		count: ints[1*n : 2*n : 2*n],
		pick:  ints[2*n : 3*n : 3*n],
		lo:    ints[3*n : 4*n : 4*n],
		hi:    ints[4*n : 5*n : 5*n],
		p: GenericPoint{
			Counts:  ints[5*n : 6*n : 6*n],
			Configs: make([]hwsim.Config, n),
			Work:    make([]float64, n),
		},
	}
}

// setDigit positions type i at digit d.
func (c *genCursor) setDigit(i, d int) {
	c.digit[i] = d
	if d == 0 {
		c.count[i], c.pick[i] = 0, 0
		return
	}
	n := len(c.t.kern[i])
	c.count[i], c.pick[i] = (d-1)/n+1, (d-1)%n
}

// stepDigit advances type i to its next digit without dividing: the
// absent option steps to one node at entry 0, then entries run fastest.
func (c *genCursor) stepDigit(i int) {
	c.digit[i]++
	switch {
	case c.count[i] == 0:
		c.count[i], c.pick[i] = 1, 0
	case c.pick[i]+1 == len(c.t.kern[i]):
		c.count[i], c.pick[i] = c.count[i]+1, 0
	default:
		c.pick[i]++
	}
}

// start positions c at the first vector of box (one range per type) and
// reports whether the box holds any vector.
func (c *genCursor) start(box []digitRange) bool {
	for _, r := range box {
		if r.lo > r.hi {
			return false
		}
	}
	for i, r := range box {
		c.lo[i], c.hi[i] = r.lo, r.hi
		c.setDigit(i, r.lo)
	}
	return true
}

// next advances c's odometer over its box, last type fastest, and
// reports false once the box is exhausted.
func (c *genCursor) next() bool {
	for i := len(c.digit) - 1; i >= 0; i-- {
		if c.digit[i] < c.hi[i] {
			c.stepDigit(i)
			return true
		}
		c.setDigit(i, c.lo[i])
	}
	return false
}

// eval evaluates the cursor's current vector into its scratch point.
func (c *genCursor) eval(w float64) bool {
	return c.t.eval(c.count, c.pick, w, &c.p)
}

// eval fills p from per-type node counts and entry picks for w work
// units: the matching split (throughputs accumulate in type order, every
// group finishes at w / Σ thr), then the summed group energies including
// switch draw over the duration. It reports false only for the
// all-absent vector. p.Work doubles as the throughput scratch, so eval
// needs no allocation.
func (t *genericTable) eval(count, pick []int, w float64, p *GenericPoint) bool {
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
	if total == 0 {
		return false
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
	return true
}

// forEach streams every point of the space to yield in enumeration
// order (type 0's digits slowest, the last type's fastest — the order
// EnumerateGroups materializes). The yielded point is scratch: valid
// only during the call, Clone to retain. yield returning false stops
// the walk.
func (t *genericTable) forEach(w float64, yield func(GenericPoint) bool) {
	c := t.newCursor()
	for ok := c.start(t.full); ok; ok = c.next() {
		// Only the first vector of the full box is all-absent.
		if c.eval(w) && !yield(c.p) {
			return
		}
	}
}

// seek positions c, walking the full box, at linear index idx of
// forEach's order (idx 1..size; index 0 is the all-absent vector) — the
// random-access view the parallel and sharded walkers use; next steps on
// through consecutive indices.
func (c *genCursor) seek(idx uint64) {
	for i, r := range c.t.full {
		c.lo[i], c.hi[i] = r.lo, r.hi
		c.setDigit(i, int(idx/c.t.stride[i]%(uint64(r.hi)+1)))
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
