package cluster

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"heteromix/internal/pareto"
)

// This file is the generic table's work-invariant frontier index. Time
// and energy are both linear in the work volume w (eval computes
// T = w/Σthr and E = Σ epu·(w·thr/Σthr) + switch·T), so scaling w scales
// both axes and leaves Pareto dominance unchanged: in exact arithmetic
// the frontier picks the same configurations at every w. In floating
// point it does not quite — near-ties within a few ULPs can flip with w
// — so the table keeps a margin candidate set instead of the frontier:
// every point that no other point beats by a relative candidateMargin on
// both axes at w = 1. A frontier query at any w then evaluates only the
// candidates, in serial order, through the same online frontier the
// full walk uses, and returns the walk's answer bit for bit.
//
// Why that is exact. For w in the table's guarded range (workRange)
// every w-scaled intermediate of eval is a normal float, so each
// rounding costs at most u = 2^-53 relative. T_w = fl(w/total) and
// T_1 = fl(1/total) share the same computed total, so T_w = w·T_1 within
// 2u. Every energy term is positive, so the sum of at most 2·types terms,
// each a product of three rounded operations, is within (2·types+4)·u of
// its exact value at any w, hence E_w = w·E_1 within about 1e-15
// relative for the type counts served. A point q that beats p by
// candidateMargin = 1e-9 at w = 1 therefore strictly dominates p on both
// axes at every guarded w: the margin is six orders of magnitude above
// the drift. Margin dominance is transitive, so every non-candidate is
// beaten by some candidate, and dropping points that are strictly
// dominated by a kept point changes neither the frontier nor which of
// several exact duplicates is offered first.
//
// Nothing in that argument depends on which points were offered, so it
// holds for any subset of the space, and in particular for a shard's
// contiguous serial range: a point some other point of its slice beats
// by the margin at w = 1 is strictly dominated by a candidate of that
// slice at every guarded w. workRange bounds the intermediates over the
// whole table, so it guards every slice as well. A shard slice therefore
// answers from its own candidate set (FrontierShardCounted) bit for bit
// like the walk of its range.
//
// A two-type Table's bounds box is such a subset too. The Table is
// compiled at one node per type and takes its node bounds per call, but
// eval's arithmetic depends only on each point's counts and entries, so
// the maxARM×maxAMD space is a set of points evaluated exactly as any
// other. Its walk (forEachTwoType) offers them in a different order than
// the serial one: the heterogeneous box, then ARM only, then AMD only.
// The candidates are kept as positions in that order and offered
// ascending, so first-offered-wins among exact duplicates is the walk's.
// What the box must bring is its own guarded range: workRange takes the
// per-type node bounds, and at the box's bounds it bounds every
// intermediate of the box's points (the largest throughput and switch
// count come from maxARM and maxAMD nodes, not from the one node the
// Table is compiled at). Table.FrontierCounted therefore answers from
// the box's candidate set bit for bit like Table.Frontier's walk.

// candidateMargin is the relative margin by which a point must be beaten
// on both axes at w = 1 to be left out of the candidate set.
const candidateMargin = 1e-9

// maxCandidates caps the candidate set. A build whose running set grows
// past it is abandoned and the table keeps answering frontier queries by
// the full walk. It is also the shared budget of all of a served table's
// slice sets (sliceSets): a GenericTable's shard slices, or a Table's
// bounds boxes.
const maxCandidates = 1 << 12

// sliceEntryCost is what one slice entry — its map slot, semaphore and
// set header, about 256 bytes — is charged against the slice budget, in
// index-sized units, so arbitrary "i/n" requests or node bounds cannot
// grow the map past the budget either.
const sliceEntryCost = 32

// maxCandidateTypes bounds the type count the rounding analysis above
// covers with a wide safety factor; wider tables always walk.
const maxCandidateTypes = 1 << 10

// workSlack keeps the guarded work range this factor inside the
// normal-float range, absorbing the rounding of the bounds themselves
// and the (1+margin) scaling of the build's comparisons.
const workSlack = 1 << 10

// candidateSet is a table's built index: the serial indices of the
// margin candidates (for a Table's bounds box, their positions in the
// box's walk order) in ascending order, and the work range in which they
// answer for the full walk. ok is false when the build overflowed
// maxCandidates or w = 1 itself lies outside the guarded range; such a
// table always walks.
type candidateSet struct {
	idx    []uint64
	lo, hi float64
	ok     bool
}

// covers reports whether the set answers a frontier query at w.
func (s *candidateSet) covers(w float64) bool {
	return s.ok && w >= s.lo && w <= s.hi
}

// candidateIndex is the lazily built candidate set of a sub-space: a
// GenericTable's whole space, one shard slice of it, or a two-type
// Table's bounds box. lock is a one-slot semaphore held by the caller
// building the set, so concurrent first callers wait for one build
// instead of racing their own, and a waiter whose context ends gives up
// without waiting further. A slice's index charges itself and its set to
// the table's slice budget: cost is what it holds there, 0 once it has
// been dropped, and lastUse the tick it was last asked for; both are
// guarded by slices.mu.
type candidateIndex struct {
	lock    chan struct{}
	set     atomic.Pointer[candidateSet]
	slices  *sliceSets
	cost    int
	lastUse uint64
}

func newCandidateIndex() *candidateIndex {
	return &candidateIndex{lock: make(chan struct{}, 1)}
}

// get returns the sub-space's candidate set, running build (one walk at
// w = 1) on first use; walked counts the points this call evaluated to
// build it. A build stopped by ctx returns ctx's error and is not kept,
// so the next call builds again.
func (ci *candidateIndex) get(ctx context.Context, build func() (*candidateSet, uint64, error)) (set *candidateSet, walked uint64, err error) {
	if set := ci.set.Load(); set != nil {
		return set, 0, nil
	}
	select {
	case ci.lock <- struct{}{}:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	defer func() { <-ci.lock }()
	if set := ci.set.Load(); set != nil {
		return set, 0, nil
	}
	if set, walked, err = build(); err != nil {
		return nil, 0, err
	}
	if ci.slices != nil {
		ci.slices.charge(ci, set)
	}
	ci.set.Store(set)
	return set, walked, nil
}

// candidate is one point under consideration: its serial index (or
// box-order position) and its time and energy at w = 1.
type candidate struct {
	idx uint64
	te  pareto.TE
}

// candidateBuilder keeps the points offered so far that no offered point
// beats by candidateMargin. front is the plain frontier of the offered
// points, which answers "is the newcomer beaten" in O(log n); the rare
// newcomer that survives evicts the kept points it beats. Because margin
// dominance is transitive, what remains after every point is offered is
// exactly the set of points nothing beats, whatever the offer order.
type candidateBuilder struct {
	front pareto.OnlineFrontier
	kept  []candidate
	over  bool
}

func (b *candidateBuilder) offer(c candidate) {
	if b.over || b.front.MarginDominated(c.te, candidateMargin) {
		return
	}
	j := 0
	for _, k := range b.kept {
		if !pareto.MarginDominates(c.te, k.te, candidateMargin) {
			b.kept[j] = k
			j++
		}
	}
	b.kept = append(b.kept[:j], c)
	if len(b.kept) > maxCandidates {
		b.over, b.kept = true, nil
		return
	}
	// The point is positive and finite (w = 1 lies in the guarded
	// range), so Add cannot fail.
	_, _ = b.front.Add(c.te)
}

// indices returns the kept candidates' indices, in kept order.
func (b *candidateBuilder) indices() []uint64 {
	idx := make([]uint64, len(b.kept))
	for i, k := range b.kept {
		idx[i] = k.idx
	}
	return idx
}

// errTooManyCandidates stops a build whose set outgrew maxCandidates.
var errTooManyCandidates = errors.New("cluster: candidate set over cap")

// buildRangeCandidates walks the n points from serial index base at
// w = 1 in chunks of genericFrontierChunk, each chunk keeping its own
// candidates, and folds every finished chunk's candidates into one
// shared builder — at most a few candidate lists live at once, never
// the range. ctx is checked once per chunk; walked counts the points
// evaluated.
func (t *genericTable) buildRangeCandidates(ctx context.Context, base uint64, n, workers int) (set *candidateSet, walked uint64, err error) {
	set = &candidateSet{}
	set.lo, set.hi = t.workRange(t.maxNodes)
	if !(set.lo <= 1 && 1 <= set.hi) {
		return set, 0, nil
	}
	var (
		mu     sync.Mutex
		shared candidateBuilder
	)
	err = parallelFor(n, workers, genericFrontierChunk, func(lo, hi int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		var local candidateBuilder
		c := t.newCursor()
		c.seek(base + uint64(lo) + 1)
		for i := base + uint64(lo); i < base+uint64(hi); i++ {
			c.eval(1)
			local.offer(candidate{idx: i, te: pareto.TE{Time: float64(c.p.Time), Energy: float64(c.p.Energy)}})
			c.next()
		}
		mu.Lock()
		defer mu.Unlock()
		walked += uint64(hi - lo)
		for _, k := range local.kept {
			shared.offer(k)
		}
		if local.over || shared.over {
			return errTooManyCandidates
		}
		return nil
	})
	if errors.Is(err, errTooManyCandidates) {
		return set, walked, nil
	}
	if err != nil {
		return nil, 0, err
	}
	set.idx = shared.indices()
	sort.Slice(set.idx, func(i, j int) bool { return set.idx[i] < set.idx[j] })
	set.ok = true
	return set, walked, nil
}

// buildBoxCandidates walks the maxARM×maxAMD two-type space at w = 1 in
// forEachTwoType's order, on the calling goroutine, and keeps the
// positions in that order of its margin candidates, ascending. ctx is
// polled every rangePollMask+1 points; walked counts the points
// evaluated. A set that outgrows maxCandidates stops the walk and covers
// no w.
func (t *genericTable) buildBoxCandidates(ctx context.Context, maxARM, maxAMD int) (set *candidateSet, walked uint64, err error) {
	set = &candidateSet{}
	set.lo, set.hi = t.workRange([]int{maxARM, maxAMD})
	if !(set.lo <= 1 && 1 <= set.hi) {
		return set, 0, nil
	}
	var b candidateBuilder
	c := t.newCursor()
	for _, box := range t.twoTypeBoxes(maxARM, maxAMD) {
		for ok := c.start(box[:]); ok; ok = c.next() {
			if walked&rangePollMask == 0 {
				if err := ctx.Err(); err != nil {
					return nil, 0, err
				}
			}
			c.eval(1)
			b.offer(candidate{idx: walked, te: pareto.TE{Time: float64(c.p.Time), Energy: float64(c.p.Energy)}})
			walked++
			if b.over {
				return set, walked, nil
			}
		}
	}
	// Positions are offered ascending and offer keeps the kept points in
	// offer order, so the set needs no sort.
	set.idx = b.indices()
	set.ok = true
	return set, walked, nil
}

// subspace names the part of a table's space a slice set covers: for a
// GenericTable the serial range [a, b), for a two-type Table the bounds
// box a×b, maxARM by maxAMD.
type subspace struct{ a, b uint64 }

// sliceSets holds a table's candidate indexes by sub-space: a
// GenericTable's shard slices, or a Table's bounds boxes. All of them
// share one budget, maxCandidates units for a served table: an entry
// costs sliceEntryCost and its built set its indices. When a new entry
// or a freshly built set needs room, the least recently asked-for
// entries are dropped until it fits, so a burst of unusual shard counts
// or bounds cannot keep the ones in steady use walking. A built set that
// would not fit even alone is kept empty (it covers no w), and that
// sub-space keeps walking.
type sliceSets struct {
	mu     sync.Mutex
	m      map[subspace]*candidateIndex
	used   int
	budget int
	tick   uint64
}

// index returns the candidate index of the sub-space key, making it on
// first use, and marks it as the most recently used.
func (s *sliceSets) index(key subspace) *candidateIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	if ci := s.m[key]; ci != nil {
		ci.lastUse = s.tick
		return ci
	}
	s.makeRoom(sliceEntryCost, nil)
	if s.m == nil {
		s.m = make(map[subspace]*candidateIndex)
	}
	s.used += sliceEntryCost
	ci := &candidateIndex{lock: make(chan struct{}, 1), slices: s, cost: sliceEntryCost, lastUse: s.tick}
	s.m[key] = ci
	return ci
}

// charge takes a freshly built set's indices from the budget, making
// room for them, or empties the set when they cannot fit. A set whose
// entry was dropped while it was built is not charged: only the calls
// that asked for it hold it.
func (s *sliceSets) charge(ci *candidateIndex, set *candidateSet) {
	if !set.ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ci.cost == 0 {
		return
	}
	if ci.cost+len(set.idx) > s.budget {
		set.idx, set.ok = nil, false
		return
	}
	s.makeRoom(len(set.idx), ci)
	s.used += len(set.idx)
	ci.cost += len(set.idx)
}

// makeRoom drops the least recently used entries other than keep until
// need more units fit the budget. The caller holds s.mu and ensures
// that need fits beside keep alone.
func (s *sliceSets) makeRoom(need int, keep *candidateIndex) {
	for s.used+need > s.budget {
		var (
			key    subspace
			oldest *candidateIndex
		)
		for k, ci := range s.m {
			if ci != keep && (oldest == nil || ci.lastUse < oldest.lastUse) {
				key, oldest = k, ci
			}
		}
		delete(s.m, key)
		s.used -= oldest.cost
		oldest.cost = 0
	}
}

// workRange returns the work volumes for which every w-scaled
// intermediate of eval stays a normal float with workSlack to spare: the
// throughput products w·thr, the time w/Σthr, the work shares, each
// energy term and their sum. It bounds each intermediate at w = 1 over
// every point with at most maxNodes[i] nodes of type i, from the
// per-type coefficient extremes (one node at the slowest entry to
// maxNodes at the fastest), so it costs O(entries), not a walk. A
// GenericTable passes its own MaxNodes, a Table a call's node bounds; a
// type with no entries or a zero bound is absent. An empty range
// (lo > hi) means no w qualifies.
func (t *genericTable) workRange(maxNodes []int) (lo, hi float64) {
	if len(t.kern) > maxCandidateTypes {
		return 1, 0
	}
	small, large := math.Inf(1), 0.0
	totalMin, totalMax := math.Inf(1), 0.0
	for i, entries := range t.kern {
		if len(entries) == 0 || maxNodes[i] == 0 {
			continue
		}
		kMin, kMax := math.Inf(1), 0.0
		for _, e := range entries {
			kMin, kMax = math.Min(kMin, e.k), math.Max(kMax, e.k)
		}
		thrMin, thrMax := 1/kMax, float64(maxNodes[i])/kMin
		totalMin, totalMax = math.Min(totalMin, thrMin), totalMax+thrMax
		small, large = math.Min(small, thrMin), math.Max(large, thrMax)
	}
	ttMin, ttMax := 1/totalMax, 1/totalMin
	small, large = math.Min(small, ttMin), math.Max(large, ttMax)
	energyMax := 0.0
	for i, entries := range t.kern {
		if len(entries) == 0 || maxNodes[i] == 0 {
			continue
		}
		kMax, epuMin, epuMax := 0.0, math.Inf(1), 0.0
		for _, e := range entries {
			kMax = math.Max(kMax, e.k)
			epuMin, epuMax = math.Min(epuMin, e.epu), math.Max(epuMax, e.epu)
		}
		// A present type's work share lies in [thr_min/Σthr_max, 1].
		share := (1 / kMax) / totalMax
		small, large = math.Min(small, share), math.Max(large, 1)
		small = math.Min(small, epuMin*share)
		term := epuMax
		if t.switchW[i] > 0 {
			small = math.Min(small, t.switchW[i]*ttMin)
			term += t.switchW[i] * float64(armSwitches(maxNodes[i])) * ttMax
		}
		energyMax += term
	}
	large = math.Max(large, energyMax)
	if !(small > 0) || math.IsInf(large, 0) || math.IsNaN(large) {
		return 1, 0
	}
	const minNormal = 0x1p-1022
	return minNormal * workSlack / small, math.MaxFloat64 / workSlack / large
}
