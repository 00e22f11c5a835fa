package cluster

import (
	"context"
	"errors"
	"math"
	"slices"
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
// candidates, in walk order, through the same online frontier the
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
// Nothing in that argument depends on which points were offered, or in
// which order, so it holds for the positions [lo, hi) of any walk order
// (order, kernel.go): a GenericTable's whole serial order, a shard's
// contiguous range of it, or a two-type Table's maxARM×maxAMD space in
// Enumerate's order. A set keeps its candidates as positions, ascending,
// and offers them in that order, so first-offered-wins among exact
// duplicates is the walk's. What a set needs is a guarded range that
// bounds every intermediate of its points: workRange takes the order's
// node bounds (for a Table the call's bounds, not the one node per type
// it is compiled at), and a range's points are among the order's. Each
// set therefore answers bit for bit like the walk of its range.

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
// grow the map past the budget either. A Table's bounds box also keeps
// its order, about 300 bytes more, which the count of entries bounds.
const sliceEntryCost = 32

// maxCandidateTypes bounds the type count the rounding analysis above
// covers with a wide safety factor; wider tables always walk.
const maxCandidateTypes = 1 << 10

// workSlack keeps the guarded work range this factor inside the
// normal-float range, absorbing the rounding of the bounds themselves
// and the (1+margin) scaling of the build's comparisons.
const workSlack = 1 << 10

// candidateSet is a table's built index: the positions in their order
// of a range's margin candidates, ascending, and the work range in which
// they answer for the range's walk. ok is false when the build overflowed
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
// Table's bounds box, whose order it keeps in o (a GenericTable's sets
// are all in its serial order). lock is a one-slot semaphore held by the
// caller building the set, so concurrent first callers wait for one build
// instead of racing their own, and a waiter whose context ends gives up
// without waiting further. A slice's index charges itself and its set to
// the table's slice budget: cost is what it holds there, 0 once it has
// been dropped, and lastUse the tick it was last asked for; both are
// guarded by slices.mu.
type candidateIndex struct {
	lock    chan struct{}
	o       *order
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

// install stores the set mk returns as the index's set, unless mk
// finds none that answers, a set is already stored, or a build holds the
// one-slot lock: it takes the lock without waiting, so an install racing
// a first build (get) leaves the build to store its own set, and an
// index stores one set at most. mk runs under the lock. It reports
// whether it stored a set.
func (ci *candidateIndex) install(mk func() *candidateSet) bool {
	select {
	case ci.lock <- struct{}{}:
	default:
		return false
	}
	defer func() { <-ci.lock }()
	if ci.set.Load() != nil {
		return false
	}
	set := mk()
	if !set.ok {
		return false
	}
	ci.set.Store(set)
	return true
}

// candidate is one point under consideration: its position in its
// order and its time and energy at w = 1.
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

// buildRangeCandidates walks the n positions of o from base at w = 1 in
// chunks of genericFrontierChunk, each chunk keeping its own candidates,
// and folds every finished chunk's candidates into one shared builder —
// at most a few candidate lists live at once, never the range. ctx is
// checked once per chunk; walked counts the points evaluated.
func (o *order) buildRangeCandidates(ctx context.Context, base uint64, n, workers int) (set *candidateSet, walked uint64, err error) {
	set = &candidateSet{}
	set.lo, set.hi = o.t.workRange(o.maxNodes)
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
		c := o.newCursor()
		c.start(base + uint64(lo))
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

// foldCandidates folds positions of o through one candidateBuilder at
// w = 1 into the candidate set of the union of the ranges they came
// from. Given the candidate sets of ranges partitioning a space it is
// the space's own set, the one buildRangeCandidates builds: a point
// nothing in the space beats is in its range's set and nothing beats it
// in the fold, and any other point is beaten by one that is, which
// margin dominance being transitive is in its range's set too. Like a
// build, the set is empty and not ok when w = 1 lies outside the guarded
// range or the fold outgrows maxCandidates, and also when idx is empty
// (a space always has a candidate) or a position lies outside o.
// Repeated positions count once.
func (o *order) foldCandidates(idx []uint64) *candidateSet {
	set := &candidateSet{}
	set.lo, set.hi = o.t.workRange(o.maxNodes)
	if !(set.lo <= 1 && 1 <= set.hi) || len(idx) == 0 {
		return set
	}
	var b candidateBuilder
	c := o.newCursor()
	for _, i := range idx {
		if !c.start(i) {
			return set
		}
		c.eval(1)
		b.offer(candidate{idx: i, te: pareto.TE{Time: float64(c.p.Time), Energy: float64(c.p.Energy)}})
		if b.over {
			return set
		}
	}
	set.idx = b.indices()
	slices.Sort(set.idx)
	set.idx, set.ok = slices.Compact(set.idx), true
	return set
}

// InstallCandidates makes the table's whole-space candidate set from
// idx, the union of the candidate sets of slices that partition the
// space — what a fleet's replicas answer for their shards
// (ShardCandidates) — folded at w = 1 on this table (foldCandidates),
// so a fleet coordinator's later frontiers answer from the set without
// a fan-out. It stores nothing when the fold does not answer (w = 1
// outside the guarded range, over the cap, a position outside the
// space), when the table already holds a set, or while a first
// FrontierCounted builds one; the set is stored once either way. It
// reports whether it stored the set, and does not modify idx.
//
// The positions are trusted: a slice answer that left out one of its
// candidates would make the stored set, and every frontier the table
// answers from it, miss that point.
func (g *GenericTable) InstallCandidates(idx []uint64) bool {
	if _, err := g.t.intSize(); err != nil {
		return false
	}
	return g.cand.install(func() *candidateSet { return g.t.all.foldCandidates(idx) })
}

// CandidatesCover reports whether the table holds a whole-space
// candidate set that answers a frontier at w: FrontierCounted's answer
// at w then evaluates only the set, without a walk.
func (g *GenericTable) CandidatesCover(w float64) bool {
	set := g.cand.set.Load()
	return set != nil && set.covers(w)
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
// first use with the order mk returns (nil: none kept), and marks it as
// the most recently used.
func (s *sliceSets) index(key subspace, mk func() *order) *candidateIndex {
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
	if mk != nil {
		ci.o = mk()
	}
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
// maxNodes at the fastest), so it costs O(entries), not a walk. An order
// passes its node bounds: a GenericTable's MaxNodes, or a Table call's
// bounds; a type with no entries or a zero bound is absent. An empty range
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
