package pareto

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFrontierSimple(t *testing.T) {
	pts := []TE{
		{Time: 1, Energy: 10, Index: 0},
		{Time: 2, Energy: 5, Index: 1},
		{Time: 3, Energy: 7, Index: 2}, // dominated by index 1
		{Time: 4, Energy: 2, Index: 3},
		{Time: 0.5, Energy: 20, Index: 4},
	}
	fr, err := Frontier(pts)
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := []int{4, 0, 1, 3}
	if len(fr) != len(wantIdx) {
		t.Fatalf("frontier = %v", fr)
	}
	for i, w := range wantIdx {
		if fr[i].Index != w {
			t.Errorf("frontier[%d].Index = %d, want %d", i, fr[i].Index, w)
		}
	}
}

func TestFrontierTies(t *testing.T) {
	pts := []TE{
		{Time: 1, Energy: 5, Index: 0},
		{Time: 1, Energy: 3, Index: 1}, // same time, cheaper: wins
		{Time: 2, Energy: 3, Index: 2}, // same energy as 1, slower: dominated
	}
	fr, err := Frontier(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr) != 1 || fr[0].Index != 1 {
		t.Errorf("frontier = %v, want single point index 1", fr)
	}
}

func TestFrontierErrors(t *testing.T) {
	if _, err := Frontier(nil); err == nil {
		t.Error("empty input should error")
	}
	bad := [][]TE{
		{{Time: 0, Energy: 1}},
		{{Time: 1, Energy: -1}},
		{{Time: math.NaN(), Energy: 1}},
		{{Time: 1, Energy: math.Inf(1)}},
	}
	for i, pts := range bad {
		if _, err := Frontier(pts); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

func randomPoints(rng *rand.Rand, n int) []TE {
	pts := make([]TE, n)
	for i := range pts {
		pts[i] = TE{
			Time:   math.Exp(rng.NormFloat64()),
			Energy: math.Exp(rng.NormFloat64()),
			Index:  i,
		}
	}
	return pts
}

// Frontier invariants: (1) sorted ascending in time and strictly
// descending in energy; (2) no frontier point dominated by any input
// point; (3) every non-frontier point dominated by some frontier point.
func TestFrontierInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, 5+rng.Intn(100))
		fr, err := Frontier(pts)
		if err != nil {
			return false
		}
		onFrontier := map[int]bool{}
		for i, p := range fr {
			onFrontier[p.Index] = true
			if i > 0 && (fr[i].Time <= fr[i-1].Time || fr[i].Energy >= fr[i-1].Energy) {
				return false
			}
		}
		for _, p := range fr {
			for _, q := range pts {
				if Dominates(q, p) {
					return false
				}
			}
		}
		for _, q := range pts {
			if onFrontier[q.Index] {
				continue
			}
			dominated := false
			for _, p := range fr {
				if Dominates(p, q) || (p.Time == q.Time && p.Energy == q.Energy) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDominates(t *testing.T) {
	a := TE{Time: 1, Energy: 1}
	cases := []struct {
		b    TE
		want bool
	}{
		{TE{Time: 2, Energy: 2}, true},
		{TE{Time: 1, Energy: 2}, true},
		{TE{Time: 2, Energy: 1}, true},
		{TE{Time: 1, Energy: 1}, false}, // equal: no strict improvement
		{TE{Time: 0.5, Energy: 2}, false},
		{TE{Time: 2, Energy: 0.5}, false},
	}
	for _, c := range cases {
		if got := Dominates(a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}

func TestEnergyAtDeadline(t *testing.T) {
	fr := []TE{
		{Time: 1, Energy: 10, Index: 0},
		{Time: 2, Energy: 5, Index: 1},
		{Time: 4, Energy: 2, Index: 2},
	}
	if _, ok := EnergyAtDeadline(fr, 0.5); ok {
		t.Error("deadline below minimum time should be infeasible")
	}
	if p, ok := EnergyAtDeadline(fr, 1); !ok || p.Index != 0 {
		t.Errorf("deadline 1 -> %v, %v", p, ok)
	}
	if p, ok := EnergyAtDeadline(fr, 3); !ok || p.Index != 1 {
		t.Errorf("deadline 3 -> %v, %v (want index 1)", p, ok)
	}
	if p, ok := EnergyAtDeadline(fr, 100); !ok || p.Index != 2 {
		t.Errorf("deadline 100 -> %v, %v (want index 2)", p, ok)
	}
}

// The energy-at-deadline staircase is non-increasing in the deadline.
func TestEnergyAtDeadlineMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fr, err := Frontier(randomPoints(rng, 30))
		if err != nil {
			return false
		}
		prev := math.Inf(1)
		for d := 0.1; d < 10; d *= 1.3 {
			p, ok := EnergyAtDeadline(fr, d)
			if !ok {
				continue
			}
			if p.Energy > prev {
				return false
			}
			prev = p.Energy
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMinTimeMinEnergy(t *testing.T) {
	fr := []TE{{Time: 1, Energy: 10}, {Time: 4, Energy: 2}}
	if MinTime(fr) != 1 || MinEnergy(fr) != 2 {
		t.Errorf("MinTime/MinEnergy = %v/%v", MinTime(fr), MinEnergy(fr))
	}
	if !math.IsInf(MinTime(nil), 1) || !math.IsInf(MinEnergy(nil), 1) {
		t.Error("empty frontier should report +Inf")
	}
}

func TestRegions(t *testing.T) {
	// Frontier with labels M M M L L H (by index).
	fr := []TE{
		{Time: 1, Energy: 60, Index: 0},
		{Time: 2, Energy: 50, Index: 1},
		{Time: 3, Energy: 40, Index: 2},
		{Time: 4, Energy: 30, Index: 3},
		{Time: 5, Energy: 20, Index: 4},
		{Time: 6, Energy: 10, Index: 5},
	}
	labels := []Label{LabelMix, LabelMix, LabelMix, LabelHomogeneousLow, LabelHomogeneousLow, LabelHomogeneousHigh}
	regions := Regions(fr, func(i int) Label { return labels[i] })
	if len(regions) != 3 {
		t.Fatalf("regions = %v", regions)
	}
	if regions[0].Label != LabelMix || regions[0].Points() != 3 {
		t.Errorf("region 0 = %+v", regions[0])
	}
	if regions[0].TimeLo != 1 || regions[0].TimeHi != 3 ||
		regions[0].EnergyHi != 60 || regions[0].EnergyLo != 40 {
		t.Errorf("region 0 bounds wrong: %+v", regions[0])
	}
	// The mix region is exactly linear here.
	if regions[0].LinearR2 < 0.999 {
		t.Errorf("linear region r2 = %v", regions[0].LinearR2)
	}
	if regions[1].Label != LabelHomogeneousLow || regions[1].Points() != 2 {
		t.Errorf("region 1 = %+v", regions[1])
	}

	sweet, ok := SweetRegion(fr, func(i int) Label { return labels[i] })
	if !ok || sweet.Start != 0 || sweet.End != 3 {
		t.Errorf("sweet region = %+v, %v", sweet, ok)
	}
	overlap, ok := OverlapRegion(fr, func(i int) Label { return labels[i] })
	if !ok || overlap.Start != 3 || overlap.End != 5 {
		t.Errorf("overlap region = %+v, %v", overlap, ok)
	}
}

func TestSweetRegionAbsent(t *testing.T) {
	fr := []TE{{Time: 1, Energy: 2, Index: 0}}
	if _, ok := SweetRegion(fr, func(int) Label { return LabelHomogeneousHigh }); ok {
		t.Error("no mix points should yield no sweet region")
	}
	if _, ok := OverlapRegion(fr, func(int) Label { return LabelHomogeneousHigh }); ok {
		t.Error("no low-only points should yield no overlap region")
	}
}

func TestLabelString(t *testing.T) {
	cases := map[Label]string{
		LabelMix:             "mix",
		LabelHomogeneousLow:  "low-only",
		LabelHomogeneousHigh: "high-only",
		Label(9):             "label(9)",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(l), got, want)
		}
	}
}

func TestRegionsPartitionFrontier(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fr, err := Frontier(randomPoints(rng, 40))
		if err != nil {
			return false
		}
		labelOf := func(i int) Label { return Label(i % 3) }
		regions := Regions(fr, labelOf)
		// Regions tile [0, len) exactly.
		at := 0
		for _, r := range regions {
			if r.Start != at || r.End <= r.Start {
				return false
			}
			at = r.End
		}
		return at == len(fr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHypervolumeKnownValues(t *testing.T) {
	fr := []TE{
		{Time: 1, Energy: 3},
		{Time: 2, Energy: 1},
	}
	// Reference (4, 4): slab [1,2)x(4-3) = 1 plus slab [2,4)x(4-1) = 6.
	hv, err := Hypervolume(fr, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hv-7) > 1e-12 {
		t.Errorf("hypervolume = %v, want 7", hv)
	}
	// Points at or beyond the reference time contribute nothing.
	hv, err = Hypervolume(fr, 1.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hv-0.5) > 1e-12 {
		t.Errorf("clipped hypervolume = %v, want 0.5", hv)
	}
	if _, err := Hypervolume(nil, 1, 1); err == nil {
		t.Error("empty frontier should error")
	}
	if _, err := Hypervolume(fr, 0, 1); err == nil {
		t.Error("bad reference should error")
	}
}

// Adding a dominating point never decreases hypervolume, and a superset
// frontier dominates its subset's hypervolume.
func TestHypervolumeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, 20)
		fr, err := Frontier(pts)
		if err != nil {
			return false
		}
		ref := 100.0
		full, err := Hypervolume(fr, ref, ref)
		if err != nil {
			return false
		}
		if len(fr) < 2 {
			return full >= 0
		}
		sub, err := Hypervolume(fr[:len(fr)-1], ref, ref)
		if err != nil {
			return false
		}
		return full >= sub-1e-12 && full >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: feeding any point set through OnlineFrontier in any order of
// the generated sequence yields exactly Frontier of that set.
func TestOnlineFrontierMatchesBatch(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		// Pair up consecutive values into (time, energy) points on a small
		// grid so duplicates and ties are common.
		var pts []TE
		for i := 0; i+1 < len(raw); i += 2 {
			pts = append(pts, TE{
				Time:   1 + float64(raw[i]%32),
				Energy: 1 + float64(raw[i+1]%32),
				Index:  len(pts),
			})
		}
		if len(pts) == 0 {
			return true
		}
		want, err := Frontier(pts)
		if err != nil {
			return false
		}
		var of OnlineFrontier
		for _, p := range pts {
			if _, err := of.Add(p); err != nil {
				return false
			}
		}
		got := of.Frontier()
		if len(got) != len(want) {
			t.Logf("online %d points, batch %d", len(got), len(want))
			return false
		}
		for i := range want {
			if got[i].Time != want[i].Time || got[i].Energy != want[i].Energy {
				t.Logf("point %d: online (%v,%v), batch (%v,%v)",
					i, got[i].Time, got[i].Energy, want[i].Time, want[i].Energy)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The splice coordinates returned by Insert describe the mutation exactly:
// mirroring them onto a shadow slice keeps it identical to the frontier.
func TestOnlineFrontierInsertSplices(t *testing.T) {
	f := func(raw []uint16) bool {
		var of OnlineFrontier
		var shadow []TE
		for i := 0; i+1 < len(raw); i += 2 {
			p := TE{Time: 1 + float64(raw[i]%16), Energy: 1 + float64(raw[i+1]%16)}
			pos, removed, added, err := of.Insert(p)
			if err != nil {
				return false
			}
			if !added {
				if removed != 0 {
					return false
				}
				continue
			}
			if removed > 0 {
				shadow[pos] = p
				shadow = append(shadow[:pos+1], shadow[pos+removed:]...)
			} else {
				shadow = append(shadow, TE{})
				copy(shadow[pos+1:], shadow[pos:])
				shadow[pos] = p
			}
		}
		cur := of.Frontier()
		if len(cur) != len(shadow) || len(cur) != of.Len() {
			return false
		}
		for i := range cur {
			if cur[i].Time != shadow[i].Time || cur[i].Energy != shadow[i].Energy {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOnlineFrontierRejectsInvalid(t *testing.T) {
	var of OnlineFrontier
	for _, p := range []TE{
		{Time: 0, Energy: 1},
		{Time: 1, Energy: -1},
		{Time: math.Inf(1), Energy: 1},
		{Time: 1, Energy: math.NaN()},
	} {
		if _, err := of.Add(p); err == nil {
			t.Errorf("point %+v should error", p)
		}
	}
	if of.Len() != 0 {
		t.Errorf("rejected points must not join the frontier (len %d)", of.Len())
	}
}

// First-offered-wins among exact duplicates, matching Frontier's tie rule.
func TestOnlineFrontierDuplicateKeepsFirst(t *testing.T) {
	var of OnlineFrontier
	if added, _ := of.Add(TE{Time: 2, Energy: 5, Index: 1}); !added {
		t.Fatal("first point must join")
	}
	if added, _ := of.Add(TE{Time: 2, Energy: 5, Index: 2}); added {
		t.Error("exact duplicate must be rejected")
	}
	fr := of.Frontier()
	if len(fr) != 1 || fr[0].Index != 1 {
		t.Errorf("frontier %+v, want the first-offered point", fr)
	}
}

// MarginDominated must answer exactly what a scan of every offered point
// with MarginDominates answers: the frontier is the whole witness set.
func TestOnlineFrontierMarginDominatedMatchesScan(t *testing.T) {
	f := func(raw []uint16, probes []uint16) bool {
		var of OnlineFrontier
		var seen []TE
		// A coarse grid with a margin of a quarter step makes exact ties,
		// near ties and clear wins all common.
		const m = 0.25
		grid := func(v uint16) float64 { return 1 + float64(v%24)/4 }
		for i := 0; i+1 < len(raw); i += 2 {
			p := TE{Time: grid(raw[i]), Energy: grid(raw[i+1])}
			seen = append(seen, p)
			if _, err := of.Add(p); err != nil {
				return false
			}
		}
		for i := 0; i+1 < len(probes); i += 2 {
			p := TE{Time: grid(probes[i]), Energy: grid(probes[i+1])}
			want := false
			for _, q := range seen {
				want = want || MarginDominates(q, p, m)
			}
			if got := of.MarginDominated(p, m); got != want {
				t.Logf("probe %v over %v: got %v, want %v", p, seen, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if MarginDominates(TE{Time: 1, Energy: 1}, TE{Time: 1, Energy: 1}, 1e-9) {
		t.Error("a point must not beat itself by a positive margin")
	}
}
