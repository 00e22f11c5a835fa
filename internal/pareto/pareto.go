// Package pareto derives energy-deadline Pareto frontiers, the analysis
// device of the paper's §IV: among all cluster configurations that can
// service a job, a configuration is Pareto-optimal if no other finishes
// at least as fast with less energy. The set of Pareto-optimal points
// across all deadlines is the energy-deadline Pareto frontier (Figures
// 4-9), and its structure — the heterogeneous "sweet region" where energy
// falls linearly as the deadline relaxes, and the homogeneous "overlap
// region" of compute-bound workloads — carries the paper's observations.
package pareto

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"heteromix/internal/stats"
)

// TE is one configuration's (time, energy) outcome; Index points back at
// the caller's configuration slice.
type TE struct {
	Time   float64 `json:"time"`
	Energy float64 `json:"energy"`
	Index  int     `json:"index"`
}

// Frontier returns the Pareto-optimal subset of the given points, sorted
// by ascending time (hence strictly descending energy). Among points with
// identical time, only the cheapest can be optimal. Points with
// non-finite or non-positive coordinates are an error.
func Frontier(points []TE) ([]TE, error) {
	if len(points) == 0 {
		return nil, errors.New("pareto: no points")
	}
	for _, p := range points {
		if !(p.Time > 0) || !(p.Energy > 0) ||
			math.IsInf(p.Time, 0) || math.IsInf(p.Energy, 0) {
			return nil, fmt.Errorf("pareto: invalid point (%v, %v)", p.Time, p.Energy)
		}
	}
	sorted := append([]TE(nil), points...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Time != sorted[j].Time {
			return sorted[i].Time < sorted[j].Time
		}
		return sorted[i].Energy < sorted[j].Energy
	})
	var out []TE
	best := math.Inf(1)
	for _, p := range sorted {
		if p.Energy < best {
			// Skip duplicates in time: the first (cheapest) wins.
			if len(out) > 0 && out[len(out)-1].Time == p.Time {
				continue
			}
			out = append(out, p)
			best = p.Energy
		}
	}
	return out, nil
}

// Dominates reports whether a dominates b: a is no worse on both axes and
// strictly better on at least one.
func Dominates(a, b TE) bool {
	return a.Time <= b.Time && a.Energy <= b.Energy &&
		(a.Time < b.Time || a.Energy < b.Energy)
}

// MarginDominates reports whether a beats b by the relative margin m on
// both axes: a's time and energy, each scaled up by 1+m, are still no
// worse than b's. For m > 0 it is a strict partial order on positive
// points (irreflexive and transitive), and a point that beats another by
// a margin far above the rounding error of its coordinates keeps
// dominating it strictly however those coordinates are rescaled.
func MarginDominates(a, b TE, m float64) bool {
	return a.Time*(1+m) <= b.Time && a.Energy*(1+m) <= b.Energy
}

// OnlineFrontier maintains a Pareto frontier incrementally: points are
// offered one at a time and the current frontier is always available.
// Feeding every point of a set yields exactly Frontier of that set
// (first-offered wins among exact duplicates), but the set itself is
// never held — only the frontier, which for the paper's configuration
// spaces is a few hundred entries against tens of thousands of points.
// The zero value is an empty frontier ready for use.
type OnlineFrontier struct {
	// pts is the current frontier: time strictly ascending, energy
	// strictly descending.
	pts []TE
}

// Insert offers p and reports the splice it caused, so callers can mirror
// payloads riding alongside each TE: when added, p landed at position pos
// after evicting removed now-dominated entries that started there. When
// p is dominated (or duplicates an existing point) added is false and the
// frontier is unchanged. Points with non-finite or non-positive
// coordinates are an error, as in Frontier.
func (f *OnlineFrontier) Insert(p TE) (pos, removed int, added bool, err error) {
	if !(p.Time > 0) || !(p.Energy > 0) ||
		math.IsInf(p.Time, 0) || math.IsInf(p.Energy, 0) {
		return 0, 0, false, fmt.Errorf("pareto: invalid point (%v, %v)", p.Time, p.Energy)
	}
	pos = sort.Search(len(f.pts), func(i int) bool { return f.pts[i].Time >= p.Time })
	// The predecessor is strictly faster; if it is also no more expensive
	// it dominates p.
	if pos > 0 && f.pts[pos-1].Energy <= p.Energy {
		return 0, 0, false, nil
	}
	// An equal-time entry that is at least as cheap covers p (including
	// the exact-duplicate case, where the first-offered point is kept).
	if pos < len(f.pts) && f.pts[pos].Time == p.Time && f.pts[pos].Energy <= p.Energy {
		return 0, 0, false, nil
	}
	// Entries from pos on are no faster than p; those at least as
	// expensive are now dominated. They form a contiguous run because
	// energies descend.
	end := pos
	for end < len(f.pts) && f.pts[end].Energy >= p.Energy {
		end++
	}
	removed = end - pos
	if removed > 0 {
		f.pts[pos] = p
		f.pts = append(f.pts[:pos+1], f.pts[end:]...)
	} else {
		f.pts = append(f.pts, TE{})
		copy(f.pts[pos+1:], f.pts[pos:])
		f.pts[pos] = p
	}
	return pos, removed, true, nil
}

// MarginDominated reports whether some point offered so far beats p by
// the relative margin m (MarginDominates). The frontier weakly dominates
// every offered point, so it suffices to ask its entries; and since
// scaled times ascend with the entries' times while energies descend,
// the only entry to ask is the last one fast enough. O(log n).
func (f *OnlineFrontier) MarginDominated(p TE, m float64) bool {
	k := sort.Search(len(f.pts), func(i int) bool { return f.pts[i].Time*(1+m) > p.Time })
	return k > 0 && MarginDominates(f.pts[k-1], p, m)
}

// Add offers p, reporting only whether it joined the frontier.
func (f *OnlineFrontier) Add(p TE) (bool, error) {
	_, _, added, err := f.Insert(p)
	return added, err
}

// Len returns the current frontier size.
func (f *OnlineFrontier) Len() int { return len(f.pts) }

// Frontier returns a copy of the current frontier, time-ascending — the
// same (time, energy) sequence Frontier returns for every point offered
// so far; empty if no point has been offered.
func (f *OnlineFrontier) Frontier() []TE {
	return append([]TE(nil), f.pts...)
}

// TakeFrontier returns what Frontier would, without copying it: the
// caller gets the frontier's own backing slice, and f is left empty and
// ready for reuse. It suits a caller that drops f right after.
func (f *OnlineFrontier) TakeFrontier() []TE {
	pts := f.pts
	f.pts = nil
	return pts
}

// EnergyAtDeadline returns the minimum energy any frontier point achieves
// within the deadline, and that point. The frontier must be the output of
// Frontier (time-ascending, energy-descending). It returns ok = false
// when no configuration meets the deadline.
func EnergyAtDeadline(frontier []TE, deadline float64) (TE, bool) {
	// The last frontier point with Time <= deadline has the least energy.
	i := sort.Search(len(frontier), func(i int) bool { return frontier[i].Time > deadline })
	if i == 0 {
		return TE{}, false
	}
	return frontier[i-1], true
}

// MinTime returns the frontier's fastest achievable time.
func MinTime(frontier []TE) float64 {
	if len(frontier) == 0 {
		return math.Inf(1)
	}
	return frontier[0].Time
}

// MinEnergy returns the frontier's lowest achievable energy (at the most
// relaxed deadline).
func MinEnergy(frontier []TE) float64 {
	if len(frontier) == 0 {
		return math.Inf(1)
	}
	return frontier[len(frontier)-1].Energy
}

// Label classifies a configuration for region analysis.
type Label int

// Labels for the two-type cluster analysis.
const (
	// LabelMix marks heterogeneous configurations (both node types).
	LabelMix Label = iota
	// LabelHomogeneousLow marks low-power-only configurations (ARM-only).
	LabelHomogeneousLow
	// LabelHomogeneousHigh marks high-performance-only configurations
	// (AMD-only).
	LabelHomogeneousHigh
)

// String names the label.
func (l Label) String() string {
	switch l {
	case LabelMix:
		return "mix"
	case LabelHomogeneousLow:
		return "low-only"
	case LabelHomogeneousHigh:
		return "high-only"
	default:
		return fmt.Sprintf("label(%d)", int(l))
	}
}

// Region is a maximal run of consecutive frontier points sharing a label.
type Region struct {
	Label Label
	// Start and End index into the frontier slice (End exclusive).
	Start, End int
	// TimeLo/TimeHi and EnergyHi/EnergyLo are the region's bounds.
	TimeLo, TimeHi     float64
	EnergyHi, EnergyLo float64
	// LinearR2 is the r^2 of a linear fit of energy over time across the
	// region's points (1 for regions of fewer than three points). The
	// paper's sweet region is characterized by energy falling linearly
	// as the deadline relaxes.
	LinearR2 float64
}

// Points returns how many frontier points the region spans.
func (r Region) Points() int { return r.End - r.Start }

// Regions segments a frontier into maximal same-label runs. labelOf maps
// a frontier point's Index back to its configuration's label.
func Regions(frontier []TE, labelOf func(index int) Label) []Region {
	var out []Region
	for i := 0; i < len(frontier); {
		l := labelOf(frontier[i].Index)
		j := i + 1
		for j < len(frontier) && labelOf(frontier[j].Index) == l {
			j++
		}
		out = append(out, makeRegion(frontier, l, i, j))
		i = j
	}
	return out
}

func makeRegion(frontier []TE, l Label, start, end int) Region {
	r := Region{
		Label: l, Start: start, End: end,
		TimeLo:   frontier[start].Time,
		TimeHi:   frontier[end-1].Time,
		EnergyHi: frontier[start].Energy,
		EnergyLo: frontier[end-1].Energy,
		LinearR2: 1,
	}
	if end-start >= 3 {
		var ts, es []float64
		for _, p := range frontier[start:end] {
			ts = append(ts, p.Time)
			es = append(es, p.Energy)
		}
		if fit, err := stats.LinearFit(ts, es); err == nil {
			r.LinearR2 = fit.R2
		}
	}
	return r
}

// SweetRegion returns the longest mix-labeled region of the frontier, the
// paper's "sweet region" (a union of Pareto-optimal heterogeneous sweet
// spots), and ok = false if the frontier has no mix-labeled points.
func SweetRegion(frontier []TE, labelOf func(index int) Label) (Region, bool) {
	var best Region
	found := false
	for _, r := range Regions(frontier, labelOf) {
		if r.Label == LabelMix && (!found || r.Points() > best.Points()) {
			best, found = r, true
		}
	}
	return best, found
}

// Hypervolume returns the area dominated by the frontier relative to a
// reference point (refTime, refEnergy) that every frontier point must
// dominate: the standard quantitative indicator for comparing Pareto
// frontiers. A larger hypervolume means a frontier that reaches lower
// energies at tighter deadlines. Frontier points outside the reference
// box contribute only their clipped part.
func Hypervolume(frontier []TE, refTime, refEnergy float64) (float64, error) {
	if len(frontier) == 0 {
		return 0, errors.New("pareto: empty frontier")
	}
	if refTime <= 0 || refEnergy <= 0 {
		return 0, fmt.Errorf("pareto: invalid reference point (%v, %v)", refTime, refEnergy)
	}
	// frontier is time-ascending, energy-descending: sweep time slabs.
	hv := 0.0
	for i, p := range frontier {
		lo := p.Time
		if lo >= refTime {
			break
		}
		hi := refTime
		if i+1 < len(frontier) && frontier[i+1].Time < refTime {
			hi = frontier[i+1].Time
		}
		height := refEnergy - p.Energy
		if height <= 0 {
			continue
		}
		hv += (hi - lo) * height
	}
	return hv, nil
}

// OverlapRegion returns the longest homogeneous-low region (the paper's
// "overlap region", where ARM-only configurations continue the frontier
// for compute-bound workloads), and ok = false if none exists.
func OverlapRegion(frontier []TE, labelOf func(index int) Label) (Region, bool) {
	var best Region
	found := false
	for _, r := range Regions(frontier, labelOf) {
		if r.Label == LabelHomogeneousLow && (!found || r.Points() > best.Points()) {
			best, found = r, true
		}
	}
	return best, found
}
