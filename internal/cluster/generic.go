package cluster

import (
	"fmt"
	"math"
	"strconv"

	"heteromix/internal/hwsim"
	"heteromix/internal/model"
	"heteromix/internal/pareto"
	"heteromix/internal/units"
)

// This file generalizes the two-type configuration space to any number
// of node types, realizing the paper's claim that the methodology
// "determine[s] a generic mix of heterogeneous nodes" (§II-A). Evaluate
// already accepts arbitrary group lists; what follows adds enumeration
// over N-type count/configuration cartesian products, at feature parity
// on the one evaluation kernel the two-type Space also runs on
// (kernel.go): streaming (EnumerateGroupsFunc), per-type domination
// pruning (PruneGroupTypes), online Pareto frontiers (GenericFrontierOf,
// GenericTable.FrontierCounted) and sharded walks (shard_walk.go).

// GroupType describes one node type available to a generic cluster.
type GroupType struct {
	// Model is the workload's fitted model on this node type.
	Model model.NodeModel
	// MaxNodes bounds the enumeration for this type, at most 1<<20.
	MaxNodes int
	// NeedsSwitch marks types whose nodes hang off dedicated switches.
	NeedsSwitch bool
	// Configs, when non-nil, restricts the per-node settings enumerated
	// for this type; nil selects every configuration of the spec.
	// PruneGroupTypes fills it with the domination survivors.
	Configs []hwsim.Config
}

// GenericPoint is one evaluated N-type configuration.
type GenericPoint struct {
	// Counts and Configs hold each type's node count and per-node
	// setting, indexed like the GroupType slice (Configs[i] is zero
	// when Counts[i] is 0).
	Counts  []int
	Configs []hwsim.Config
	Time    units.Seconds
	Energy  units.Joule
	// Work is each type's absolute share of the job.
	Work []float64
}

// Clone deep-copies the point. Streaming consumers that retain a point
// past its yield call must Clone it: the streamed point's slices are
// scratch buffers reused for the next point.
func (p GenericPoint) Clone() GenericPoint {
	q := p
	q.Counts = append([]int(nil), p.Counts...)
	q.Configs = append([]hwsim.Config(nil), p.Configs...)
	q.Work = append([]float64(nil), p.Work...)
	return q
}

// typeName labels type i, falling back to "type<i>" beyond names.
func typeName(names []string, i int) string {
	if i < len(names) {
		return names[i]
	}
	return string(AppendTypeName(nil, names, i, nil))
}

// AppendTypeName appends typeName(names, i) through appendName, which
// writes a name from names (an encoder passes one that escapes it); the
// "type<i>" fallback needs no escaping.
func AppendTypeName(b []byte, names []string, i int, appendName func([]byte, string) []byte) []byte {
	if i < len(names) {
		return appendName(b, names[i])
	}
	return strconv.AppendInt(append(b, "type"...), int64(i), 10)
}

// Label renders the point's mix like "a9 8 : k10 2". Types with zero
// nodes are skipped, so the label names exactly the types the
// configuration uses. It is built in one buffer with strconv appends
// rather than fmt: labels are encoded once per emitted row.
func (p GenericPoint) Label(names []string) string {
	var buf [64]byte
	return string(p.AppendLabel(buf[:0], names, appendRaw))
}

// AppendLabel appends Label(names), writing each type name through
// appendName as AppendTypeName does.
func (p GenericPoint) AppendLabel(b []byte, names []string, appendName func([]byte, string) []byte) []byte {
	sep := false
	for i, n := range p.Counts {
		if n == 0 {
			continue
		}
		if sep {
			b = append(b, " : "...)
		}
		sep = true
		b = AppendTypeName(b, names, i, appendName)
		b = strconv.AppendInt(append(b, ' '), int64(n), 10)
	}
	return b
}

func appendRaw(b []byte, s string) []byte { return append(b, s...) }

// GenericGroupSummary is one used type of a GenericPointSummary.
type GenericGroupSummary struct {
	Type         string  `json:"type"`
	Nodes        int     `json:"nodes"`
	Cores        int     `json:"cores"`
	GHz          float64 `json:"ghz"`
	WorkFraction float64 `json:"work_fraction"`
}

// GenericPointSummary is a GenericPoint flattened to JSON-friendly
// scalars, the wire form the serving layer returns for generic
// enumeration queries. Absent types are omitted from Groups.
type GenericPointSummary struct {
	Groups       []GenericGroupSummary `json:"groups"`
	TimeSeconds  float64               `json:"time_seconds"`
	EnergyJoules float64               `json:"energy_joules"`
	Label        string                `json:"label"`
}

// Summary flattens the point for serialization; names labels each type
// positionally (Label's "type<i>" fallback applies beyond it).
func (p GenericPoint) Summary(names []string) GenericPointSummary {
	s := GenericPointSummary{
		TimeSeconds:  float64(p.Time),
		EnergyJoules: float64(p.Energy),
		Label:        p.Label(names),
	}
	used := 0
	for _, n := range p.Counts {
		if n != 0 {
			used++
		}
	}
	if used > 0 {
		s.Groups = make([]GenericGroupSummary, 0, used)
	}
	p.EachGroup(func(i int, g GenericGroupSummary) {
		g.Type = typeName(names, i)
		s.Groups = append(s.Groups, g)
	})
	return s
}

// EachGroup calls yield, in type order, for each type the point uses
// with the type's index and its summary group, Type left empty (Summary
// fills it from names): an encoder can write the group without building
// the summary.
func (p GenericPoint) EachGroup(yield func(i int, g GenericGroupSummary)) {
	total := 0.0
	for _, w := range p.Work {
		total += w
	}
	for i, n := range p.Counts {
		if n == 0 {
			continue
		}
		g := GenericGroupSummary{
			Nodes: n,
			Cores: p.Configs[i].Cores,
			GHz:   p.Configs[i].Frequency.GHzValue(),
		}
		if total > 0 {
			g.WorkFraction = p.Work[i] / total
		}
		yield(i, g)
	}
}

// EnumerateGroups evaluates every configuration of the generic space:
// all node-count vectors (0..MaxNodes per type, not all zero) crossed
// with all per-node configurations of the used types. The space grows
// as the product of MaxNodes × per-type configurations over all types —
// callers should pre-prune with PruneGroupTypes, stream aggregates with
// EnumerateGroupsFunc/GenericFrontierOf, or fan a frontier out with
// GenericTable.FrontierCounted.
//
// The walk runs on precomputed evaluation kernels: each type's per-unit
// coefficients are derived once, each point pays only the matching-split
// arithmetic, and the output's Counts/Configs/Work slices are carved
// from three flat backing arrays instead of being allocated per point.
func EnumerateGroups(types []GroupType, w float64) ([]GenericPoint, error) {
	g, err := NewGenericTable(types)
	if err != nil {
		return nil, err
	}
	return g.Enumerate(w)
}

// EnumerateGroupsFunc streams every point of the generic space to
// yield, in EnumerateGroups's order, without materializing anything.
// The yielded point's slices are scratch buffers valid only during the
// call — Clone to retain. Returning false from yield stops the
// enumeration early (not an error).
func EnumerateGroupsFunc(types []GroupType, w float64, yield func(GenericPoint) bool) error {
	g, err := NewGenericTable(types)
	if err != nil {
		return err
	}
	return g.ForEach(w, yield)
}

// GenericFrontierOf enumerates the generic space and returns only its
// Pareto-optimal points, maintained online as the enumeration streams:
// the space is never materialized and only retained points are copied
// out of the scratch buffers. The returned TE slice is time-ascending
// with each Index pointing into the returned point slice. Prune types
// first (PruneGroupTypes) for the fast path — the pruned frontier
// provably equals the full one.
func GenericFrontierOf(types []GroupType, w float64) ([]GenericPoint, []pareto.TE, error) {
	g, err := NewGenericTable(types)
	if err != nil {
		return nil, nil, err
	}
	return g.Frontier(w)
}

// PruneGroupTypes returns a copy of types with each used type's
// per-node configurations restricted to its (time-per-unit,
// average-power) domination survivors (PrunedNodeConfigs). Under the
// matching split, replacing a node configuration with one no slower
// and no hungrier weakly improves both axes of every cluster
// configuration containing it, so the pruned generic space has exactly
// the full space's Pareto frontier — asserted by
// TestGenericPrunedFrontierEqualsFull — at a fraction of the cost.
func PruneGroupTypes(types []GroupType) ([]GroupType, error) {
	out := append([]GroupType(nil), types...)
	for i := range out {
		if out[i].MaxNodes <= 0 {
			continue
		}
		cfgs, err := PrunedNodeConfigs(out[i].Model)
		if err != nil {
			return nil, fmt.Errorf("cluster: type %d: %w", i, err)
		}
		out[i].Configs = cfgs
	}
	return out, nil
}

// GenericSpaceSize returns the number of points EnumerateGroups yields:
// the product over types of (1 + MaxNodes × configurations), minus the
// all-absent vector. The product is computed in uint64 and saturates at
// math.MaxUint64 instead of silently wrapping for large bounds or many
// types; enumerators independently refuse spaces too large to
// materialize.
func GenericSpaceSize(types []GroupType) uint64 {
	prod := uint64(1)
	for _, gt := range types {
		per := uint64(1)
		if gt.MaxNodes > 0 {
			per = satAdd(1, satMul(uint64(gt.MaxNodes), uint64(len(typeConfigs(gt)))))
		}
		prod = satMul(prod, per)
	}
	if prod == math.MaxUint64 {
		return prod
	}
	return prod - 1
}
