package cluster

import (
	"fmt"

	"heteromix/internal/hwsim"
	"heteromix/internal/model"
	"heteromix/internal/units"
)

// This file implements the configuration-space reduction the paper leaves
// open ("An approach to reduce the configuration space is beyond the
// scope of this paper", §IV-B).
//
// The key structural fact: under the matching split, a group of n nodes
// at per-node configuration c contributes energy n * P_avg(c) * T to a
// job of duration T, where P_avg(c) is the node's average power and the
// cluster duration T falls as any group's per-unit time k(c) falls. So
// replacing a node configuration with one that is no slower per unit
// (k' <= k) and draws no more average power (P' <= P) weakly improves
// both axes of every cluster configuration containing it. Consequently
// only per-type configurations on the (k, P) Pareto frontier can appear
// in energy-deadline Pareto-optimal cluster configurations, and the
// cluster frontier computed from the pruned space equals the frontier of
// the full space. The equivalence is asserted by tests and the speedup
// measured by BenchmarkPrunedVsFullEnumeration.

// nodeOperatingPoint is a per-node configuration's (k, P) signature.
type nodeOperatingPoint struct {
	cfg hwsim.Config
	k   float64 // seconds per work unit
	p   float64 // average watts while servicing
}

// PrunedNodeConfigs returns the configurations of nm's node type that
// survive (time-per-unit, average-power) domination pruning, in
// enumeration order.
func PrunedNodeConfigs(nm model.NodeModel) ([]hwsim.Config, error) {
	all := hwsim.Configs(nm.Spec)
	points := make([]nodeOperatingPoint, 0, len(all))
	for _, cfg := range all {
		pred, err := nm.Predict(cfg, 1)
		if err != nil {
			return nil, fmt.Errorf("cluster: pruning %s: %w", nm.Spec.Name, err)
		}
		points = append(points, nodeOperatingPoint{
			cfg: cfg,
			k:   float64(pred.Time),
			p:   float64(pred.AvgPower),
		})
	}
	var out []hwsim.Config
	for i, a := range points {
		dominated := false
		for j, b := range points {
			if i == j {
				continue
			}
			if b.k <= a.k && b.p <= a.p && (b.k < a.k || b.p < a.p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a.cfg)
		}
	}
	return out, nil
}

// PruneStats reports the reduction achieved by pruning.
type PruneStats struct {
	// ARMConfigs and AMDConfigs are the surviving per-node configuration
	// counts (out of 20 and 18 for the paper's nodes).
	ARMConfigs, AMDConfigs int
	// FullSpace and PrunedSpace are the cluster-space sizes before and
	// after pruning for the given node bounds.
	FullSpace, PrunedSpace int
}

// Reduction returns the space-size reduction factor.
func (ps PruneStats) Reduction() float64 {
	if ps.PrunedSpace == 0 {
		return 0
	}
	return float64(ps.FullSpace) / float64(ps.PrunedSpace)
}

// EnumeratePruned evaluates only cluster configurations built from
// domination-pruned per-node configurations. Its Pareto frontier equals
// the full space's (see the file comment), at a fraction of the cost.
func (s Space) EnumeratePruned(maxARM, maxAMD int, w float64) ([]Point, PruneStats, error) {
	if err := validBounds(maxARM, maxAMD); err != nil {
		return nil, PruneStats{}, err
	}
	armCfgs, err := PrunedNodeConfigs(s.ARM)
	if err != nil {
		return nil, PruneStats{}, err
	}
	amdCfgs, err := PrunedNodeConfigs(s.AMD)
	if err != nil {
		return nil, PruneStats{}, err
	}
	// The kernel entries for the surviving configurations carry the same
	// coefficients as the full table's, so pruned points are bit-identical
	// to their counterparts in Enumerate's output.
	t, err := s.compile(maxARM, maxAMD, w, armCfgs, amdCfgs)
	if err != nil {
		return nil, PruneStats{}, err
	}
	stats := PruneStats{
		ARMConfigs:  len(armCfgs),
		AMDConfigs:  len(amdCfgs),
		FullSpace:   s.SpaceSize(maxARM, maxAMD),
		PrunedSpace: t.twoTypeSize(maxARM, maxAMD),
	}
	out := make([]Point, 0, stats.PrunedSpace)
	t.forEachTwoType(maxARM, maxAMD, w, func(p Point) bool {
		out = append(out, p)
		return true
	})
	return out, stats, nil
}

// MostEfficientPerNode is a convenience over PrunedNodeConfigs: the
// single configuration minimizing energy per unit, with its operating
// point. It equals model.NodeModel.MostEfficientConfig but is exposed
// here alongside the pruning machinery for callers already holding a
// Space.
func MostEfficientPerNode(nm model.NodeModel) (hwsim.Config, units.Seconds, units.Watt, error) {
	cfg, pred, err := nm.MostEfficientConfig()
	if err != nil {
		return hwsim.Config{}, 0, 0, err
	}
	return cfg, pred.Time, pred.AvgPower, nil
}
