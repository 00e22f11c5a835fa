// Package cluster lifts the single-node model to heterogeneous clusters
// and implements the paper's "mix and match" technique (§I, §II):
//
//   - the workload W splits between the node types (Eq. 4,
//     W = W_ARM + W_AMD) and evenly among nodes of the same type;
//
//   - the split is chosen so every node finishes at the same time
//     (Eq. 1, T = T_ARM = T_AMD), which minimizes idle energy: because
//     the model's per-node time is exactly linear in assigned work, the
//     matching split has the closed form W_g ∝ n_g / k_g, where k_g is
//     group g's predicted seconds per work unit;
//
//   - cluster energy adds, over the job's duration, the network switches
//     that connect the ARM nodes (the paper's §IV-C footnote: a 20 W
//     switch per 8 low-power nodes, which is what turns the raw 12:1
//     peak-power ratio into the 8:1 substitution ratio).
//
// The package also enumerates the full configuration space of §IV-B:
// every combination of node counts, active cores per node and core clock
// frequency for both types — 36,380 points for 10 ARM + 10 AMD nodes
// (footnote 2 of the paper).
package cluster

import (
	"fmt"
	"math"
	"strconv"

	"heteromix/internal/hwsim"
	"heteromix/internal/model"
	"heteromix/internal/units"
)

// Switch parameters from the paper's §IV-C footnote: each AMD node draws
// 60 W peak and each ARM node 5 W, so one AMD is power-equivalent to 12
// ARM; folding in a 20 W switch per group of ARM nodes yields the 8:1
// substitution ratio (8 x 5 W + 20 W = 60 W).
const (
	// SwitchPower is one ARM-connecting switch's draw.
	SwitchPower units.Watt = 20
	// ARMPortsPerSwitch is how many ARM nodes share one switch at the
	// substitution-ratio operating point.
	ARMPortsPerSwitch = 8
)

// Group is a set of identical nodes running the same configuration.
type Group struct {
	// Model is the fitted node model (workload + node type + power).
	Model model.NodeModel
	// Nodes is how many nodes of this type participate.
	Nodes int
	// Config is the per-node (cores, frequency) setting.
	Config hwsim.Config
	// NeedsSwitch marks node types whose nodes hang off dedicated
	// switches (true for the low-power ARM enclosure in the paper).
	NeedsSwitch bool
}

// Validate checks the group.
func (g Group) Validate() error {
	if g.Nodes < 0 {
		return fmt.Errorf("cluster: negative node count %d", g.Nodes)
	}
	if g.Nodes == 0 {
		return nil // absent group
	}
	if err := g.Model.Validate(); err != nil {
		return err
	}
	return g.Config.ValidateFor(g.Model.Spec)
}

// Switches returns the number of switches the group needs.
func (g Group) Switches() int {
	if !g.NeedsSwitch || g.Nodes == 0 {
		return 0
	}
	return (g.Nodes + ARMPortsPerSwitch - 1) / ARMPortsPerSwitch
}

// PeakPower returns the group's peak draw including switches, used by the
// power-budget analysis.
func (g Group) PeakPower() units.Watt {
	if g.Nodes == 0 {
		return 0
	}
	return units.Watt(float64(g.Model.Spec.PeakPower())*float64(g.Nodes)) +
		units.Watt(float64(SwitchPower)*float64(g.Switches()))
}

// Evaluation is the predicted outcome of servicing a job on a cluster
// configuration with the matching split applied.
type Evaluation struct {
	// Time is the job's service time (equal across groups by matching).
	Time units.Seconds
	// Energy is the total cluster energy for the job, including switch
	// energy over the job duration.
	Energy units.Joule
	// Work holds each group's share of the job (the matching split),
	// indexed like the groups passed to Evaluate.
	Work []float64
	// GroupEnergy is each group's total energy (all its nodes).
	GroupEnergy []units.Joule
}

// Evaluate services w work units on the given groups using the matching
// split. At least one group must have nodes.
func Evaluate(groups []Group, w float64) (Evaluation, error) {
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return Evaluation{}, fmt.Errorf("cluster: work must be positive and finite, got %v", w)
	}
	active := 0
	for i, g := range groups {
		if err := g.Validate(); err != nil {
			return Evaluation{}, fmt.Errorf("cluster: group %d: %w", i, err)
		}
		if g.Nodes > 0 {
			active++
		}
	}
	if active == 0 {
		return Evaluation{}, fmt.Errorf("cluster: no nodes in any group")
	}

	// Per-group throughput: nodes / (seconds per unit per node).
	// The matching split assigns W_g = W * thr_g / sum(thr) so that
	// T_g = (W_g / n_g) * k_g = W / sum(thr) for every group — all nodes
	// finish together (paper Eq. 1).
	thr := make([]float64, len(groups))
	totalThr := 0.0
	for i, g := range groups {
		if g.Nodes == 0 {
			continue
		}
		k, err := g.Model.TimePerUnit(g.Config)
		if err != nil {
			return Evaluation{}, fmt.Errorf("cluster: group %d: %w", i, err)
		}
		thr[i] = float64(g.Nodes) / float64(k)
		totalThr += thr[i]
	}
	if totalThr <= 0 {
		return Evaluation{}, fmt.Errorf("cluster: zero aggregate throughput")
	}

	t := units.Seconds(w / totalThr)
	ev := Evaluation{
		Time:        t,
		Work:        make([]float64, len(groups)),
		GroupEnergy: make([]units.Joule, len(groups)),
	}
	for i, g := range groups {
		if g.Nodes == 0 {
			continue
		}
		ev.Work[i] = w * thr[i] / totalThr
		perNode := ev.Work[i] / float64(g.Nodes)
		pred, err := g.Model.Predict(g.Config, perNode)
		if err != nil {
			return Evaluation{}, fmt.Errorf("cluster: group %d: %w", i, err)
		}
		e := units.Joule(float64(pred.Energy) * float64(g.Nodes))
		// Switch energy over the job duration.
		e += units.Watt(float64(SwitchPower) * float64(g.Switches())).Times(t)
		ev.GroupEnergy[i] = e
		ev.Energy += e
	}
	return ev, nil
}

// TypeConfig is one node type's setting in a two-type configuration.
type TypeConfig struct {
	// Nodes is the node count (0 = type unused).
	Nodes int
	// Config is the per-node setting (ignored when Nodes is 0).
	Config hwsim.Config
}

// Configuration is one point of the paper's two-type search space.
type Configuration struct {
	ARM TypeConfig
	AMD TypeConfig
}

// String renders the configuration the way the paper labels its series,
// e.g. "ARM 16:AMD 14 arm[c4@1.40GHz] amd[c6@2.10GHz]", built in one
// buffer with strconv appends rather than fmt: labels are encoded once
// per emitted row.
func (c Configuration) String() string {
	var buf [64]byte
	b := append(buf[:0], "ARM "...)
	b = strconv.AppendInt(b, int64(c.ARM.Nodes), 10)
	b = append(b, ":AMD "...)
	b = strconv.AppendInt(b, int64(c.AMD.Nodes), 10)
	if c.ARM.Nodes > 0 {
		b = appendSetting(append(b, " arm["...), c.ARM.Config)
	}
	if c.AMD.Nodes > 0 {
		b = appendSetting(append(b, " amd["...), c.AMD.Config)
	}
	return string(b)
}

// appendSetting appends a per-node setting as "c<cores>@<frequency>]".
func appendSetting(b []byte, cfg hwsim.Config) []byte {
	b = strconv.AppendInt(append(b, 'c'), int64(cfg.Cores), 10)
	return append(cfg.Frequency.Append(append(b, '@')), ']')
}

// Point is an evaluated configuration: one dot in Figures 4 and 5.
type Point struct {
	Config Configuration
	Time   units.Seconds
	Energy units.Joule
	// WorkARM is the fraction of the job the matching split sends to the
	// ARM side.
	WorkARM float64
}

// Space evaluates the full two-type configuration space.
type Space struct {
	// ARM and AMD are the workload's fitted models for the two types.
	ARM, AMD model.NodeModel
	// NoSwitchEnergy excludes the ARM switches' energy from job-energy
	// accounting (their peak power still counts against power budgets).
	// The paper introduces the switch only in its power-budget analysis
	// (§IV-C footnote); this flag lets experiments report both
	// conventions.
	NoSwitchEnergy bool
}

// Groups materializes a Configuration into Evaluate's input.
func (s Space) Groups(cfg Configuration) []Group {
	return []Group{
		{Model: s.ARM, Nodes: cfg.ARM.Nodes, Config: cfg.ARM.Config, NeedsSwitch: !s.NoSwitchEnergy},
		{Model: s.AMD, Nodes: cfg.AMD.Nodes, Config: cfg.AMD.Config},
	}
}

// Evaluate services w units on one configuration.
func (s Space) Evaluate(cfg Configuration, w float64) (Point, error) {
	ev, err := Evaluate(s.Groups(cfg), w)
	if err != nil {
		return Point{}, err
	}
	workARM := 0.0
	if total := ev.Work[0] + ev.Work[1]; total > 0 {
		workARM = ev.Work[0] / total
	}
	return Point{Config: cfg, Time: ev.Time, Energy: ev.Energy, WorkARM: workARM}, nil
}

// Enumerate evaluates every configuration with up to maxARM ARM nodes and
// maxAMD AMD nodes servicing w units: all heterogeneous mixes (both
// counts >= 1) plus the homogeneous ARM-only and AMD-only families. For
// maxARM = maxAMD = 10 this is the paper's 36,380-point space.
//
// Enumeration runs on the precomputed kernel table (see kernel.go): the
// models are validated and their per-unit coefficients derived once, and
// each point costs a handful of float multiplies. The result matches
// evaluating each configuration with Evaluate — bit-identical times and
// splits, energies within a few ULPs.
func (s Space) Enumerate(maxARM, maxAMD int, w float64) ([]Point, error) {
	t, err := s.compile(maxARM, maxAMD, w, nil, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Point, 0, t.twoTypeSize(maxARM, maxAMD))
	t.forEachTwoType(maxARM, maxAMD, w, func(p Point) bool {
		out = append(out, p)
		return true
	})
	return out, nil
}

// SpaceSize returns the number of configurations Enumerate produces,
// matching the paper's footnote-2 arithmetic.
func (s Space) SpaceSize(maxARM, maxAMD int) int {
	a := len(hwsim.Configs(s.ARM.Spec))
	d := len(hwsim.Configs(s.AMD.Spec))
	return maxARM*a*maxAMD*d + maxARM*a + maxAMD*d
}

// EnumerateFilteredFunc streams the sub-space whose per-node
// configurations pass the keep predicates (nil keeps everything) to
// yield in Enumerate's order, without materializing it; yield returning
// false stops the walk early. It supports ablations that disable
// configuration dimensions — for example restricting both types to their
// maximum frequency quantifies how much of the Pareto frontier DVFS
// contributes versus node-count mixing. The predicates are applied once
// to the configuration lists, not once per point.
func (s Space) EnumerateFilteredFunc(maxARM, maxAMD int, w float64, keepARM, keepAMD func(hwsim.Config) bool, yield func(Point) bool) error {
	filter := func(spec hwsim.NodeSpec, keep func(hwsim.Config) bool) []hwsim.Config {
		if keep == nil {
			return nil // every configuration
		}
		all := hwsim.Configs(spec)
		out := make([]hwsim.Config, 0, len(all)) // non-nil: a restriction, possibly to nothing
		for _, c := range all {
			if keep(c) {
				out = append(out, c)
			}
		}
		return out
	}
	t, err := s.compile(maxARM, maxAMD, w, filter(s.ARM.Spec, keepARM), filter(s.AMD.Spec, keepAMD))
	if err != nil {
		return err
	}
	if t.twoTypeSize(maxARM, maxAMD) == 0 {
		return fmt.Errorf("cluster: filter removed every configuration")
	}
	t.forEachTwoType(maxARM, maxAMD, w, yield)
	return nil
}
