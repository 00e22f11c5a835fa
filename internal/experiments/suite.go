// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables 3-5, Figures 2-10) plus the §VI headline numbers,
// using the full reproduction pipeline: workload demands -> baseline
// measurement campaigns on the simulated testbed -> profile fitting and
// power characterization -> the analytical model -> configuration-space
// enumeration, Pareto frontiers, power-budget mixes and M/D/1 queueing.
//
// Each experiment returns a structured result plus helpers that format it
// the way the paper presents it; cmd/validate, cmd/characterize,
// cmd/paretoviz and cmd/heteromix expose them on the command line, and
// the repository-root benchmarks regenerate each artifact as a
// testing.B benchmark.
package experiments

import (
	"fmt"
	"sync"

	"heteromix/internal/cluster"
	"heteromix/internal/hwsim"
	"heteromix/internal/lru"
	"heteromix/internal/model"
	"heteromix/internal/workloads"
)

// SuiteOptions configures the shared experiment pipeline.
type SuiteOptions struct {
	// NoiseSigma is the measurement noise used in baseline campaigns and
	// validation runs (default 0.03, matching the few-percent run-to-run
	// irregularity the paper reports).
	NoiseSigma float64
	// Seed makes the whole suite reproducible.
	Seed int64
}

// Suite carries the fitted models for every workload on both node types.
type Suite struct {
	ARM  hwsim.NodeSpec
	AMD  hwsim.NodeSpec
	Opts SuiteOptions

	mu     sync.Mutex
	models map[string]model.NodeModel // key: workload + "/" + node name

	// tables memoizes compiled kernel tables per (workload,
	// switch-accounting) pair, shared across every experiment of the
	// suite — the parallel `all` runner's stages each reuse one compiled
	// table instead of rebuilding the kernel arrays per stage.
	tables *lru.Cache[*cluster.Table]
}

// NewSuite creates a Suite with the paper's two node types.
func NewSuite(opts SuiteOptions) *Suite {
	if opts.NoiseSigma == 0 {
		opts.NoiseSigma = 0.03
	}
	return &Suite{
		ARM:    hwsim.ARMCortexA9(),
		AMD:    hwsim.AMDOpteronK10(),
		Opts:   opts,
		models: make(map[string]model.NodeModel),
		tables: lru.New(lru.DefaultCapacity, 1, func(t *cluster.Table) int64 { return int64(t.SizeBytes()) }),
	}
}

// Model returns (building and caching on first use) the fitted model of a
// workload on a node type.
func (s *Suite) Model(workload string, spec hwsim.NodeSpec) (model.NodeModel, error) {
	key := workload + "/" + spec.Name
	s.mu.Lock()
	defer s.mu.Unlock()
	if nm, ok := s.models[key]; ok {
		return nm, nil
	}
	w, err := workloads.ByName(workload)
	if err != nil {
		return model.NodeModel{}, err
	}
	nm, err := model.Build(spec, w, model.BuildOptions{
		NoiseSigma: s.Opts.NoiseSigma,
		Seed:       s.Opts.Seed + int64(len(s.models)),
	})
	if err != nil {
		return model.NodeModel{}, fmt.Errorf("experiments: building %s: %w", key, err)
	}
	s.models[key] = nm
	return nm, nil
}

// WarmModels builds every registered workload's models in the canonical
// order — name-sorted workloads, the AMD spec then the ARM spec per
// workload, exactly the order a serial Table 3 pass establishes. Model
// seeds depend on build order (Seed + len(models) at build time), so
// concurrent experiment stages must warm the cache through this method
// first to reproduce a serial run's numbers bit for bit.
func (s *Suite) WarmModels() error {
	for _, w := range workloads.All() {
		for _, spec := range []hwsim.NodeSpec{s.AMD, s.ARM} {
			if _, err := s.Model(w.Name(), spec); err != nil {
				return err
			}
		}
	}
	return nil
}

// WarmAllModels extends WarmModels over the whole node registry: first
// the canonical AMD/ARM pass (so those models keep the seeds a serial
// Table 3 run assigns), then every remaining registry node per
// name-sorted workload. After it returns, no request mix can trigger a
// lazy build, so two processes that warmed at startup serve
// bit-identical numbers regardless of the traffic each has seen — the
// property fleet replicas need to survive being restarted (a revived
// replica that refit lazily in request order would rejoin the fleet
// computing subtly different energies and silently break merge
// bit-identity).
func (s *Suite) WarmAllModels() error {
	if err := s.WarmModels(); err != nil {
		return err
	}
	for _, w := range workloads.All() {
		for _, name := range hwsim.Names() {
			spec, err := hwsim.ByName(name)
			if err != nil {
				return err
			}
			if _, err := s.Model(w.Name(), spec); err != nil {
				return err
			}
		}
	}
	return nil
}

// ModelFingerprint identifies the deterministic inputs of the suite's
// model-fitting pipeline: the seed, the noise sigma and the two primary
// node types. Two suites with equal fingerprints that warmed in the
// canonical order (WarmAllModels) fit bit-identical models, so cache
// snapshots embed it: a snapshot from a sibling started with a
// different -seed or -noise must be rejected, not loaded.
func (s *Suite) ModelFingerprint() string {
	return fmt.Sprintf("suite|seed=%d|noise=%g|arm=%s|amd=%s",
		s.Opts.Seed, s.Opts.NoiseSigma, s.ARM.Name, s.AMD.Name)
}

// Table returns the memoized compiled kernel table for a workload's
// space with the given switch accounting. Concurrent callers collapse
// onto one build; the table is immutable and shared.
func (s *Suite) Table(workload string, noSwitch bool) (*cluster.Table, error) {
	space, err := s.Space(workload)
	if err != nil {
		return nil, err
	}
	space.NoSwitchEnergy = noSwitch
	key := fmt.Sprintf("table|%s|%t", workload, noSwitch)
	tbl, _, err := s.tables.Do(key, space.NewTable)
	return tbl, err
}

// Space returns the two-type configuration space for a workload.
func (s *Suite) Space(workload string) (cluster.Space, error) {
	arm, err := s.Model(workload, s.ARM)
	if err != nil {
		return cluster.Space{}, err
	}
	amd, err := s.Model(workload, s.AMD)
	if err != nil {
		return cluster.Space{}, err
	}
	return cluster.Space{ARM: arm, AMD: amd}, nil
}

// maxConfig returns a node type's all-cores, max-frequency setting.
func maxConfig(spec hwsim.NodeSpec) hwsim.Config {
	return hwsim.Config{Cores: spec.Cores, Frequency: spec.FMax()}
}
