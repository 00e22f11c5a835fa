package cluster

// Compiled-table dumps: the serialized form of the evaluation-kernel
// layer, the payload internal/snapshot packs into its binary cold-start
// format. Both table kinds dump the same per-type form — a node bound, a
// switch wattage and the compiled per-node coefficients, every float as
// its raw IEEE-754 bit pattern — so a restored table is bit-identical to
// the one that was dumped: no model walk, no refit, no float formatting
// round trip. Restoring therefore skips exactly the work a cold start
// pays (the per-configuration model walk of NewTable / NewGenericTable)
// and keeps the serving daemon's merge and cache bit-identity guarantees
// intact across a reboot.
//
// Dumps deliberately do not embed models or node specs: the consumer
// validates provenance out of band (the snapshot format binds a dump to
// a profile content hash and build identity) and supplies the Space for
// the two-type restore itself. Dumps also arrive from peers, so restore
// treats them as untrusted input and validates structure (finite,
// positive time coefficients; distinct configurations; node bounds
// within the per-type cap) so a corrupted dump yields an error, never a
// table that divides by zero or overflows mid-walk.

import (
	"fmt"
	"math"

	"heteromix/internal/hwsim"
	"heteromix/internal/units"
)

// GenericConfigDump is one per-node configuration's compiled
// coefficients in wire form. The float fields are IEEE-754 bit patterns
// (math.Float64bits), so a dump/restore round trip is bit-exact.
type GenericConfigDump struct {
	Cores         int
	FrequencyBits uint64 // hwsim.Config.Frequency (units.Hertz) bits
	TimeBits      uint64 // seconds per work unit on one node
	EnergyBits    uint64 // joules per work unit on one node
}

// GenericTypeDump is one node type's compiled state. Node counts are not
// stored: they follow from MaxNodes and the configuration list
// (count-major), exactly as the walk derives them.
type GenericTypeDump struct {
	// MaxNodes is the type's node bound, in [0, 1<<20].
	MaxNodes int
	// SwitchWBits is the per-switch wattage bits (bits of 0 unless the
	// type needs a dedicated switch).
	SwitchWBits uint64
	// Configs lists the type's per-node configurations in enumeration
	// order; it is empty for a type with MaxNodes 0.
	Configs []GenericConfigDump
}

// GenericTableDump is the compiled state of a GenericTable, or of a
// two-type Table as its (ARM, AMD) types.
type GenericTableDump struct {
	Types []GenericTypeDump
	// Candidates lists, ascending, the serial positions of a
	// GenericTable's whole-space frontier candidate set when one was
	// built and answers; nil otherwise, and always for a two-type Table.
	// Its guarded work range is not stored: restore recomputes it from
	// the coefficients, as the build does.
	Candidates []uint64
}

// dump exports the kernel table's compiled coefficients.
func (t *genericTable) dump() GenericTableDump {
	d := GenericTableDump{Types: make([]GenericTypeDump, len(t.kern))}
	for i, entries := range t.kern {
		td := GenericTypeDump{
			MaxNodes:    t.maxNodes[i],
			SwitchWBits: math.Float64bits(t.switchW[i]),
			Configs:     make([]GenericConfigDump, len(entries)),
		}
		for j, e := range entries {
			td.Configs[j] = GenericConfigDump{
				Cores:         e.cfg.Cores,
				FrequencyBits: math.Float64bits(float64(e.cfg.Frequency)),
				TimeBits:      math.Float64bits(e.k),
				EnergyBits:    math.Float64bits(e.epu),
			}
		}
		d.Types[i] = td
	}
	return d
}

// validConfigDump rejects coefficients the evaluation arithmetic cannot
// take: k is a divisor, so it must be positive and finite; epu must be
// non-negative and finite; cores and frequency must be positive.
func validConfigDump(i, j int, d GenericConfigDump) error {
	k := math.Float64frombits(d.TimeBits)
	if !(k > 0) || math.IsInf(k, 0) {
		return fmt.Errorf("cluster: dump type %d config %d: time coefficient %v must be positive and finite", i, j, k)
	}
	epu := math.Float64frombits(d.EnergyBits)
	if math.IsNaN(epu) || math.IsInf(epu, 0) || epu < 0 {
		return fmt.Errorf("cluster: dump type %d config %d: energy coefficient %v must be non-negative and finite", i, j, epu)
	}
	if d.Cores < 1 {
		return fmt.Errorf("cluster: dump type %d config %d: cores %d must be positive", i, j, d.Cores)
	}
	f := math.Float64frombits(d.FrequencyBits)
	if !(f > 0) || math.IsInf(f, 0) {
		return fmt.Errorf("cluster: dump type %d config %d: frequency %v must be positive and finite", i, j, f)
	}
	return nil
}

// restoreGenericTable rebuilds a kernel table from d, holding it to
// newGenericTable's invariants.
func restoreGenericTable(d GenericTableDump) (*genericTable, error) {
	if len(d.Types) == 0 {
		return nil, fmt.Errorf("cluster: dump has no node types")
	}
	t := &genericTable{
		kern:     make([][]kernelEntry, len(d.Types)),
		maxNodes: make([]int, len(d.Types)),
		switchW:  make([]float64, len(d.Types)),
	}
	for i, td := range d.Types {
		if err := validMaxNodes(i, td.MaxNodes); err != nil {
			return nil, err
		}
		if td.MaxNodes > 0 && len(td.Configs) == 0 {
			return nil, fmt.Errorf("cluster: dump type %d has MaxNodes %d but no configurations", i, td.MaxNodes)
		}
		sw := math.Float64frombits(td.SwitchWBits)
		if math.IsNaN(sw) || math.IsInf(sw, 0) || sw < 0 {
			return nil, fmt.Errorf("cluster: dump type %d: switch wattage %v must be non-negative and finite", i, sw)
		}
		entries := make([]kernelEntry, len(td.Configs))
		seen := make(map[hwsim.Config]bool, len(td.Configs))
		for j, cd := range td.Configs {
			if err := validConfigDump(i, j, cd); err != nil {
				return nil, err
			}
			cfg := hwsim.Config{Cores: cd.Cores, Frequency: units.Hertz(math.Float64frombits(cd.FrequencyBits))}
			if seen[cfg] {
				return nil, fmt.Errorf("cluster: dump type %d config %d: duplicate configuration %v", i, j, cfg)
			}
			seen[cfg] = true
			entries[j] = kernelEntry{
				cfg: cfg,
				k:   math.Float64frombits(cd.TimeBits),
				epu: math.Float64frombits(cd.EnergyBits),
			}
		}
		t.kern[i] = entries
		t.maxNodes[i] = td.MaxNodes
		t.switchW[i] = sw
	}
	t.index()
	return t, nil
}

// Dump exports the table's compiled coefficients as its (ARM, AMD)
// types.
func (t *Table) Dump() GenericTableDump { return t.g.dump() }

// NewTableFromDump rebuilds a compiled Table from d without any model
// walk. The receiver Space supplies the metadata a Table exposes (specs
// for error messages and Table.Space consumers, the NoSwitchEnergy
// flag); the evaluation coefficients — including the switch wattage —
// come verbatim from the dump, so the restored table evaluates
// bit-identically to the one Dump was called on. Callers are expected
// to have verified out of band (profile hash, build identity) that d
// was compiled from this Space.
func (s Space) NewTableFromDump(d GenericTableDump) (*Table, error) {
	if len(d.Types) != 2 {
		return nil, fmt.Errorf("cluster: two-type table dump has %d node types", len(d.Types))
	}
	g, err := restoreGenericTable(d)
	if err != nil {
		return nil, err
	}
	return newTable(s, g), nil
}

// Dump exports the generic table's compiled coefficients and, once
// built, its whole-space frontier candidate set. A GenericTableDump is
// self-contained: NewGenericTableFromDump needs no models or specs.
func (g *GenericTable) Dump() GenericTableDump {
	d := g.t.dump()
	if set := g.cand.set.Load(); set != nil && set.ok {
		d.Candidates = set.idx
	}
	return d
}

// NewGenericTableFromDump rebuilds a compiled GenericTable from d
// without any model walk; the restored table evaluates bit-identically
// to the one Dump was called on, and with the dump's candidate set
// answers its first frontier without the set's build walk.
func NewGenericTableFromDump(d GenericTableDump) (*GenericTable, error) {
	t, err := restoreGenericTable(d)
	if err != nil {
		return nil, err
	}
	g := wrapGenericTable(t)
	if d.Candidates != nil {
		if err := g.restoreCandidates(d.Candidates); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// restoreCandidates installs a dumped whole-space candidate set, held to
// what a build yields: 1 to maxCandidates positions, strictly ascending
// and inside an indexable space, over a guarded work range that holds
// w = 1. Like the coefficients, the positions are otherwise trusted as
// computed; the snapshot format binds both to the profile and build
// that produced them.
func (g *GenericTable) restoreCandidates(idx []uint64) error {
	if len(idx) == 0 || len(idx) > maxCandidates {
		return fmt.Errorf("cluster: dump holds %d candidates, want 1 to %d", len(idx), maxCandidates)
	}
	if _, err := g.t.intSize(); err != nil {
		return fmt.Errorf("cluster: dump holds candidates for a space too large to index: %v", err)
	}
	for i, p := range idx {
		if p >= g.t.size || i > 0 && p <= idx[i-1] {
			return fmt.Errorf("cluster: dump candidate %d (position %d) is out of order or outside the %d-point space", i, p, g.t.size)
		}
	}
	set := &candidateSet{idx: idx, ok: true}
	set.lo, set.hi = g.t.workRange(g.t.all.maxNodes)
	if !(set.lo <= 1 && 1 <= set.hi) {
		return fmt.Errorf("cluster: dump holds candidates for a table whose guarded work range [%g, %g] excludes 1", set.lo, set.hi)
	}
	g.cand.install(func() *candidateSet { return set })
	return nil
}
