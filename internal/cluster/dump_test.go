package cluster

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestTableDumpRoundTrip asserts the cold-start contract: a table
// restored from a dump walks and evaluates bit-identically to the one
// the dump came from — same points, same split fractions, down to the
// last mantissa bit.
func TestTableDumpRoundTrip(t *testing.T) {
	space := epSpace(t)
	tbl, err := space.NewTable()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := space.NewTableFromDump(tbl.Dump())
	if err != nil {
		t.Fatal(err)
	}
	const maxARM, maxAMD = 3, 2
	const w = 1000.0
	if got, want := restored.Size(maxARM, maxAMD), tbl.Size(maxARM, maxAMD); got != want {
		t.Fatalf("restored Size = %d, want %d", got, want)
	}
	if got, want := restored.SizeBytes(), tbl.SizeBytes(); got != want {
		t.Fatalf("restored SizeBytes = %d, want %d", got, want)
	}
	var want []Point
	if err := tbl.ForEach(maxARM, maxAMD, w, func(p Point) bool {
		want = append(want, p)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	i := 0
	if err := restored.ForEach(maxARM, maxAMD, w, func(p Point) bool {
		if i >= len(want) {
			t.Fatalf("restored table yielded more than %d points", len(want))
		}
		if p != want[i] {
			t.Fatalf("point %d: restored %+v != original %+v", i, p, want[i])
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("restored table yielded %d points, want %d", i, len(want))
	}
	// Spot-check Evaluate parity on one mixed configuration.
	cfg := want[len(want)-1].Config
	p1, err := tbl.Evaluate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := restored.Evaluate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("Evaluate mismatch: original %+v, restored %+v", p1, p2)
	}
	if restored.Space().NoSwitchEnergy != space.NoSwitchEnergy {
		t.Fatal("restored table lost its Space flags")
	}
}

// TestGenericTableDumpRoundTrip does the same for the N-type
// mixed-radix table, including frontier parity.
func TestGenericTableDumpRoundTrip(t *testing.T) {
	g, err := NewGenericTable(triTypes(t, 2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewGenericTableFromDump(g.Dump())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Size(), g.Size(); got != want {
		t.Fatalf("restored Size = %d, want %d", got, want)
	}
	if got, want := restored.Types(), g.Types(); got != want {
		t.Fatalf("restored Types = %d, want %d", got, want)
	}
	if got, want := restored.SizeBytes(), g.SizeBytes(); got != want {
		t.Fatalf("restored SizeBytes = %d, want %d", got, want)
	}
	const w = 1000.0
	want, err := g.Enumerate(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Enumerate(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("restored enumerated %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if !genericPointEqual(got[i], want[i]) {
			t.Fatalf("point %d: restored %+v != original %+v", i, got[i], want[i])
		}
	}
	_, wantTE, err := g.Frontier(w)
	if err != nil {
		t.Fatal(err)
	}
	_, gotTE, err := restored.Frontier(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTE) != len(wantTE) {
		t.Fatalf("restored frontier has %d points, want %d", len(gotTE), len(wantTE))
	}
	for i := range wantTE {
		if gotTE[i] != wantTE[i] {
			t.Fatalf("frontier point %d: restored %+v != original %+v", i, gotTE[i], wantTE[i])
		}
	}
}

func genericPointEqual(a, b GenericPoint) bool {
	if a.Time != b.Time || a.Energy != b.Energy {
		return false
	}
	if len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] || a.Configs[i] != b.Configs[i] || a.Work[i] != b.Work[i] {
			return false
		}
	}
	return true
}

// cloneDump deep-copies d so a case can corrupt it in place.
func cloneDump(d GenericTableDump) GenericTableDump {
	types := make([]GenericTypeDump, len(d.Types))
	for i, td := range d.Types {
		td.Configs = append([]GenericConfigDump(nil), td.Configs...)
		types[i] = td
	}
	return GenericTableDump{Types: types, Candidates: append([]uint64(nil), d.Candidates...)}
}

// TestGenericDumpCarriesCandidateSet: once a table's first
// FrontierCounted built its whole-space candidate set, its dump carries
// the set, and the restored table answers every frontier bit for bit
// from it, evaluating only the candidates: no build walk. A set that
// breaks what a build yields is refused.
func TestGenericDumpCarriesCandidateSet(t *testing.T) {
	g, err := NewGenericTable(triTypes(t, 2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d := g.Dump(); d.Candidates != nil {
		t.Fatalf("a dump before any frontier carries %d candidates", len(d.Candidates))
	}
	ctx := context.Background()
	if _, _, _, err := g.FrontierCounted(ctx, 1000, 0); err != nil {
		t.Fatal(err)
	}
	d := g.Dump()
	if len(d.Candidates) == 0 {
		t.Fatal("a dump after the first frontier carries no candidates")
	}
	restored, err := NewGenericTableFromDump(cloneDump(d))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{1, 1000, 5e7, 3.3e9} {
		wantPts, wantTE, _, err := g.FrontierCounted(ctx, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		gotPts, gotTE, evaluated, err := restored.FrontierCounted(ctx, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if evaluated != uint64(len(d.Candidates)) {
			t.Errorf("w=%g: restored table evaluated %d points, want its %d candidates", w, evaluated, len(d.Candidates))
		}
		if len(gotTE) != len(wantTE) {
			t.Fatalf("w=%g: restored frontier has %d points, want %d", w, len(gotTE), len(wantTE))
		}
		for i := range wantTE {
			if gotTE[i] != wantTE[i] || !genericPointEqual(gotPts[i], wantPts[i]) {
				t.Fatalf("w=%g point %d: restored %+v != original %+v", w, i, gotPts[i], wantPts[i])
			}
		}
	}

	cases := []struct {
		name   string
		mutate func(d *GenericTableDump)
	}{
		{"empty", func(d *GenericTableDump) { d.Candidates = []uint64{} }},
		{"over the cap", func(d *GenericTableDump) { d.Candidates = make([]uint64, maxCandidates+1) }},
		{"descending", func(d *GenericTableDump) { slices.Reverse(d.Candidates) }},
		{"duplicate", func(d *GenericTableDump) { d.Candidates = append(d.Candidates, d.Candidates[len(d.Candidates)-1]) }},
		{"outside the space", func(d *GenericTableDump) { d.Candidates = append(d.Candidates, g.Size()) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := cloneDump(d)
			tc.mutate(&bad)
			if _, err := NewGenericTableFromDump(bad); err == nil || !strings.Contains(err.Error(), "candidate") {
				t.Fatalf("a corrupted candidate set restored: %v", err)
			}
		})
	}
}

// TestTableDumpRejectsCorruption: a bit-flipped or structurally bogus
// dump must fail restore, never produce a table that divides by zero.
func TestTableDumpRejectsCorruption(t *testing.T) {
	space := epSpace(t)
	tbl, err := space.NewTable()
	if err != nil {
		t.Fatal(err)
	}
	arm, amd := 0, 1
	cases := []struct {
		name    string
		mutate  func(d *GenericTableDump)
		wantSub string
	}{
		{"zero time coefficient", func(d *GenericTableDump) { d.Types[arm].Configs[0].TimeBits = 0 }, "time coefficient"},
		{"NaN time coefficient", func(d *GenericTableDump) { d.Types[amd].Configs[0].TimeBits = math.Float64bits(math.NaN()) }, "time coefficient"},
		{"negative energy", func(d *GenericTableDump) { d.Types[arm].Configs[1].EnergyBits = math.Float64bits(-1) }, "energy coefficient"},
		{"inf energy", func(d *GenericTableDump) { d.Types[arm].Configs[1].EnergyBits = math.Float64bits(math.Inf(1)) }, "energy coefficient"},
		{"zero cores", func(d *GenericTableDump) { d.Types[arm].Configs[0].Cores = 0 }, "cores"},
		{"zero frequency", func(d *GenericTableDump) { d.Types[amd].Configs[0].FrequencyBits = 0 }, "frequency"},
		{"NaN switch wattage", func(d *GenericTableDump) { d.Types[arm].SwitchWBits = math.Float64bits(math.NaN()) }, "switch wattage"},
		{"three types", func(d *GenericTableDump) { d.Types = append(d.Types, d.Types[amd]) }, "3 node types"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := cloneDump(tbl.Dump())
			tc.mutate(&d)
			if _, err := space.NewTableFromDump(d); err == nil {
				t.Fatal("corrupted dump restored without error")
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestGenericDumpRejectsCorruption covers the structural lies a peer's
// dump can tell the per-type layout: node bounds outside
// [0, maxTypeNodes] (a count near MaxInt would overflow the switch
// arithmetic into negative energy), bounds with no configurations to
// count over, and duplicate configurations.
func TestGenericDumpRejectsCorruption(t *testing.T) {
	g, err := NewGenericTable(triTypes(t, 2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func(d *GenericTableDump)
		wantSub string
	}{
		{"no types", func(d *GenericTableDump) { d.Types = nil }, "no node types"},
		{"negative count", func(d *GenericTableDump) { d.Types[0].MaxNodes = -3 }, "MaxNodes -3"},
		{"oversized max nodes", func(d *GenericTableDump) { d.Types[1].MaxNodes = math.MaxInt }, "MaxNodes"},
		{"max nodes without configs", func(d *GenericTableDump) { d.Types[2].Configs = nil }, "no configurations"},
		{"duplicate config", func(d *GenericTableDump) { d.Types[1].Configs[2] = d.Types[1].Configs[0] }, "duplicate configuration"},
		{"zero time coefficient", func(d *GenericTableDump) { d.Types[2].Configs[1].TimeBits = 0 }, "time coefficient"},
		{"negative switch wattage", func(d *GenericTableDump) { d.Types[0].SwitchWBits = math.Float64bits(-2) }, "switch wattage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := cloneDump(g.Dump())
			tc.mutate(&d)
			if _, err := NewGenericTableFromDump(d); err == nil {
				t.Fatal("corrupted dump restored without error")
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	// The cap itself is a valid bound.
	d := cloneDump(g.Dump())
	d.Types[0].MaxNodes = maxTypeNodes
	if _, err := NewGenericTableFromDump(d); err != nil {
		t.Fatalf("MaxNodes = maxTypeNodes rejected: %v", err)
	}
}
