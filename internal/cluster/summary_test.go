package cluster

import (
	"fmt"
	"strings"
	"testing"

	"heteromix/internal/hwsim"
)

// fmtConfigurationString is Configuration.String as it was written with
// fmt, kept verbatim as the oracle for the strconv form.
func fmtConfigurationString(c Configuration) string {
	s := fmt.Sprintf("ARM %d:AMD %d", c.ARM.Nodes, c.AMD.Nodes)
	if c.ARM.Nodes > 0 {
		s += fmt.Sprintf(" arm[c%d@%v]", c.ARM.Config.Cores, c.ARM.Config.Frequency)
	}
	if c.AMD.Nodes > 0 {
		s += fmt.Sprintf(" amd[c%d@%v]", c.AMD.Config.Cores, c.AMD.Config.Frequency)
	}
	return s
}

// fmtGenericLabel is GenericPoint.Label as it was written with fmt.
func fmtGenericLabel(p GenericPoint, names []string) string {
	parts := make([]string, 0, len(p.Counts))
	for i, n := range p.Counts {
		if n == 0 {
			continue
		}
		name := fmt.Sprintf("type%d", i)
		if i < len(names) {
			name = names[i]
		}
		parts = append(parts, fmt.Sprintf("%s %d", name, n))
	}
	return strings.Join(parts, " : ")
}

// allSpecConfigs lists every configuration of every registered node spec.
func allSpecConfigs(t *testing.T) []hwsim.Config {
	var out []hwsim.Config
	for _, name := range hwsim.Names() {
		spec, err := hwsim.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, hwsim.Configs(spec)...)
	}
	return out
}

// TestLabelsMatchFmt: the strconv-built labels are byte-identical to
// the fmt code they replaced, over every configuration of every node
// spec, absent sides and types, and unnamed types.
func TestLabelsMatchFmt(t *testing.T) {
	cfgs := allSpecConfigs(t)
	for i, a := range cfgs {
		for j, d := range cfgs {
			for _, nodes := range [][2]int{{0, 1}, {1, 0}, {3, 14}, {128, 7}} {
				c := Configuration{
					ARM: TypeConfig{Nodes: nodes[0], Config: a},
					AMD: TypeConfig{Nodes: nodes[1], Config: d},
				}
				if got, want := c.String(), fmtConfigurationString(c); got != want {
					t.Fatalf("configs %d,%d: String() = %q, want %q", i, j, got, want)
				}
			}
			p := GenericPoint{
				Counts:  []int{i % 3, 0, j%5 + 1, 11},
				Configs: []hwsim.Config{a, d, a, d},
				Work:    []float64{1, 0, 2, 3},
			}
			for _, names := range [][]string{nil, {"arm-cortex-a9"}, {"a9", "a15", "k10", "x"}} {
				if got, want := p.Label(names), fmtGenericLabel(p, names); got != want {
					t.Fatalf("configs %d,%d names %v: Label() = %q, want %q", i, j, names, got, want)
				}
			}
		}
	}
}

// TestSummaryAllocs pins a row's summary at no more than 3 allocations:
// the label string and, for generic points, the groups slice.
func TestSummaryAllocs(t *testing.T) {
	s := epSpace(t)
	tbl, err := s.NewTable()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := tbl.Evaluate(Configuration{
		ARM: TypeConfig{Nodes: 16, Config: maxCfg(s.ARM.Spec)},
		AMD: TypeConfig{Nodes: 14, Config: maxCfg(s.AMD.Spec)},
	}, 5e7)
	if err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 3
	if n := testing.AllocsPerRun(100, func() { _ = pt.Summary() }); n > maxAllocs {
		t.Errorf("Point.Summary allocates %v times, want <= %d", n, maxAllocs)
	}
	g, err := NewGenericTable(triTypes(t, 4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	var last GenericPoint
	if err := g.ForEach(5e7, func(p GenericPoint) bool { last = p.Clone(); return true }); err != nil {
		t.Fatal(err)
	}
	names := []string{"arm-cortex-a9", "arm-cortex-a15", "amd-opteron-k10"}
	if n := testing.AllocsPerRun(100, func() { _ = last.Summary(names) }); n > maxAllocs {
		t.Errorf("GenericPoint.Summary allocates %v times, want <= %d", n, maxAllocs)
	}
}
