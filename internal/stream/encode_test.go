package stream

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"heteromix/internal/cluster"
	"heteromix/internal/hwsim"
	"heteromix/internal/units"
)

// marshal is the reference encoding the appenders must reproduce
// byte-for-byte: encoding/json with its default HTML escaping, minus
// the trailing newline json.Marshal never adds.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return b
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.5, -0.5, 3.14159265358979, 1e-7, 9.999999e-7, 1e-6,
		1.0000001e-6, 1e21, 9.999999999999999e20, 1.2345e21, -1e-9,
		-4.875e22, 1e-300, 1e300, 123456.789, 0.1, 0.3333333333333333,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.MaxFloat64,
		2.5e-7, 642.8571428571429, 1097.142857142857,
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		f := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		cases = append(cases, f)
	}
	for _, f := range cases {
		want := marshal(t, f)
		got := AppendFloat(nil, f)
		if string(got) != string(want) {
			t.Fatalf("AppendFloat(%v) = %q, json.Marshal = %q", f, got, want)
		}
	}
}

func TestAppendFloatNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := AppendFloat(nil, f); string(got) != "0" {
			t.Fatalf("AppendFloat(%v) = %q, want 0", f, got)
		}
	}
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "plain", "with space", `quote " and \ backslash`,
		"html <b>&amp;</b> escapes", "tab\tnewline\ncr\rbell\bff\f",
		"ctl \x00\x01\x1f", "unicode héllo wörld ✓ 日本語",
		"line sep   and   para", "invalid \xff\xfe utf8",
		"truncated \xe2\x82", "mixed <\xffé> &",
		strings.Repeat("a<b>&", 100),
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(40)
		raw := make([]byte, n)
		rng.Read(raw)
		cases = append(cases, string(raw))
	}
	for _, s := range cases {
		want := marshal(t, s)
		got := AppendString(nil, s)
		if string(got) != string(want) {
			t.Fatalf("AppendString(%q) = %q, json.Marshal = %q", s, got, want)
		}
	}
}

// randFloat draws values shaped like the model's outputs plus the
// formatting boundary cases.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return rng.Float64() * 1e-6 // straddles the 'e' notation cutoff
	case 2:
		return rng.Float64() * 3e21
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-3))
	}
}

func randLabel(rng *rand.Rand) string {
	parts := []string{"arm-cortex-a9", "amd-opteron-k10", "4x<8>@1.7GHz", "a&b", "é✓", " ", "\xff"}
	var sb strings.Builder
	for i := rng.Intn(4); i >= 0; i-- {
		sb.WriteString(parts[rng.Intn(len(parts))])
	}
	return sb.String()
}

func TestAppendGenericPointSummaryMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 3000; i++ {
		p := cluster.GenericPointSummary{
			TimeSeconds:  randFloat(rng),
			EnergyJoules: randFloat(rng),
			Label:        randLabel(rng),
		}
		switch rng.Intn(4) {
		case 0: // nil Groups must render null
		case 1:
			p.Groups = []cluster.GenericGroupSummary{} // non-nil empty must render []
		default:
			for g := rng.Intn(4); g >= 0; g-- {
				p.Groups = append(p.Groups, cluster.GenericGroupSummary{
					Type:         randLabel(rng),
					Nodes:        rng.Intn(9) - 1,
					Cores:        rng.Intn(9),
					GHz:          randFloat(rng),
					WorkFraction: randFloat(rng),
				})
			}
		}
		want := marshal(t, p)
		got := AppendGenericPointSummary(nil, &p)
		if string(got) != string(want) {
			t.Fatalf("AppendGenericPointSummary mismatch:\n got %s\nwant %s", got, want)
		}
	}
}

// randGenericPoint draws a point of 1-4 types with unused types, zero
// and mixed-sign work, and model-shaped floats; names cover every type,
// some or none (the "type<i>" fallback), and need JSON escaping.
func randGenericPoint(rng *rand.Rand) (cluster.GenericPoint, []string) {
	n := 1 + rng.Intn(4)
	p := cluster.GenericPoint{
		Counts:  make([]int, n),
		Configs: make([]hwsim.Config, n),
		Work:    make([]float64, n),
		Time:    units.Seconds(randFloat(rng)),
		Energy:  units.Joule(randFloat(rng)),
	}
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			p.Counts[i] = 1 + rng.Intn(200)
			p.Configs[i] = hwsim.Config{Cores: 1 + rng.Intn(8), Frequency: units.Hertz(randFloat(rng) * 1e9)}
		}
		if rng.Intn(4) > 0 {
			p.Work[i] = randFloat(rng)
		}
	}
	names := make([]string, rng.Intn(n+1))
	for i := range names {
		names[i] = randLabel(rng)
	}
	return p, names
}

// TestAppendGenericPointMatchesEncodingJSON pins the direct row encoder
// to json.Marshal of the point's summary over seeded random points.
func TestAppendGenericPointMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 5000; i++ {
		p, names := randGenericPoint(rng)
		want := marshal(t, p.Summary(names))
		got := AppendGenericPoint(nil, &p, names)
		if string(got) != string(want) {
			t.Fatalf("point %d (%+v, names %q):\n got %s\nwant %s", i, p, names, got, want)
		}
	}
}

// TestAppendGenericPointAllocs: encoding into a buffer with room
// allocates nothing.
func TestAppendGenericPointAllocs(t *testing.T) {
	p, _ := randGenericPoint(rand.New(rand.NewSource(3)))
	names := []string{"arm-cortex-a9", "arm-cortex-a15", "amd-opteron-k10"}
	buf := make([]byte, 0, 1024)
	if a := testing.AllocsPerRun(100, func() { buf = AppendGenericPoint(buf[:0], &p, names) }); a != 0 {
		t.Errorf("AppendGenericPoint allocated %.0f times per row, want 0", a)
	}
}

func TestAppendPointSummaryMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		p := cluster.PointSummary{
			ARMNodes:        rng.Intn(10),
			ARMCores:        rng.Intn(3), // 0 exercises omitempty
			ARMGHz:          float64(rng.Intn(3)) * 0.8,
			AMDNodes:        rng.Intn(10),
			AMDCores:        rng.Intn(3),
			AMDGHz:          float64(rng.Intn(3)) * 1.1,
			TimeSeconds:     randFloat(rng),
			EnergyJoules:    randFloat(rng),
			WorkARMFraction: rng.Float64(),
			Label:           randLabel(rng),
		}
		want := marshal(t, p)
		got := AppendPointSummary(nil, &p)
		if string(got) != string(want) {
			t.Fatalf("AppendPointSummary mismatch:\n got %s\nwant %s", got, want)
		}
	}
}
