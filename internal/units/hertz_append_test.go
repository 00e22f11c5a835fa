package units_test

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"heteromix/internal/hwsim"
	"heteromix/internal/units"
)

// strconvHertz is Hertz.Append with strconv alone, the oracle for its
// integer fast path.
func strconvHertz(h units.Hertz) string {
	var b []byte
	switch {
	case h >= units.GHz:
		b = append(strconv.AppendFloat(b, float64(h)/1e9, 'f', 2, 64), "GHz"...)
	case h >= units.MHz:
		b = append(strconv.AppendFloat(b, float64(h)/1e6, 'f', 1, 64), "MHz"...)
	case h >= units.KHz:
		b = append(strconv.AppendFloat(b, float64(h)/1e3, 'f', 1, 64), "kHz"...)
	default:
		b = append(strconv.AppendFloat(b, float64(h), 'f', 0, 64), "Hz"...)
	}
	return string(b)
}

func TestHertzAppendMatchesStrconv(t *testing.T) {
	var in []units.Hertz
	for _, name := range hwsim.Names() {
		spec, err := hwsim.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, spec.Frequencies...)
	}
	in = append(in, 0, units.Hertz(math.Copysign(0, -1)), -1, -1e9, -2.5e6,
		1.005e9, 1.015e9, 1.025e9, 2.675e9, 1.05e6, 1.25e3, 999, 999.5, 1e3, 1e6-1, 1e6, 1e9-1,
		1<<53-1e7, 1<<53, 1<<53+2e7, 1e20, math.MaxFloat64, 5e-324,
		units.Hertz(math.NaN()), units.Hertz(math.Inf(1)), units.Hertz(math.Inf(-1)))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		// Exact multiples of each branch's step, whole non-multiples and
		// fractional values, across every branch.
		step := []float64{1, 100, 1e5, 1e7}[rng.Intn(4)]
		v := float64(rng.Int63n(1<<22)) * step
		switch rng.Intn(4) {
		case 1:
			v += float64(1 + rng.Intn(int(step)))
		case 2:
			v += rng.Float64()
		case 3:
			v = -v
		}
		in = append(in, units.Hertz(v), units.Hertz(math.Float64frombits(rng.Uint64())))
	}
	for _, h := range in {
		want := strconvHertz(h)
		if got := string(h.Append([]byte("x"))); got != "x"+want {
			t.Errorf("Hertz(%v).Append = %q, want %q", float64(h), got, "x"+want)
		}
	}
}

func TestHertzAppendAllocsNothing(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, h := range []units.Hertz{1.4 * units.GHz, 200 * units.MHz, 32 * units.KHz, 5} {
		if n := testing.AllocsPerRun(100, func() { buf = h.Append(buf[:0]) }); n != 0 {
			t.Errorf("Hertz(%v).Append allocates %v times, want 0", float64(h), n)
		}
	}
}
