package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"heteromix/internal/hwsim"
	"heteromix/internal/pareto"
)

// relClose reports |a-b| <= tol * max(|a|,|b|).
func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

// directCase is one seeded case of the differential test; String names
// everything needed to reproduce a failure.
type directCase struct {
	workload       string
	seed           int64
	maxARM, maxAMD int
	noSwitch       bool
	w              float64
}

func (c directCase) String() string {
	return fmt.Sprintf("%s seed=%d bounds=%dx%d noSwitch=%t w=%v",
		c.workload, c.seed, c.maxARM, c.maxAMD, c.noSwitch, c.w)
}

// nestedOrder generates Enumerate's configuration order independently
// of the kernel, with plain nested loops: the heterogeneous mixes (ARM
// count, ARM config, AMD count, AMD config), then ARM-only, then
// AMD-only.
func nestedOrder(s Space, maxARM, maxAMD int) []Configuration {
	arm, amd := hwsim.Configs(s.ARM.Spec), hwsim.Configs(s.AMD.Spec)
	var out []Configuration
	for na := 1; na <= maxARM; na++ {
		for _, a := range arm {
			for nd := 1; nd <= maxAMD; nd++ {
				for _, d := range amd {
					out = append(out, Configuration{ARM: TypeConfig{Nodes: na, Config: a}, AMD: TypeConfig{Nodes: nd, Config: d}})
				}
			}
		}
	}
	for na := 1; na <= maxARM; na++ {
		for _, a := range arm {
			out = append(out, Configuration{ARM: TypeConfig{Nodes: na, Config: a}})
		}
	}
	for nd := 1; nd <= maxAMD; nd++ {
		for _, d := range amd {
			out = append(out, Configuration{AMD: TypeConfig{Nodes: nd, Config: d}})
		}
	}
	return out
}

// TestEnumerateMatchesDirectEvaluate is the differential test of the
// kernel against the direct Evaluate path, over seeded random bounds up
// to the paper's 10x10, both workloads and both switch conventions.
// Enumerate must yield exactly nestedOrder's configuration sequence, each
// point with the direct path's time and ARM share bit for bit and its
// energy within accumulated rounding (the kernel computes n*E(1) where
// Evaluate computes n*E(w/n)/..., identical up to a few ULPs).
func TestEnumerateMatchesDirectEvaluate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		space Space
	}{
		{"ep", epSpace(t)},
		{"memcached", memcachedSpace(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cases []directCase
			for _, noSwitch := range []bool{false, true} {
				// The full paper space once, then seeded random bounds.
				cases = append(cases, directCase{workload: tc.name, maxARM: 10, maxAMD: 10, noSwitch: noSwitch, w: 5e4})
				for seed := int64(1); seed <= 3; seed++ {
					rng := rand.New(rand.NewSource(seed))
					c := directCase{workload: tc.name, seed: seed, noSwitch: noSwitch,
						maxARM: rng.Intn(11), maxAMD: rng.Intn(11), w: 1e4 + rng.Float64()*1e8}
					if c.maxARM+c.maxAMD == 0 {
						c.maxARM = 1
					}
					cases = append(cases, c)
				}
			}
			for _, c := range cases {
				s := tc.space
				s.NoSwitchEnergy = c.noSwitch
				pts, err := s.Enumerate(c.maxARM, c.maxAMD, c.w)
				if err != nil {
					t.Fatalf("%v: enumerate: %v", c, err)
				}
				want := nestedOrder(s, c.maxARM, c.maxAMD)
				if len(pts) != len(want) {
					t.Fatalf("%v: enumerated %d points, nested loops give %d", c, len(pts), len(want))
				}
				for i, p := range pts {
					if p.Config != want[i] {
						t.Fatalf("%v: point %d is %v, want %v", c, i, p.Config, want[i])
					}
					ev, err := s.Evaluate(p.Config, c.w)
					if err != nil {
						t.Fatalf("%v: evaluate %v: %v", c, p.Config, err)
					}
					if math.Float64bits(float64(p.Time)) != math.Float64bits(float64(ev.Time)) ||
						math.Float64bits(p.WorkARM) != math.Float64bits(ev.WorkARM) {
						t.Fatalf("%v: %v: time %v vs %v, share %v vs %v",
							c, p.Config, p.Time, ev.Time, p.WorkARM, ev.WorkARM)
					}
					if !relClose(float64(p.Energy), float64(ev.Energy), 1e-12) {
						t.Fatalf("%v: %v: energy %v vs %v", c, p.Config, p.Energy, ev.Energy)
					}
				}
			}
		})
	}
}

// EnumerateFunc streams exactly Enumerate's sequence and stops when yield
// returns false.
func TestEnumerateFuncMatchesEnumerate(t *testing.T) {
	s := epSpace(t)
	want, err := s.Enumerate(3, 2, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	var got []Point
	if err := s.EnumerateFunc(3, 2, 50e6, func(p Point) bool {
		got = append(got, p)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}

	n := 0
	if err := s.EnumerateFunc(3, 2, 50e6, func(Point) bool {
		n++
		return n < 7
	}); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Errorf("early stop saw %d points, want 7", n)
	}

	if err := s.EnumerateFunc(0, 0, 50e6, func(Point) bool { return true }); err == nil {
		t.Error("empty space should error")
	}
	if err := s.EnumerateFunc(2, 2, -1, func(Point) bool { return true }); err == nil {
		t.Error("negative work should error")
	}
}

// Property: the streaming frontier equals pareto.Frontier of the
// materialized space, and the returned points carry the frontier's
// (time, energy) values.
func TestFrontierOfMatchesBatchFrontier(t *testing.T) {
	s := memcachedSpace(t)
	f := func(a, d uint8) bool {
		maxARM := 1 + int(a)%5
		maxAMD := 1 + int(d)%5
		w := 50000.0
		pts, tes, err := FrontierOf(s, maxARM, maxAMD, w)
		if err != nil {
			t.Logf("FrontierOf: %v", err)
			return false
		}
		all, err := s.Enumerate(maxARM, maxAMD, w)
		if err != nil {
			return false
		}
		allTE := make([]pareto.TE, len(all))
		for i, p := range all {
			allTE[i] = pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy), Index: i}
		}
		want, err := pareto.Frontier(allTE)
		if err != nil {
			return false
		}
		if len(tes) != len(want) || len(pts) != len(want) {
			t.Logf("frontier sizes: stream %d/%d points, batch %d", len(tes), len(pts), len(want))
			return false
		}
		for i := range want {
			if tes[i].Time != want[i].Time || tes[i].Energy != want[i].Energy {
				t.Logf("frontier %d: (%v,%v) vs (%v,%v)", i,
					tes[i].Time, tes[i].Energy, want[i].Time, want[i].Energy)
				return false
			}
			if tes[i].Index != i {
				return false
			}
			if float64(pts[i].Time) != want[i].Time || float64(pts[i].Energy) != want[i].Energy {
				t.Logf("payload %d out of sync with frontier", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// EnumerateFilteredFunc streams exactly the full enumeration with the
// filtered-out configurations removed: same order, same bits.
func TestEnumerateFilteredFuncMatchesFiltered(t *testing.T) {
	s := epSpace(t)
	keepARM := func(c hwsim.Config) bool { return c.Cores >= 2 }
	keepAMD := func(c hwsim.Config) bool { return c.Frequency >= 1.7 }
	full, err := s.Enumerate(3, 3, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	var want []Point
	for _, p := range full {
		if (p.Config.ARM.Nodes == 0 || keepARM(p.Config.ARM.Config)) &&
			(p.Config.AMD.Nodes == 0 || keepAMD(p.Config.AMD.Config)) {
			want = append(want, p)
		}
	}
	var got []Point
	if err := s.EnumerateFilteredFunc(3, 3, 50e6, keepARM, keepAMD, func(p Point) bool {
		got = append(got, p)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) == 0 || len(want) == len(full) {
		t.Fatalf("streamed %d filtered points, want %d of %d", len(got), len(want), len(full))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("filtered point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	none := func(hwsim.Config) bool { return false }
	if err := s.EnumerateFilteredFunc(3, 3, 50e6, none, none, func(Point) bool { return true }); err == nil {
		t.Error("filtering out every configuration should error")
	}
}

// The dynamic scheduler stops handing out chunks after the first error:
// a failure in an early chunk must leave most of the range unvisited.
func TestParallelForCancelsOnError(t *testing.T) {
	const n = 1 << 20
	boom := errors.New("boom")
	var visited atomic.Int64
	err := parallelFor(n, 4, 64, func(lo, hi int) error {
		visited.Add(int64(hi - lo))
		if lo == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if v := visited.Load(); v > n/2 {
		t.Errorf("visited %d of %d points after early error; cancellation not effective", v, n)
	}
}

func TestParallelForCoversRange(t *testing.T) {
	const n = 10_000
	seen := make([]atomic.Int32, n)
	if err := parallelFor(n, 7, 64, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
	if err := parallelFor(0, 4, 64, func(lo, hi int) error { return nil }); err != nil {
		t.Errorf("empty range: %v", err)
	}
}

func BenchmarkEnumerateStreaming10x10(b *testing.B) {
	s := epSpace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tes, err := FrontierOf(s, 10, 10, 50e6)
		if err != nil {
			b.Fatal(err)
		}
		if len(tes) == 0 {
			b.Fatal("empty frontier")
		}
	}
}
