package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// syntheticTable compiles a kernel table from raw coefficients, no
// models: entries[i] entries for type i, at most maxNodes[i] nodes.
func syntheticTable(rng *rand.Rand, entries, maxNodes []int) *genericTable {
	t := &genericTable{
		kern:     make([][]kernelEntry, len(entries)),
		maxNodes: maxNodes,
		switchW:  make([]float64, len(entries)),
	}
	for i, n := range entries {
		for j := 0; j < n; j++ {
			t.kern[i] = append(t.kern[i], kernelEntry{k: 1 + rng.Float64(), epu: 1 + rng.Float64()})
		}
	}
	t.index()
	return t
}

// checkOrder walks o both ways against want, the digit vectors of its
// positions from an independent enumeration: the sequential walk
// (start(0), then next) and the random-access decode (start(pos)) must
// both give want[pos], the boxes' sizes must sum to size, and no vector
// may be all-absent.
func checkOrder(t *testing.T, what string, o *order, size uint64, want [][]int) {
	t.Helper()
	if o.size() != size || uint64(len(want)) != size {
		t.Fatalf("%s: order size %d, space %d, enumerated %d", what, o.size(), size, len(want))
	}
	var boxes uint64
	for k := range o.ends {
		prev := uint64(0)
		if k > 0 {
			prev = o.ends[k-1]
		}
		boxes += o.ends[k] - prev
	}
	if boxes != size {
		t.Fatalf("%s: box sizes sum to %d, want %d", what, boxes, size)
	}
	seq := o.newCursor()
	ok := seq.start(0)
	for pos, digits := range want {
		if !ok {
			t.Fatalf("%s: the walk ended at position %d of %d", what, pos, size)
		}
		at := o.newCursor()
		if !at.start(uint64(pos)) {
			t.Fatalf("%s: position %d does not decode", what, pos)
		}
		for _, c := range []*genCursor{&seq, &at} {
			if !slices.Equal(c.digit, digits) {
				t.Fatalf("%s: position %d: walk %v, decode %v, want %v", what, pos, seq.digit, at.digit, digits)
			}
			for i, d := range c.digit {
				n := len(o.t.kern[i])
				if d > 0 && (c.count[i] != (d-1)/n+1 || c.pick[i] != (d-1)%n) || d == 0 && c.count[i] != 0 {
					t.Fatalf("%s: position %d type %d: digit %d as count %d pick %d", what, pos, i, d, c.count[i], c.pick[i])
				}
			}
		}
		if !slices.ContainsFunc(digits, func(d int) bool { return d > 0 }) {
			t.Fatalf("%s: position %d is the all-absent vector", what, pos)
		}
		ok = seq.next()
	}
	if ok {
		t.Fatalf("%s: the walk runs past its %d positions", what, size)
	}
	c := o.newCursor()
	if c.start(size) {
		t.Fatalf("%s: position %d past the end decodes to %v", what, size, c.digit)
	}
}

// serialDigits enumerates the generic serial order independently: the
// mixed-radix vectors 1..∏(top+1)-1, type 0 slowest.
func serialDigits(tops []int) [][]int {
	var out [][]int
	digits := make([]int, len(tops))
	for {
		i := len(digits) - 1
		for ; i >= 0 && digits[i] == tops[i]; i-- {
			digits[i] = 0
		}
		if i < 0 {
			return out
		}
		digits[i]++
		out = append(out, slices.Clone(digits))
	}
}

// TestOrderDecodeMatchesWalk is the property test of the walk orders'
// decoder over seeded synthetic tables: one type, four types, a type
// with MaxNodes 0 among others and alone, and two-type bounds with a
// zero side.
func TestOrderDecodeMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		draw := func(n int) (entries, maxNodes []int) {
			for range n {
				entries = append(entries, 1+rng.Intn(4))
				maxNodes = append(maxNodes, 1+rng.Intn(3))
			}
			return entries, maxNodes
		}
		cases := map[string][2][]int{}
		for _, n := range []int{1, 4} {
			e, m := draw(n)
			cases[fmt.Sprintf("%d types", n)] = [2][]int{e, m}
		}
		e, m := draw(3)
		m[rng.Intn(3)] = 0
		cases["a type at MaxNodes 0"] = [2][]int{e, m}
		cases["one type at MaxNodes 0"] = [2][]int{{1 + rng.Intn(4)}, {0}}
		for name, c := range cases {
			tbl := syntheticTable(rng, c[0], c[1])
			tops := make([]int, len(c[0]))
			for i := range tops {
				tops[i] = c[0][i] * c[1][i]
			}
			checkOrder(t, fmt.Sprintf("seed %d, %s %v×%v", seed, name, c[0], c[1]), &tbl.all, tbl.size, serialDigits(tops))
		}

		tbl := syntheticTable(rng, []int{1 + rng.Intn(4), 1 + rng.Intn(4)}, []int{1, 1})
		for _, b := range [][2]int{{1, 1}, {3, 2}, {0, 3}, {2, 0}, {1 + rng.Intn(4), 1 + rng.Intn(4)}} {
			a, d := b[0]*len(tbl.kern[0]), b[1]*len(tbl.kern[1])
			var want [][]int
			for i := 1; i <= a; i++ {
				for j := 1; j <= d; j++ {
					want = append(want, []int{i, j})
				}
			}
			for i := 1; i <= a; i++ {
				want = append(want, []int{i, 0})
			}
			for j := 1; j <= d; j++ {
				want = append(want, []int{0, j})
			}
			checkOrder(t, fmt.Sprintf("seed %d, two-type %d×%d", seed, b[0], b[1]), tbl.twoTypeOrder(b[0], b[1]), uint64(tbl.twoTypeSize(b[0], b[1])), want)
		}
	}
}
