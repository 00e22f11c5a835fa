package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func rows(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// apply replays ops against prev the way a streaming client would and
// returns the resulting multiset.
func apply(t *testing.T, prev [][]byte, ops []Op) map[string]int {
	t.Helper()
	m := map[string]int{}
	for _, r := range prev {
		m[string(r)]++
	}
	for _, op := range ops {
		if op.Add {
			m[string(op.Row)]++
		} else {
			m[string(op.Row)]--
			if m[string(op.Row)] < 0 {
				t.Fatalf("delta deletes %q more times than it exists", op.Row)
			}
		}
	}
	for k, v := range m {
		if v == 0 {
			delete(m, k)
		}
	}
	return m
}

func multiset(rs [][]byte) map[string]int {
	m := map[string]int{}
	for _, r := range rs {
		m[string(r)]++
	}
	return m
}

func TestDiffBasic(t *testing.T) {
	prev := rows(`{"a":1}`, `{"b":2}`, `{"c":3}`)
	next := rows(`{"b":2}`, `{"c":3}`, `{"d":4}`)
	ops := Diff(prev, next)
	if len(ops) != 2 {
		t.Fatalf("Diff emitted %d ops, want 2: %+v", len(ops), ops)
	}
	if ops[0].Add || string(ops[0].Row) != `{"a":1}` {
		t.Fatalf("first op = %+v, want del a", ops[0])
	}
	if !ops[1].Add || string(ops[1].Row) != `{"d":4}` {
		t.Fatalf("second op = %+v, want add d", ops[1])
	}
}

func TestDiffIdentical(t *testing.T) {
	prev := rows(`{"a":1}`, `{"b":2}`)
	if ops := Diff(prev, prev); len(ops) != 0 {
		t.Fatalf("Diff of identical frontiers emitted %d ops", len(ops))
	}
}

func TestDiffDuplicates(t *testing.T) {
	prev := rows("x", "x", "y")
	next := rows("x", "y", "y", "y")
	ops := Diff(prev, next)
	got := apply(t, prev, ops)
	if want := multiset(next); !reflect.DeepEqual(got, want) {
		t.Fatalf("applying ops gives %v, want %v", got, want)
	}
	// Net edit distance only: one del of x, two adds of y.
	dels, adds := 0, 0
	for _, op := range ops {
		if op.Add {
			adds++
		} else {
			dels++
		}
	}
	if dels != 1 || adds != 2 {
		t.Fatalf("dels=%d adds=%d, want 1/2", dels, adds)
	}
}

func TestDiffEmptySides(t *testing.T) {
	next := rows("a", "b")
	ops := Diff(nil, next)
	if got := apply(t, nil, ops); !reflect.DeepEqual(got, multiset(next)) {
		t.Fatalf("full-add delta wrong: %v", got)
	}
	ops = Diff(next, nil)
	if got := apply(t, next, ops); len(got) != 0 {
		t.Fatalf("full-del delta leaves %v", got)
	}
}

func TestDiffRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		var prev, next [][]byte
		for i := rng.Intn(20); i >= 0; i-- {
			prev = append(prev, []byte(fmt.Sprintf(`{"p":%d}`, rng.Intn(12))))
		}
		for i := rng.Intn(20); i >= 0; i-- {
			next = append(next, []byte(fmt.Sprintf(`{"p":%d}`, rng.Intn(12))))
		}
		ops := Diff(prev, next)
		if got, want := apply(t, prev, ops), multiset(next); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: apply(prev, Diff) = %v, want %v", trial, got, want)
		}
	}
}
