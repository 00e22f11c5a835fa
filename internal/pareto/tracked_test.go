package pareto

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestTrackedMirrorsFrontier(t *testing.T) {
	var tr Tracked[string]
	offers := []struct {
		te   TE
		v    string
		want bool
	}{
		{TE{Time: 10, Energy: 10}, "a", true},
		{TE{Time: 5, Energy: 20}, "b", true},   // faster, joins ahead
		{TE{Time: 12, Energy: 12}, "c", false}, // dominated by a
		{TE{Time: 4, Energy: 4}, "d", true},    // dominates a and b
		{TE{Time: 20, Energy: 2}, "e", true},   // cheapest tail
		{TE{Time: 20, Energy: 2}, "x", false},  // exact duplicate: first wins
	}
	for _, o := range offers {
		added, err := tr.Insert(o.te, o.v)
		if err != nil {
			t.Fatal(err)
		}
		if added != o.want {
			t.Fatalf("Insert(%v, %q) added=%v, want %v", o.te, o.v, added, o.want)
		}
	}
	pts, tes := tr.Frontier()
	if tr.Len() != 2 || len(pts) != 2 || len(tes) != 2 {
		t.Fatalf("frontier size %d/%d/%d, want 2", tr.Len(), len(pts), len(tes))
	}
	if pts[0] != "d" || pts[1] != "e" {
		t.Fatalf("payloads = %v, want [d e]", pts)
	}
	for i, te := range tes {
		if te.Index != i {
			t.Fatalf("TE %d has Index %d", i, te.Index)
		}
	}

	// Frontier must match the offline computation over the same offers.
	var all []TE
	for _, o := range offers {
		all = append(all, o.te)
	}
	want, err := Frontier(all)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if tes[i].Time != want[i].Time || tes[i].Energy != want[i].Energy {
			t.Fatalf("tracked frontier %d = %v, want %v", i, tes[i], want[i])
		}
	}
}

func TestTrackedClone(t *testing.T) {
	// The producer reuses one backing array; Clone must snapshot retained
	// values at insert time.
	scratch := []int{0}
	tr := Tracked[[]int]{Clone: func(v []int) []int { return append([]int(nil), v...) }}
	for i, te := range []TE{{Time: 1, Energy: 9}, {Time: 2, Energy: 5}, {Time: 3, Energy: 1}} {
		scratch[0] = i + 1
		if _, err := tr.Insert(te, scratch); err != nil {
			t.Fatal(err)
		}
	}
	scratch[0] = 99
	pts, _ := tr.Frontier()
	for i, p := range pts {
		if p[0] != i+1 {
			t.Fatalf("payload %d = %v, want [%d]", i, p, i+1)
		}
	}
}

func TestTrackedRejectsInvalid(t *testing.T) {
	var tr Tracked[int]
	if _, err := tr.Insert(TE{Time: -1, Energy: 1}, 0); err == nil {
		t.Error("negative time should error")
	}
	if tr.Len() != 0 {
		t.Error("failed insert must not grow the payload")
	}
}

// TestTakeFrontierMatchesFrontier: the consuming accessors return
// exactly what Frontier returns (nil for an empty frontier), and the
// emptied value takes a new set of offers as a fresh one would.
func TestTakeFrontierMatchesFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	offers := func(n int) []TE {
		out := make([]TE, n)
		for i := range out {
			// Coarse coordinates give ties and exact duplicates.
			out[i] = TE{Time: float64(1 + rng.Intn(40)), Energy: float64(1 + rng.Intn(40))}
		}
		return out
	}
	var took Tracked[int]
	var tookF OnlineFrontier
	for round, n := range []int{0, 1, 200, 0, 50} {
		var ref Tracked[int]
		var refF OnlineFrontier
		for k, te := range offers(n) {
			for _, tr := range []*Tracked[int]{&ref, &took} {
				if _, err := tr.Insert(te, k); err != nil {
					t.Fatal(err)
				}
			}
			for _, f := range []*OnlineFrontier{&refF, &tookF} {
				if _, err := f.Add(te); err != nil {
					t.Fatal(err)
				}
			}
		}
		wantPts, wantTEs := ref.Frontier()
		gotPts, gotTEs := took.TakeFrontier()
		if !reflect.DeepEqual(gotPts, wantPts) || !reflect.DeepEqual(gotTEs, wantTEs) {
			t.Fatalf("round %d: Tracked.TakeFrontier = %v %v, Frontier = %v %v", round, gotPts, gotTEs, wantPts, wantTEs)
		}
		if want, got := refF.Frontier(), tookF.TakeFrontier(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: OnlineFrontier.TakeFrontier = %v, Frontier = %v", round, got, want)
		}
		if took.Len() != 0 || tookF.Len() != 0 {
			t.Fatalf("round %d: %d and %d points left after TakeFrontier", round, took.Len(), tookF.Len())
		}
	}
}
