package cluster

import (
	"context"
	"math"
	"testing"
)

// TestGenericTableReuseBitIdentical pins the property the daemon's table
// cache relies on: one compiled GenericTable answers every work size, and each
// answer is bit-identical to a fresh per-call build. Work sizes span
// three orders of magnitude to make any hidden w-dependence in the
// compiled coefficients visible.
func TestGenericTableReuseBitIdentical(t *testing.T) {
	types := triTypes(t, 2, 2, 2)
	g, err := NewGenericTable(types)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{1e3, 5e4, 1e6} {
		fresh, err := EnumerateGroups(types, w)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := g.Enumerate(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(fresh) != len(reused) {
			t.Fatalf("w=%v: %d fresh points vs %d reused", w, len(fresh), len(reused))
		}
		for i := range fresh {
			if fresh[i].Time != reused[i].Time || fresh[i].Energy != reused[i].Energy {
				t.Fatalf("w=%v point %d: fresh (%v,%v) vs reused (%v,%v)",
					w, i, fresh[i].Time, fresh[i].Energy, reused[i].Time, reused[i].Energy)
			}
		}

		fPts, fTEs, err := GenericFrontierOf(types, w)
		if err != nil {
			t.Fatal(err)
		}
		rPts, rTEs, _, err := g.FrontierCounted(context.Background(), w, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(fTEs) != len(rTEs) {
			t.Fatalf("w=%v: %d fresh frontier points vs %d reused", w, len(fTEs), len(rTEs))
		}
		for i := range fTEs {
			if fTEs[i].Time != rTEs[i].Time || fTEs[i].Energy != rTEs[i].Energy {
				t.Fatalf("w=%v frontier %d differs: %+v vs %+v", w, i, fTEs[i], rTEs[i])
			}
			if fPts[i].Label(nil) != rPts[i].Label(nil) {
				t.Fatalf("w=%v frontier %d labels differ: %q vs %q",
					w, i, fPts[i].Label(nil), rPts[i].Label(nil))
			}
		}
	}
}

// TestGenericTableParallelMatchesSerial checks the table's parallel
// frontier against its serial one off one shared table, across work
// sizes (the wrapped enumerators are pinned elsewhere).
func TestGenericTableParallelMatchesSerial(t *testing.T) {
	g, err := NewGenericTable(triTypes(t, 2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{5e4, 5e7} {
		serialPts, serialTEs, err := g.Frontier(w)
		if err != nil {
			t.Fatal(err)
		}
		pts, tes, _, err := g.FrontierCounted(context.Background(), w, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(tes) != len(serialTEs) {
			t.Fatalf("w=%v: %d serial vs %d parallel frontier points", w, len(serialTEs), len(tes))
		}
		for i := range tes {
			if tes[i] != serialTEs[i] || !genericPointEqual(pts[i], serialPts[i]) {
				t.Fatalf("w=%v: frontier point %d differs: %+v vs %+v", w, i, pts[i], serialPts[i])
			}
		}
	}
}

func TestGenericTableErrors(t *testing.T) {
	if _, err := NewGenericTable(nil); err == nil {
		t.Error("no types should error")
	}
	s := epSpace(t)
	if _, err := NewGenericTable([]GroupType{{Model: s.ARM, MaxNodes: -1}}); err == nil {
		t.Error("negative MaxNodes should error")
	}
	empty, err := NewGenericTable([]GroupType{{Model: s.ARM, MaxNodes: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.ForEach(1e6, func(GenericPoint) bool { return true }); err == nil {
		t.Error("all-zero space should error at evaluation time")
	}
	g, err := NewGenericTable([]GroupType{{Model: s.ARM, MaxNodes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := g.Enumerate(w); err == nil {
			t.Errorf("work %v should error", w)
		}
	}
}

// TestSizeBytesAccounting sanity-checks the cache-accounting estimates:
// positive, and monotone in the compiled configuration count.
func TestSizeBytesAccounting(t *testing.T) {
	small, err := NewGenericTable(triTypes(t, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewGenericTable(triTypes(t, 8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if small.SizeBytes() <= 0 || big.SizeBytes() <= small.SizeBytes() {
		t.Errorf("generic SizeBytes should be positive and grow with compiled types: %d vs %d",
			small.SizeBytes(), big.SizeBytes())
	}
	tab, err := epSpace(t).NewTable()
	if err != nil {
		t.Fatal(err)
	}
	if tab.SizeBytes() <= 0 {
		t.Errorf("Table.SizeBytes should be positive, got %d", tab.SizeBytes())
	}
}
