package shard

import (
	"fmt"
	"math"
	"math/big"
	"testing"
)

// TestPermutationBijectionExhaustive checks, for a battery of
// adversarial sizes — empty, singleton, tiny, primes, powers of two and
// their neighbours — that Apply is a bijection of [0, size) (every image
// in range, no collisions) and Invert is its exact inverse.
func TestPermutationBijectionExhaustive(t *testing.T) {
	sizes := []uint64{0, 1, 2, 3, 4, 5, 7, 13, 97, 251, 256, 257, 1000, 4093, 4096, 65537, 1<<17 - 1}
	for _, size := range sizes {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			p := NewPermutation(size, DefaultSeed)
			if p.Size() != size {
				t.Fatalf("Size() = %d, want %d", p.Size(), size)
			}
			seen := make([]bool, size)
			for i := uint64(0); i < size; i++ {
				j := p.Apply(i)
				if j >= size {
					t.Fatalf("Apply(%d) = %d out of [0, %d)", i, j, size)
				}
				if seen[j] {
					t.Fatalf("Apply collides at image %d (input %d)", j, i)
				}
				seen[j] = true
				if got := p.Invert(j); got != i {
					t.Fatalf("Invert(Apply(%d)) = %d", i, got)
				}
			}
		})
	}
}

// TestPermutationBijectionHuge samples the properties at sizes too
// large to enumerate: a prime near 2^31, exact 2^31, and the extremes
// of the uint64 domain. Invert∘Apply must be the identity and sampled
// images must neither collide nor escape the domain.
func TestPermutationBijectionHuge(t *testing.T) {
	sizes := []uint64{1 << 31, 1<<31 + 11, 1<<31 - 1, 1 << 62, math.MaxUint64}
	for _, size := range sizes {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			p := NewPermutation(size, DefaultSeed)
			images := make(map[uint64]uint64)
			// Deterministic sample: edges plus a splitmix-derived spread.
			samples := []uint64{0, 1, 2, size / 2, size - 2, size - 1}
			x := uint64(12345)
			for k := 0; k < 200; k++ {
				x += 0x9e3779b97f4a7c15
				samples = append(samples, mix64(x)%size)
			}
			for _, i := range samples {
				j := p.Apply(i)
				if j >= size {
					t.Fatalf("Apply(%d) = %d out of [0, %d)", i, j, size)
				}
				if prev, ok := images[j]; ok && prev != i {
					t.Fatalf("Apply collides: %d and %d both map to %d", prev, i, j)
				}
				images[j] = i
				if got := p.Invert(j); got != i {
					t.Fatalf("Invert(Apply(%d)) = %d", i, got)
				}
			}
		})
	}
}

// TestPermutationIdentityCases: degenerate sizes are the identity, and
// out-of-domain inputs pass through unchanged.
func TestPermutationIdentityCases(t *testing.T) {
	for _, size := range []uint64{0, 1} {
		p := NewPermutation(size, 7)
		for _, i := range []uint64{0, 1, 5, math.MaxUint64} {
			if p.Apply(i) != i || p.Invert(i) != i {
				t.Fatalf("size %d: Apply/Invert(%d) not identity", size, i)
			}
		}
	}
	p := NewPermutation(100, 7)
	for _, i := range []uint64{100, 101, 1 << 40} {
		if p.Apply(i) != i || p.Invert(i) != i {
			t.Fatalf("out-of-domain %d must pass through unchanged", i)
		}
	}
}

// TestPermutationKeyed: the same seed reproduces the mapping; a
// different seed produces a different one (with overwhelming
// probability on a 4096-point domain).
func TestPermutationKeyed(t *testing.T) {
	const size = 4096
	a := NewPermutation(size, 1)
	b := NewPermutation(size, 1)
	c := NewPermutation(size, 2)
	differs := false
	for i := uint64(0); i < size; i++ {
		if a.Apply(i) != b.Apply(i) {
			t.Fatalf("same seed disagrees at %d", i)
		}
		if a.Apply(i) != c.Apply(i) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeds 1 and 2 produced identical permutations")
	}
}

// TestShardSlicesPartitionSpace: for every size — empty, around the
// shard count, the tri-cluster space and the saturated maximum — the n
// ranges are adjacent, cover [0, size) exactly, match the exact
// ⌊i·size/n⌋ bounds (so nothing overflows at math.MaxUint64), and each
// SliceSize is within one of size/n.
func TestShardSlicesPartitionSpace(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 64} {
		for _, size := range []uint64{0, 1, uint64(n) - 1, uint64(n), uint64(n) + 1, 384_344, math.MaxUint64} {
			next := uint64(0)
			for i := 0; i < n; i++ {
				sh := Shard{Index: i, Count: n}
				lo, hi := sh.Range(size)
				if lo != next {
					t.Fatalf("size %d n=%d shard %d: range starts at %d, previous ended at %d", size, n, i, lo, next)
				}
				exact := new(big.Int).Mul(new(big.Int).SetUint64(size), big.NewInt(int64(i+1)))
				exact.Quo(exact, big.NewInt(int64(n)))
				if !exact.IsUint64() || exact.Uint64() != hi {
					t.Fatalf("size %d n=%d shard %d: range ends at %d, want %v", size, n, i, hi, exact)
				}
				if got := sh.SliceSize(size); got != hi-lo || got < size/uint64(n) || got-size/uint64(n) > 1 {
					t.Fatalf("size %d n=%d shard %d: SliceSize %d for [%d, %d), want within one of %d",
						size, n, i, got, lo, hi, size/uint64(n))
				}
				next = hi
			}
			if next != size {
				t.Fatalf("size %d n=%d: ranges cover [0, %d)", size, n, next)
			}
		}
	}
	if lo, hi := (Shard{Index: 2, Count: 2}).Range(10); lo != 0 || hi != 0 {
		t.Fatalf("invalid shard owns [%d, %d)", lo, hi)
	}
}

func TestShardParse(t *testing.T) {
	good := map[string]Shard{
		"0/1": {0, 1},
		"0/4": {0, 4},
		"3/4": {3, 4},
	}
	for spec, want := range good {
		got, err := Parse(spec)
		if err != nil || got != want {
			t.Fatalf("Parse(%q) = %v, %v; want %v", spec, got, err, want)
		}
		if got.String() != spec {
			t.Fatalf("String() = %q, want %q", got.String(), spec)
		}
	}
	bad := []string{"", "3", "3/", "/4", "4/4", "5/4", "-1/4", "0/0", "0/-2", "a/b", "1/2/3", "1 / 2"}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q) accepted", spec)
		}
	}
}

func TestRingLookup(t *testing.T) {
	members := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r := NewRing(members, 0)
	// Deterministic: two rings over the same members agree; member order
	// must not matter.
	r2 := NewRing([]string{members[2], members[0], members[3], members[1]}, 0)
	counts := make(map[string]int)
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("workload-%d", i)
		m := r.Lookup(key)
		if m == "" {
			t.Fatal("empty lookup on a populated ring")
		}
		if m2 := r2.Lookup(key); m2 != m {
			t.Fatalf("member order changed routing: %q vs %q for %q", m, m2, key)
		}
		counts[m]++
	}
	for _, m := range members {
		if counts[m] == 0 {
			t.Fatalf("member %q never selected", m)
		}
		// Uniform would be 1000 per member; require no worse than a 3x skew.
		if counts[m] < 333 || counts[m] > 3000 {
			t.Fatalf("member %q load %d is badly skewed: %v", m, counts[m], counts)
		}
	}

	// Consistency: dropping one member must remap (about) only the keys
	// it owned — far fewer than a modulo rehash's ~3/4.
	smaller := NewRing(members[:3], 0)
	moved := 0
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("workload-%d", i)
		if was := r.Lookup(key); was != members[3] && smaller.Lookup(key) != was {
			moved++
		}
	}
	if moved > 400 { // 10% of keys not owned by the removed member
		t.Fatalf("removing a member remapped %d/4000 unrelated keys", moved)
	}

	if got := (&Ring{}).Lookup("x"); got != "" {
		t.Fatalf("empty ring Lookup = %q", got)
	}
	if got := NewRing(nil, 8).Lookup("x"); got != "" {
		t.Fatalf("nil-member ring Lookup = %q", got)
	}
}

func TestRingSuccessors(t *testing.T) {
	members := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r := NewRing(members, 0)
	r2 := NewRing([]string{members[3], members[1], members[0], members[2]}, 0)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("shard:%d", i)
		succ := r.Successors(key)
		if len(succ) != len(members) {
			t.Fatalf("Successors(%q) has %d members, want %d: %v", key, len(succ), len(members), succ)
		}
		if succ[0] != r.Lookup(key) {
			t.Fatalf("Successors(%q)[0] = %q, Lookup = %q", key, succ[0], r.Lookup(key))
		}
		seen := make(map[string]bool)
		for _, m := range succ {
			if seen[m] {
				t.Fatalf("Successors(%q) repeats %q: %v", key, m, succ)
			}
			seen[m] = true
		}
		// Deterministic across construction order: every coordinator
		// agrees on the whole failover walk, not just the owner.
		succ2 := r2.Successors(key)
		for j := range succ {
			if succ[j] != succ2[j] {
				t.Fatalf("member order changed the walk for %q: %v vs %v", key, succ, succ2)
			}
		}
	}
	// The second member varies across keys: the walk spreads failover
	// load instead of funneling every dead owner's shards to one peer.
	second := make(map[string]int)
	for i := 0; i < 500; i++ {
		second[r.Successors(fmt.Sprintf("shard:%d", i))[1]]++
	}
	if len(second) < 2 {
		t.Fatalf("failover successor is constant across keys: %v", second)
	}
	if got := (&Ring{}).Successors("x"); got != nil {
		t.Fatalf("empty ring Successors = %v", got)
	}
	if got := NewRing([]string{"only"}, 0).Successors("x"); len(got) != 1 || got[0] != "only" {
		t.Fatalf("single-member Successors = %v", got)
	}
}
