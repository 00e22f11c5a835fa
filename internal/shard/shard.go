// Package shard partitions enumeration index spaces across a fleet of
// replicas without coordination state. Its pieces compose the
// scatter-gather serving mode:
//
//   - Shard, the "i/n" slice spec a replica serves: shard i of n owns
//     the contiguous serial indices [⌊i·size/n⌋, ⌊(i+1)·size/n⌋)
//     (Range), an exact partition whose slices differ in size by at
//     most one. A replica walks its slice by one seek and then odometer
//     steps, and because slices are ordered, merging them in serial
//     index order reproduces the serial walk.
//   - Ring, a consistent-hash ring used by the coordinator to route
//     predict/batch traffic so each replica's compiled-table cache
//     stays hot for the workloads it owns, and to place shards.
//   - Permutation, a keyed Feistel network over [0, size). No slice
//     depends on it; it is kept only for the benchmark replay's
//     shard.permute_ns_per_index metric.
//
// Everything here is a pure function of its inputs — two replicas
// configured with the same size and shard spec agree on the slice
// with no communication.
package shard

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// DefaultSeed is the key the benchmark's replay times Permutation
// with; no shard slice depends on it.
const DefaultSeed uint64 = 0x68657465726f6d69 // "heteromi"

// feistelRounds is the number of Feistel rounds. Four already mixes
// well for balanced networks with a strong round function; eight keeps
// a comfortable margin at ~40ns per Apply.
const feistelRounds = 8

// mix64 is the splitmix64 finalizer: an invertible 64-bit mixer whose
// output bits each depend on every input bit. It serves as both the
// round function and the round-key schedule.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Permutation is a keyed bijection over [0, size). The zero value (and
// any size <= 1) is the identity. Safe for concurrent use. No shard slice
// uses it: it is kept only for the benchmark replay's
// shard.permute_ns_per_index metric and goes when that metric does.
type Permutation struct {
	size     uint64
	halfBits uint
	halfMask uint64
	keys     [feistelRounds]uint64
}

// NewPermutation builds the keyed permutation over [0, size). The
// Feistel network runs on the smallest even bit-width covering size, so
// its domain is less than 4·size and cycle-walking out-of-range values
// back into [0, size) takes ~1.3 encryptions expected, worst cases a
// handful.
func NewPermutation(size, seed uint64) Permutation {
	p := Permutation{size: size}
	if size <= 1 {
		return p
	}
	nbits := bits.Len64(size - 1) // ceil(log2 size) for size >= 2
	if nbits < 2 {
		nbits = 2
	}
	half := uint((nbits + 1) / 2) // 1..32: the domain 2^(2·half) fits uint64
	p.halfBits = half
	p.halfMask = uint64(1)<<half - 1
	x := seed
	for r := range p.keys {
		x += 0x9e3779b97f4a7c15 // splitmix64 stream increment
		p.keys[r] = mix64(x)
	}
	return p
}

// Size returns the permutation's domain size.
func (p Permutation) Size() uint64 { return p.size }

// encrypt runs the balanced Feistel network once over the 2·halfBits
// domain: (L, R) -> (R, L ^ F(R, k)) per round.
func (p Permutation) encrypt(x uint64) uint64 {
	l := x >> p.halfBits
	r := x & p.halfMask
	for _, k := range p.keys {
		l, r = r, l^(mix64(r^k)&p.halfMask)
	}
	return l<<p.halfBits | r
}

// decrypt inverts encrypt: rounds in reverse, (L, R) -> (R ^ F(L, k), L).
func (p Permutation) decrypt(x uint64) uint64 {
	l := x >> p.halfBits
	r := x & p.halfMask
	for i := len(p.keys) - 1; i >= 0; i-- {
		l, r = r^(mix64(l^p.keys[i])&p.halfMask), l
	}
	return l<<p.halfBits | r
}

// Apply maps i to its permuted image in [0, size). Values at or beyond
// size are returned unchanged (the permutation is only defined on its
// domain). Out-of-domain intermediate values are cycle-walked: the
// Feistel network permutes [0, 2^2b), so repeatedly encrypting an
// out-of-range image must re-enter [0, size) — the walk follows one
// cycle of a finite permutation.
func (p Permutation) Apply(i uint64) uint64 {
	if p.size <= 1 || i >= p.size {
		return i
	}
	x := p.encrypt(i)
	for x >= p.size {
		x = p.encrypt(x)
	}
	return x
}

// Invert maps a permuted image back to its preimage: Invert(Apply(i))
// == i for every i in [0, size). Values at or beyond size are returned
// unchanged.
func (p Permutation) Invert(i uint64) uint64 {
	if p.size <= 1 || i >= p.size {
		return i
	}
	x := p.decrypt(i)
	for x >= p.size {
		x = p.decrypt(x)
	}
	return x
}

// Shard is one replica's slice spec: index Index of Count total shards.
// The zero value means "unsharded" (Count 0); "0/1" is the whole space
// as a single shard.
type Shard struct {
	Index int
	Count int
}

// Parse reads an "i/n" spec ("0/4", "3/4", ...).
func Parse(spec string) (Shard, error) {
	is, ns, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf(`shard: %q is not an "i/n" spec`, spec)
	}
	i, err := strconv.Atoi(is)
	if err != nil {
		return Shard{}, fmt.Errorf("shard: index in %q: %v", spec, err)
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return Shard{}, fmt.Errorf("shard: count in %q: %v", spec, err)
	}
	s := Shard{Index: i, Count: n}
	if err := s.Validate(); err != nil {
		return Shard{}, err
	}
	return s, nil
}

// Validate checks 0 <= Index < Count and Count >= 1.
func (s Shard) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("shard: count must be >= 1, got %d", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("shard: index must be in [0, %d), got %d", s.Count, s.Index)
	}
	return nil
}

// String renders the canonical "i/n" form.
func (s Shard) String() string { return strconv.Itoa(s.Index) + "/" + strconv.Itoa(s.Count) }

// Range returns the serial indices [lo, hi) shard s owns of a
// size-point space: [⌊Index·size/Count⌋, ⌊(Index+1)·size/Count⌋). The
// products are taken in 128 bits, so the bounds are exact even for a
// size saturated at math.MaxUint64. Adjacent shards' ranges meet, the
// Count ranges cover [0, size), and each holds ⌊size/Count⌋ or
// ⌈size/Count⌉ indices. An invalid s owns nothing.
func (s Shard) Range(size uint64) (lo, hi uint64) {
	if s.Validate() != nil {
		return 0, 0
	}
	return rangeBound(size, s.Index, s.Count), rangeBound(size, s.Index+1, s.Count)
}

// rangeBound is ⌊i·size/n⌋ for 0 <= i <= n. The high word of i·size is
// below n because i <= n, so the 128-by-64 division cannot overflow.
func rangeBound(size uint64, i, n int) uint64 {
	hi, lo := bits.Mul64(size, uint64(i))
	q, _ := bits.Div64(hi, lo, uint64(n))
	return q
}

// SliceSize returns how many of size total points shard s owns: the
// length of its Range, within one point of size/Count for every shard.
func (s Shard) SliceSize(size uint64) uint64 {
	lo, hi := s.Range(size)
	return hi - lo
}

// defaultVnodes is the virtual-node count per ring member: enough that
// member loads stay within a few percent of uniform.
const defaultVnodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring over a fixed member list. Lookups are
// a pure function of (members, key): every process that builds a Ring
// from the same member list routes identically, so a fleet needs no
// shared routing table. Immutable after construction and safe for
// concurrent use.
type Ring struct {
	points []ringPoint
}

// hashString is FNV-1a finished with mix64, so ring placement does not
// inherit FNV's weak avalanche on short keys.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// NewRing places vnodes virtual nodes per member on the circle
// (vnodes <= 0 selects the default 64).
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	r := &Ring{points: make([]ringPoint, 0, len(members)*vnodes)}
	for _, m := range members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashString(m + "#" + strconv.Itoa(v)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on member so the order (and thus routing) does not
		// depend on the input member order.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Lookup returns the member owning key: the first virtual node at or
// after the key's hash, wrapping around the circle. Empty rings return
// "".
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashString(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Successors returns every distinct member in ring order starting at
// key's owner: Successors(k)[0] == Lookup(k), and each later entry is
// the next new member met walking the circle — the deterministic
// failover order a coordinator reassigns a dead owner's work along.
// Like Lookup it is a pure function of (members, key), so every
// coordinator agrees on the walk with no communication.
func (r *Ring) Successors(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if start == len(r.points) {
		start = 0
	}
	seen := make(map[string]struct{})
	var out []string
	for k := 0; k < len(r.points); k++ {
		m := r.points[(start+k)%len(r.points)].member
		if _, dup := seen[m]; dup {
			continue
		}
		seen[m] = struct{}{}
		out = append(out, m)
	}
	return out
}
