// Package delta diffs successive Pareto frontiers for incremental
// streaming. Frontiers are handled as slices of encoded JSON rows (the
// exact bytes the stream layer ships), so a delta is computed and
// replayed without ever re-decoding points: a client that applies the
// del-rows then appends the add-rows to its held frontier reconstructs
// the new frontier's row multiset exactly.
package delta

// Op is one frontier edit: Add reports whether Row entered (true) or
// left (false) the frontier.
type Op struct {
	Add bool
	Row []byte
}

// Diff computes the multiset difference between two encoded frontiers.
// Rows present in prev but not next become deletions (in prev order);
// rows present in next but not prev become additions (in next order).
// Rows are compared by exact bytes, which is sound because the encoder
// is deterministic and byte-identical for equal points.
func Diff(prev, next [][]byte) []Op {
	counts := make(map[string]int, len(next))
	for _, row := range next {
		counts[string(row)]++
	}
	var ops []Op
	for _, row := range prev {
		if counts[string(row)] > 0 {
			counts[string(row)]--
		} else {
			ops = append(ops, Op{Add: false, Row: row})
		}
	}
	for _, row := range next {
		if counts[string(row)] > 0 {
			counts[string(row)]--
			ops = append(ops, Op{Add: true, Row: row})
		}
	}
	return ops
}
