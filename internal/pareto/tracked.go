package pareto

// Tracked pairs an OnlineFrontier with a payload slice that mirrors every
// splice, so streaming consumers can keep the full configuration (not just
// its TE projection) for exactly the points currently on the frontier.
// The zero value is ready for use; set Clone when the producer reuses the
// backing storage of offered values.
type Tracked[T any] struct {
	// Clone, when non-nil, is applied to a value at the moment it is
	// retained on the frontier. Producers that stream points through
	// reused scratch buffers set it so only the few hundred retained
	// points are ever copied out, not the full space.
	Clone func(T) T

	f       OnlineFrontier
	payload []T
}

// Insert offers (te, v). The value is retained (and cloned, if Clone is
// set) only when te joins the frontier; dominated offers leave the
// payload untouched and cost nothing.
func (t *Tracked[T]) Insert(te TE, v T) (added bool, err error) {
	pos, removed, added, err := t.f.Insert(te)
	if err != nil || !added {
		return added, err
	}
	if t.Clone != nil {
		v = t.Clone(v)
	}
	// Mirror the frontier's splice onto the payload slice.
	if removed > 0 {
		t.payload[pos] = v
		t.payload = append(t.payload[:pos+1], t.payload[pos+removed:]...)
	} else {
		var zero T
		t.payload = append(t.payload, zero)
		copy(t.payload[pos+1:], t.payload[pos:])
		t.payload[pos] = v
	}
	return true, nil
}

// Len returns the current frontier size.
func (t *Tracked[T]) Len() int { return t.f.Len() }

// Frontier returns the retained payloads and their TEs, time-ascending,
// with each TE's Index rewritten to its position in the payload slice.
func (t *Tracked[T]) Frontier() ([]T, []TE) {
	tes := t.f.Frontier()
	for i := range tes {
		tes[i].Index = i
	}
	return append([]T(nil), t.payload...), tes
}

// TakeFrontier returns what Frontier would, without copying either
// slice: the caller gets the tracker's own backings, and t is left empty
// (Clone kept) and ready for reuse.
func (t *Tracked[T]) TakeFrontier() ([]T, []TE) {
	tes := t.f.TakeFrontier()
	for i := range tes {
		tes[i].Index = i
	}
	payload := t.payload
	t.payload = nil
	return payload, tes
}
