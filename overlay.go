package streamagg

import (
	"fmt"
	"slices"
)

// Overlay maintains base ⊕ Σ parts for a set of keyed parts, each
// replaced wholesale — the federation root's global view, where every
// edge node's latest full-mode push is one part. Re-merging every part
// on each change costs K merges for K parts; Overlay keeps, for each
// linear member the base has (count-min, count-min-range, count-sketch,
// and Sharded over them), one accumulator equal to the cell-wise sum of
// the parts' members of that name, updated as acc += new − old. Their
// state is a sum over the stream, so the accumulator is exact and
// replacing a part costs O(1) merges whatever K is. Misra–Gries cannot
// subtract: Build merges its parts' members one by one, in sorted-key
// order.
//
// Only members the base has are checked and summed; a part's other
// members are ignored, as Pipeline.Merge ignores them. Every sum depends
// only on the current parts, not on the order they arrived or were
// replaced in: addition commutes, and the Misra–Gries merge order is
// fixed by the keys. Two overlays holding the same parts over equal
// bases therefore build byte-identical views.
//
// An Overlay is not safe for concurrent use; the base may keep ingesting
// while it builds.
type Overlay struct {
	base    *Pipeline
	keys    []string    // part keys, sorted
	parts   []*Pipeline // parts[i] is keys[i]'s latest part
	partLen int64       // Σ parts' StreamLen
	// sums maps a linear member name of the base to the sum of the
	// parts' members of that name, nil while no part has one. A name is
	// summed from the parts on its first Build and kept current by Put.
	sums map[string]Aggregate
}

// NewOverlay returns an overlay with no parts over base.
func NewOverlay(base *Pipeline) *Overlay {
	return &Overlay{base: base, sums: make(map[string]Aggregate)}
}

// Len reports the number of parts.
func (o *Overlay) Len() int { return len(o.parts) }

// Put makes part the latest part under key, replacing any earlier one.
// part is checked before anything changes: it must share at least one
// member name with the base, and each shared member must merge with the
// base's member and with the running sum of that name (same kind,
// parameters and hash seeds). Otherwise Put returns an error wrapping
// ErrIncompatibleMerge and the overlay is untouched. The overlay keeps
// part and only reads it: the caller must not modify it.
func (o *Overlay) Put(key string, part *Pipeline) error {
	if part == nil {
		return fmt.Errorf("%w: nil pipeline", ErrBadParam)
	}
	if err := o.check(part); err != nil {
		return err
	}
	i, found := slices.BinarySearch(o.keys, key)
	var old *Pipeline
	if found {
		old = o.parts[i]
		o.parts[i] = part
		o.partLen -= old.StreamLen()
	} else {
		o.keys = slices.Insert(o.keys, i, key)
		o.parts = slices.Insert(o.parts, i, part)
	}
	o.partLen += part.StreamLen()

	// Cannot fail once check passed: every pair below was checked, and
	// typed clones do not fail.
	for name, acc := range o.sums {
		if _, ok := o.base.Get(name); !ok {
			// The base lost the name (a restore); sum it afresh if it
			// comes back.
			delete(o.sums, name)
			continue
		}
		acc, err := replace(acc, memberOf(part, name), memberOf(old, name))
		if err != nil {
			return err
		}
		o.sums[name] = acc
	}
	return nil
}

// check validates part's members against the base's and the running sums.
func (o *Overlay) check(part *Pipeline) error {
	shared := false
	for _, m := range part.snapshot() {
		dst, ok := o.base.Get(m.name)
		if !ok {
			continue
		}
		shared = true
		if err := foldInto(dst, m.agg, foldCheck); err != nil {
			return fmt.Errorf("streamagg: merging aggregate %q: %w", m.name, err)
		}
		if acc := o.sums[m.name]; acc != nil {
			if err := foldInto(acc, m.agg, foldCheck); err != nil {
				return fmt.Errorf("streamagg: merging aggregate %q: %w", m.name, err)
			}
		}
	}
	if !shared {
		return fmt.Errorf("%w: pipelines share no aggregate names", ErrIncompatibleMerge)
	}
	return nil
}

// memberOf returns p's member name, nil when p is nil or lacks it.
func memberOf(p *Pipeline, name string) Aggregate {
	if p == nil {
		return nil
	}
	agg, _ := p.Get(name)
	return agg
}

// replace returns acc + nw − old for a linear sum, modifying acc in
// place; a nil acc is an empty sum, a nil nw or old an absent member.
func replace(acc, nw, old Aggregate) (Aggregate, error) {
	if nw != nil {
		if acc == nil {
			c, err := cloneAggregate(nw)
			if err != nil {
				return nil, err
			}
			acc = c
		} else if err := foldInto(acc, nw, foldMerge); err != nil {
			return nil, err
		}
	}
	if old != nil {
		if err := foldInto(acc, old, foldSubtract); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// sum returns the running sum of the parts' members under name, summing
// them on first use.
func (o *Overlay) sum(name string) (Aggregate, error) {
	if acc, ok := o.sums[name]; ok {
		return acc, nil
	}
	var acc Aggregate
	for _, p := range o.parts {
		var err error
		if acc, err = replace(acc, memberOf(p, name), nil); err != nil {
			return nil, err
		}
	}
	o.sums[name] = acc
	return acc, nil
}

// mergeParts merges the parts' members named m.name into m: a linear
// member's running sum in one step, any other one part by part in key
// order.
func (o *Overlay) mergeParts(m member) error {
	if linear(m.agg) {
		acc, err := o.sum(m.name)
		if err != nil || acc == nil {
			return err
		}
		return foldInto(m.agg, acc, foldMerge)
	}
	for _, p := range o.parts {
		if agg := memberOf(p, m.name); agg != nil {
			if err := foldInto(m.agg, agg, foldMerge); err != nil {
				return err
			}
		}
	}
	return nil
}

// Build returns a new pipeline holding base ⊕ Σ parts — a clone of the
// base with the parts' members merged into the member of the same name —
// and the base's StreamLen as of that clone, which is all of the base
// the view reflects however much the base ingests meanwhile. The error
// is non-nil only if the base changed out of band (a restore) into
// something the parts no longer merge with.
func (o *Overlay) Build() (*Pipeline, int64, error) {
	view, err := o.base.Clone()
	if err != nil {
		return nil, 0, err
	}
	baseLen := view.StreamLen()
	for _, m := range view.snapshot() {
		if err := o.mergeParts(m); err != nil {
			return nil, 0, fmt.Errorf("streamagg: merging the parts' %q: %w", m.name, err)
		}
	}
	view.streamLen.Add(o.partLen)
	return view, baseLen, nil
}
