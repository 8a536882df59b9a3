package streamagg

// The package-internal side of Merger. Each mergeable kind implements
// fold(other, op) once, so the argument check, the locking (lockPair)
// and the implementation's loop are shared by the three things callers
// need: a compatibility check that changes nothing, so Pipeline.Merge
// and Overlay.Put can validate every pair before touching any; the
// merge itself; and, for the linear kinds, subtracting a merged-in
// summary back out, so Overlay can keep a running sum under
// replacement.

import "fmt"

// foldOp selects what fold does with its argument: check that it could
// merge, merge it, or take a previously merged argument back out.
type foldOp int

const (
	foldCheck foldOp = iota
	foldMerge
	foldSubtract
)

// folder is implemented by every mergeable kind.
type folder interface {
	Merger
	fold(other Aggregate, op foldOp) error
}

var (
	_ folder = (*FreqEstimator)(nil)
	_ folder = (*CountMin)(nil)
	_ folder = (*CountMinRange)(nil)
	_ folder = (*CountSketch)(nil)
	_ folder = (*Sharded)(nil)
)

// foldInto applies op to dst with src as the argument.
func foldInto(dst, src Aggregate, op foldOp) error {
	f, ok := dst.(folder)
	if !ok {
		return fmt.Errorf("%w: %s does not support merging", ErrIncompatibleMerge, dst.Kind())
	}
	return f.fold(src, op)
}

// mergeArg returns other as dst's concrete type, or an error wrapping
// ErrIncompatibleMerge when it is of another kind or is dst itself.
func mergeArg[T Aggregate](dst T, other Aggregate) (T, error) {
	o, ok := other.(T)
	if !ok {
		return o, fmt.Errorf("%w: cannot merge %s into %s", ErrIncompatibleMerge, other.Kind(), dst.Kind())
	}
	if any(o) == any(dst) {
		return o, fmt.Errorf("%w: aggregate merged with itself", ErrIncompatibleMerge)
	}
	return o, nil
}

// linearImpl is the internal sketch behind a linear kind.
type linearImpl[T any] interface {
	Compatible(T) error
	Merge(T) error
	Subtract(T) error
}

// foldLinear is the body of fold for the linear kinds, run under
// lockPair: op applied to the two implementations.
func foldLinear[T linearImpl[T]](op foldOp, dst, src T) error {
	var err error
	switch op {
	case foldCheck:
		err = dst.Compatible(src)
	case foldMerge:
		err = dst.Merge(src)
	case foldSubtract:
		err = dst.Subtract(src)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrIncompatibleMerge, err)
	}
	return nil
}

// linear reports whether agg's state is a cell-wise sum over its stream
// — count-min, count-min-range, count-sketch, and Sharded over them — so
// that a merged-in summary can be subtracted back out exactly.
func linear(agg Aggregate) bool {
	kind := agg.Kind()
	if s, ok := agg.(*Sharded); ok {
		kind = s.InnerKind()
	}
	switch kind {
	case KindCountMin, KindCountMinRange, KindCountSketch:
		return true
	}
	return false
}
