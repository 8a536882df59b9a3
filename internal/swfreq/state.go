package swfreq

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/sbbc"
)

// State.Variant values. Earlier releases shipped all three of the paper's
// algorithms and tagged each state with the one that wrote it. The
// space-efficient algorithm has the work-efficient one's S and γ, so its
// states restore as work-efficient. The basic algorithm has a different γ
// and counters it never retires, so its states are refused.
const (
	variantBasic          = 0
	variantSpaceEfficient = 1
	variantWorkEfficient  = 2
)

// State is the serializable form of an Estimator.
type State struct {
	Variant  int
	N        int64
	Epsilon  float64
	T        int64
	Seed     int64
	Items    []uint64
	Counters []sbbc.State
}

// State captures the estimator for serialization. Items are in
// ascending order, with Counters in lockstep, so equal estimators give
// equal states whatever the map's iteration order.
func (e *Estimator) State() State {
	st := State{
		Variant: variantWorkEfficient,
		N:       e.n,
		Epsilon: e.eps,
		T:       e.t,
		Seed:    e.seed,
	}
	st.Items = slices.Sorted(maps.Keys(e.ctr))
	st.Counters = make([]sbbc.State, len(st.Items))
	for i, item := range st.Items {
		st.Counters[i] = e.ctr[item].State()
	}
	return st
}

// FromState reconstructs an estimator. Derived parameters (capS, gamma,
// adj) are recomputed from (n, epsilon) by the constructor, so they
// always match what a fresh estimator would use, and every counter must
// have been built for them.
func FromState(st State) (*Estimator, error) {
	switch st.Variant {
	case variantSpaceEfficient, variantWorkEfficient:
	case variantBasic:
		return nil, fmt.Errorf("swfreq: state variant %d (basic, Theorem 5.5) no longer restores", st.Variant)
	default:
		return nil, fmt.Errorf("swfreq: state variant %d unknown", st.Variant)
	}
	if st.N < 1 || st.Epsilon <= 0 || st.Epsilon > 1 {
		return nil, fmt.Errorf("swfreq: bad state params n=%d eps=%v", st.N, st.Epsilon)
	}
	if len(st.Items) != len(st.Counters) {
		return nil, fmt.Errorf("swfreq: state items/counters length mismatch")
	}
	e := New(st.N, st.Epsilon)
	e.t = st.T
	e.seed = st.Seed
	for i, item := range st.Items {
		cs := st.Counters[i]
		if cs.N != e.n || cs.Snap.Gamma != e.gamma || cs.Sigma != 0 {
			return nil, fmt.Errorf("swfreq: state counter of item %d has window %d, block size %d, σ %d; want %d, %d, 0",
				item, cs.N, cs.Snap.Gamma, cs.Sigma, e.n, e.gamma)
		}
		c, err := sbbc.FromState(cs)
		if err != nil {
			return nil, err
		}
		if _, dup := e.ctr[item]; dup {
			return nil, fmt.Errorf("swfreq: state item %d duplicated", item)
		}
		e.ctr[item] = c
	}
	return e, nil
}
