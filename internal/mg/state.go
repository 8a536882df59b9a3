package mg

import (
	"fmt"

	"repro/internal/hist"
)

// State is the serializable form of a Summary.
type State struct {
	CapS    int
	M       int64
	Seed    int64
	Entries []hist.Entry
}

// State captures the summary for serialization.
func (g *Summary) State() State {
	return State{
		CapS:    g.capS,
		M:       g.m,
		Seed:    g.seed,
		Entries: append([]hist.Entry(nil), g.entries...),
	}
}

// FromState reconstructs a summary, validating invariants.
func FromState(st State) (*Summary, error) {
	if st.CapS < 1 {
		return nil, fmt.Errorf("mg: state capacity %d < 1", st.CapS)
	}
	if len(st.Entries) > st.CapS {
		return nil, fmt.Errorf("mg: state holds %d > S=%d entries", len(st.Entries), st.CapS)
	}
	if st.M < 0 {
		return nil, fmt.Errorf("mg: state stream length %d < 0", st.M)
	}
	g := NewWithCapacity(st.CapS)
	g.m = st.M
	g.seed = st.Seed
	g.entries = append([]hist.Entry(nil), st.Entries...)
	g.reindex()
	return g, nil
}
