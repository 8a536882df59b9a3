package mg

import "repro/internal/hist"

// Merge folds another summary into this one with the mergeable-summaries
// algorithm of [ACH+13] (the paper cites mergeability as the property the
// independent data-structure approach relies on; providing it here makes
// the shared-structure summary a drop-in for distributed aggregation
// too). The merged summary keeps capacity S = max of the two and
// preserves the combined guarantee f_e - (m1+m2)/S <= Estimate(e) <= f_e.
// The merge itself is MGaugment with the other summary's counters as the
// histogram: combining and pruning in O(S) work. o is only read.
func (g *Summary) Merge(o *Summary) {
	if o.capS > g.capS {
		g.capS = o.capS
	}
	g.AugmentHist(o.entries)
	g.m += o.m
}

// Clone returns a deep copy of the summary, rolling salt included, so a
// clone checkpoints to the same bytes as the original.
func (g *Summary) Clone() *Summary {
	c := NewWithCapacity(g.capS)
	c.entries = make([]hist.Entry, len(g.entries))
	copy(c.entries, g.entries)
	c.m = g.m
	c.seed = g.seed
	c.reindex()
	return c
}
