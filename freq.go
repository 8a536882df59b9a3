package streamagg

import (
	"fmt"
	"sort"

	"repro/internal/hist"
	"repro/internal/mg"
)

// ItemCount pairs an item with a frequency estimate.
type ItemCount struct {
	Item  uint64
	Count int64
}

// FreqEstimator tracks approximate item frequencies over the entire
// stream (infinite window) with the parallel Misra-Gries summary
// (Theorem 5.2): O(1/ε) space, O(ε⁻¹ + µ) work per minibatch of size µ,
// polylog depth. Estimates satisfy f_e - εm <= Estimate(e) <= f_e where m
// is the stream length so far.
type FreqEstimator struct {
	gate
	impl *mg.Summary
}

// NewFreqEstimator creates an estimator with error parameter epsilon in
// (0, 1].
func NewFreqEstimator(epsilon float64) (*FreqEstimator, error) {
	a, err := New(KindFreq, WithEpsilon(epsilon))
	if err != nil {
		return nil, err
	}
	return a.(*FreqEstimator), nil
}

// Kind returns KindFreq.
func (f *FreqEstimator) Kind() Kind { return KindFreq }

// ProcessBatch ingests a minibatch of items. It never fails; the error
// is always nil (Aggregate interface).
func (f *FreqEstimator) ProcessBatch(items []uint64) error {
	f.ingest(len(items), func() { f.impl.ProcessBatch(items) })
	return nil
}

// processHist ingests a minibatch of n items given as its histogram
// (histIngester).
func (f *FreqEstimator) processHist(n int, h []hist.Entry) {
	f.ingest(n, func() { f.impl.AddHistogram(h) })
}

// Estimate returns the frequency estimate for item:
// f_e - εm <= Estimate(item) <= f_e.
func (f *FreqEstimator) Estimate(item uint64) (est int64) {
	f.read(func() { est = f.impl.Estimate(item) })
	return est
}

// HeavyHitters returns all items whose estimated frequency reaches
// (phi-ε)·m: every item with true frequency >= phi·m is included, and no
// item with true frequency < (phi-2ε)·m can appear.
func (f *FreqEstimator) HeavyHitters(phi float64) (out []ItemCount) {
	f.read(func() {
		for _, item := range f.impl.HeavyHitters(phi) {
			out = append(out, ItemCount{Item: item, Count: f.impl.Estimate(item)})
		}
	})
	sortByCountDesc(out)
	return out
}

// TopK returns the k tracked items with the largest estimates.
func (f *FreqEstimator) TopK(k int) (out []ItemCount) {
	f.read(func() {
		entries := f.impl.Entries()
		out = make([]ItemCount, 0, len(entries))
		for _, e := range entries {
			out = append(out, ItemCount{Item: e.Item, Count: e.Freq})
		}
	})
	sortByCountDesc(out)
	if k < 0 {
		k = 0
	}
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// SpaceWords reports the memory footprint in 64-bit words.
func (f *FreqEstimator) SpaceWords() (w int) {
	f.read(func() { w = f.impl.SpaceWords() })
	return w
}

// Merge folds another FreqEstimator with the same epsilon (summary
// capacity) into f with the Misra-Gries merge of [ACH+13] (Merger
// interface), preserving f_e - ε(m_f+m_o) <= Estimate(e) <= f_e. A
// capacity mismatch is rejected: merging in a coarser summary would
// silently import its larger undercount and break f's advertised bound.
func (f *FreqEstimator) Merge(other Aggregate) error { return f.fold(other, foldMerge) }

func (f *FreqEstimator) fold(other Aggregate, op foldOp) error {
	o, err := mergeArg(f, other)
	if err != nil {
		return err
	}
	if op == foldSubtract {
		return fmt.Errorf("%w: a Misra-Gries summary cannot subtract", ErrIncompatibleMerge)
	}
	return f.lockPair(&o.gate, op, func() error {
		if f.impl.Capacity() != o.impl.Capacity() {
			return fmt.Errorf("%w: summary capacity mismatch (%d vs %d)",
				ErrIncompatibleMerge, f.impl.Capacity(), o.impl.Capacity())
		}
		if op == foldMerge {
			f.impl.Merge(o.impl)
		}
		return nil
	})
}

func sortByCountDesc(xs []ItemCount) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].Count != xs[j].Count {
			return xs[i].Count > xs[j].Count
		}
		return xs[i].Item < xs[j].Item
	})
}
