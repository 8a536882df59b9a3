package streamagg

import "repro/internal/swfreq"

// SlidingFreqEstimator tracks approximate item frequencies over a
// count-based sliding window of the last n items. Estimates satisfy
// f_e - εn <= Estimate(e) <= f_e where f_e is the item's frequency in
// the window. It runs the paper's work-efficient algorithm (Theorem 5.4):
// at most ⌈8/ε⌉+1 counters, O(ε⁻¹ + µ) work per minibatch of µ items.
type SlidingFreqEstimator struct {
	gate
	impl *swfreq.Estimator
}

// NewSlidingFreqEstimator creates an estimator for window size n >= 1
// and error epsilon in (0, 1].
func NewSlidingFreqEstimator(n int64, epsilon float64) (*SlidingFreqEstimator, error) {
	a, err := New(KindSlidingFreq, WithWindow(n), WithEpsilon(epsilon))
	if err != nil {
		return nil, err
	}
	return a.(*SlidingFreqEstimator), nil
}

// Kind returns KindSlidingFreq.
func (s *SlidingFreqEstimator) Kind() Kind { return KindSlidingFreq }

// ProcessBatch ingests a minibatch of items. It never fails; the error
// is always nil (Aggregate interface).
func (s *SlidingFreqEstimator) ProcessBatch(items []uint64) error {
	s.ingest(len(items), func() { s.impl.ProcessBatch(items) })
	return nil
}

// Estimate returns the estimate of item's frequency within the window.
func (s *SlidingFreqEstimator) Estimate(item uint64) (est int64) {
	s.read(func() { est = s.impl.Estimate(item) })
	return est
}

// HeavyHitters returns items whose estimate reaches (phi-ε)·W, W being
// the current window length: all items with window frequency >= phi·W
// are included; none below (phi-2ε)·W can appear.
func (s *SlidingFreqEstimator) HeavyHitters(phi float64) (out []ItemCount) {
	s.read(func() {
		for _, item := range s.impl.HeavyHitters(phi) {
			out = append(out, ItemCount{Item: item, Count: s.impl.Estimate(item)})
		}
	})
	sortByCountDesc(out)
	return out
}

// TopK returns the k tracked items with the largest estimates within the
// window.
func (s *SlidingFreqEstimator) TopK(k int) (out []ItemCount) {
	s.read(func() {
		out = make([]ItemCount, 0, s.impl.NumCounters())
		for _, item := range s.impl.TrackedItemIDs() {
			if est := s.impl.Estimate(item); est > 0 {
				out = append(out, ItemCount{Item: item, Count: est})
			}
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

// WindowSize returns n.
func (s *SlidingFreqEstimator) WindowSize() (n int64) {
	s.read(func() { n = s.impl.N() })
	return n
}

// TrackedItems returns the number of live per-item counters, at most
// ⌈8/ε⌉+1.
func (s *SlidingFreqEstimator) TrackedItems() (n int) {
	s.read(func() { n = s.impl.NumCounters() })
	return n
}

// SpaceWords reports the memory footprint in 64-bit words.
func (s *SlidingFreqEstimator) SpaceWords() (w int) {
	s.read(func() { w = s.impl.SpaceWords() })
	return w
}
