package streamagg

import (
	"repro/internal/cms"
	"repro/internal/hist"
)

// CountSketch is the Count-Sketch of [CCFC02] (cited by the paper as the
// other standard frequency sketch), ingested with the same parallel
// minibatch scheme as CountMin. Unlike CountMin it is unbiased and
// supports deletions (turnstile updates); point queries satisfy
// |Query(e) - f_e| <= ε·‖f‖₂ with probability at least 1-δ.
type CountSketch struct {
	gate
	impl *cms.CountSketch
}

// NewCountSketch creates a sketch with error epsilon in (0, 1] (relative
// to the L2 norm of the frequency vector) and failure probability delta
// in (0, 1).
func NewCountSketch(epsilon, delta float64, seed int64) (*CountSketch, error) {
	a, err := New(KindCountSketch, WithEpsilon(epsilon), WithDelta(delta), WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return a.(*CountSketch), nil
}

// Kind returns KindCountSketch.
func (c *CountSketch) Kind() Kind { return KindCountSketch }

// ProcessBatch ingests a minibatch of items in parallel. It never fails;
// the error is always nil (Aggregate interface).
func (c *CountSketch) ProcessBatch(items []uint64) error {
	c.ingest(len(items), func() { c.impl.ProcessBatch(items) })
	return nil
}

// processHist ingests a minibatch of n items given as its histogram
// (histIngester).
func (c *CountSketch) processHist(n int, h []hist.Entry) {
	c.ingest(n, func() { c.impl.AddHistogram(h) })
}

// Update adds count occurrences of item; count may be negative
// (turnstile deletions). It does not advance StreamLen.
func (c *CountSketch) Update(item uint64, count int64) {
	c.ingest(0, func() { c.impl.Update(item, count) })
}

// Query returns the unbiased median-of-rows estimate for item.
func (c *CountSketch) Query(item uint64) (est int64) {
	c.read(func() { est = c.impl.Query(item) })
	return est
}

// Estimate is Query under the name the PointEstimator interface (and the
// Pipeline query surface) uses.
func (c *CountSketch) Estimate(item uint64) int64 { return c.Query(item) }

// TotalCount returns the net ingested weight.
func (c *CountSketch) TotalCount() (m int64) {
	c.read(func() { m = c.impl.TotalCount() })
	return m
}

// Dims returns the sketch dimensions (d rows × w columns).
func (c *CountSketch) Dims() (d, w int) {
	c.read(func() { d, w = c.impl.Depth(), c.impl.Width() })
	return d, w
}

// SpaceWords reports the memory footprint in 64-bit words.
func (c *CountSketch) SpaceWords() (w int) {
	c.read(func() { w = c.impl.SpaceWords() })
	return w
}

// Merge folds another CountSketch with equal dimensions and seed into c
// cell-wise (Merger interface): count-sketch is a linear sketch, so the
// merged state is exactly the sketch of the concatenated streams, with
// error bounded by ε(‖f_a‖₂+‖f_b‖₂).
func (c *CountSketch) Merge(other Aggregate) error { return c.fold(other, foldMerge) }

func (c *CountSketch) fold(other Aggregate, op foldOp) error {
	o, err := mergeArg(c, other)
	if err != nil {
		return err
	}
	return c.lockPair(&o.gate, op, func() error { return foldLinear(op, c.impl, o.impl) })
}
