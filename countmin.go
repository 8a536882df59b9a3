package streamagg

import (
	"repro/internal/cms"
	"repro/internal/hist"
)

// CountMin is the parallel count-min sketch (Theorem 6.1): point queries
// satisfy f_e <= Query(e) <= f_e + εm with probability at least 1-δ, in
// O(ε⁻¹ log(1/δ)) space. Minibatch ingestion costs
// O(log(1/δ)·max(µ, 1/ε)) work with polylog depth.
type CountMin struct {
	gate
	impl *cms.Sketch
}

// NewCountMin creates a sketch with error epsilon in (0, 1] and failure
// probability delta in (0, 1). The seed selects the hash functions; two
// sketches with equal parameters and seed are mergeable cell-wise.
func NewCountMin(epsilon, delta float64, seed int64) (*CountMin, error) {
	a, err := New(KindCountMin, WithEpsilon(epsilon), WithDelta(delta), WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return a.(*CountMin), nil
}

// Kind returns KindCountMin.
func (c *CountMin) Kind() Kind { return KindCountMin }

// ProcessBatch ingests a minibatch of items with the parallel algorithm.
// It never fails; the error is always nil (Aggregate interface).
func (c *CountMin) ProcessBatch(items []uint64) error {
	c.ingest(len(items), func() { c.impl.ProcessBatch(items) })
	return nil
}

// processHist ingests a minibatch of n items given as its histogram
// (histIngester).
func (c *CountMin) processHist(n int, h []hist.Entry) {
	c.ingest(n, func() { c.impl.AddHistogram(h) })
}

// Update adds count occurrences of item (sequential path; count may be
// any non-negative weight). It does not advance StreamLen.
func (c *CountMin) Update(item uint64, count int64) {
	c.ingest(0, func() { c.impl.Update(item, count) })
}

// Query returns the point estimate for item.
func (c *CountMin) Query(item uint64) (est int64) {
	c.read(func() { est = c.impl.Query(item) })
	return est
}

// Estimate is Query under the name the PointEstimator interface (and the
// Pipeline query surface) uses.
func (c *CountMin) Estimate(item uint64) int64 { return c.Query(item) }

// TotalCount returns m, the total ingested weight.
func (c *CountMin) TotalCount() (m int64) {
	c.read(func() { m = c.impl.TotalCount() })
	return m
}

// Dims returns the sketch dimensions (d rows × w columns).
func (c *CountMin) Dims() (d, w int) {
	c.read(func() { d, w = c.impl.Depth(), c.impl.Width() })
	return d, w
}

// SpaceWords reports the memory footprint in 64-bit words.
func (c *CountMin) SpaceWords() (w int) {
	c.read(func() { w = c.impl.SpaceWords() })
	return w
}

// Merge folds another CountMin with equal dimensions and seed into c
// cell-wise (Merger interface): afterwards c summarizes both streams
// with the εm guarantee at the combined m. The other sketch is read
// under its query gate and left unchanged.
func (c *CountMin) Merge(other Aggregate) error { return c.fold(other, foldMerge) }

func (c *CountMin) fold(other Aggregate, op foldOp) error {
	o, err := mergeArg(c, other)
	if err != nil {
		return err
	}
	return c.lockPair(&o.gate, op, func() error { return foldLinear(op, c.impl, o.impl) })
}

// CountMinRange is a dyadic stack of count-min sketches supporting range
// counts and approximate quantiles over a bounded integer universe — the
// standard CM-sketch applications the paper cites.
type CountMinRange struct {
	gate
	impl *cms.RangeSketch
}

// NewCountMinRange creates a range sketch over the universe [0, 2^bits)
// (1 <= bits <= 63) with per-level error epsilon and failure probability
// delta.
func NewCountMinRange(bits int, epsilon, delta float64, seed int64) (*CountMinRange, error) {
	a, err := New(KindCountMinRange,
		WithUniverseBits(bits), WithEpsilon(epsilon), WithDelta(delta), WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return a.(*CountMinRange), nil
}

// Kind returns KindCountMinRange.
func (c *CountMinRange) Kind() Kind { return KindCountMinRange }

// ProcessBatch ingests a minibatch of items (each < 2^bits). It never
// fails; the error is always nil (Aggregate interface).
func (c *CountMinRange) ProcessBatch(items []uint64) error {
	c.ingest(len(items), func() { c.impl.ProcessBatch(items) })
	return nil
}

// processHist ingests a minibatch of n items given as its histogram
// (histIngester).
func (c *CountMinRange) processHist(n int, h []hist.Entry) {
	c.ingest(n, func() { c.impl.AddHistogram(h) })
}

// RangeCount estimates the number of items in [lo, hi] (inclusive); it
// never undercounts.
func (c *CountMinRange) RangeCount(lo, hi uint64) (est int64) {
	c.read(func() { est = c.impl.RangeCount(lo, hi) })
	return est
}

// Quantile returns an approximate q-quantile of the ingested values.
func (c *CountMinRange) Quantile(q float64) (v uint64) {
	c.read(func() { v = c.impl.Quantile(q) })
	return v
}

// TotalCount returns the total ingested weight.
func (c *CountMinRange) TotalCount() (m int64) {
	c.read(func() { m = c.impl.TotalCount() })
	return m
}

// SpaceWords reports the memory footprint in 64-bit words.
func (c *CountMinRange) SpaceWords() (w int) {
	c.read(func() { w = c.impl.SpaceWords() })
	return w
}

// Merge folds another CountMinRange with equal universe, dimensions and
// seed into c level-wise (Merger interface).
func (c *CountMinRange) Merge(other Aggregate) error { return c.fold(other, foldMerge) }

func (c *CountMinRange) fold(other Aggregate, op foldOp) error {
	o, err := mergeArg(c, other)
	if err != nil {
		return err
	}
	return c.lockPair(&o.gate, op, func() error { return foldLinear(op, c.impl, o.impl) })
}
