package streamagg

// Pipeline runs many aggregates over one discretized stream — the
// deployment shape the paper's model targets (and the one Spark-style
// systems use in production): a single sequence of minibatches fans out
// to every registered aggregate, queries are answered through one keyed
// surface, and the whole pipeline checkpoints atomically at a minibatch
// boundary.
//
// Ingestion follows the paper's recipe literally: buildHist once per
// minibatch (Theorem 2.3), then fold the histogram into each summary —
// MGaugment for the Misra-Gries estimator (Lemma 5.3), per-row adds for
// the sketches (Theorem 6.1). The pipeline builds that histogram itself
// and hands the same read-only slice to every member that can consume
// one (FreqEstimator, CountMin, CountMinRange, CountSketch); the
// order-dependent kinds (BasicCounter, WindowSum, SlidingFreqEstimator,
// Sharded) get the raw items. On a long minibatch the members run
// concurrently, one goroutine each, on the shared worker budget
// (SetParallelism / internal/parallel); a short one is not worth the
// hand-offs and runs member by member on the caller.
//
// Concurrency model. ProcessBatch calls are serialized with each other
// and with MarshalBinary (so a checkpoint always captures all aggregates
// at the same batch boundary), while queries interleave freely through
// each aggregate's reader-writer gate.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hist"
	"repro/internal/parallel"
)

// ErrNoSuchAggregate reports a query for a name with no registered
// aggregate.
var ErrNoSuchAggregate = errors.New("streamagg: no aggregate registered under that name")

// ErrUnsupportedQuery reports a query the named aggregate's kind cannot
// answer (e.g. HeavyHitters on a WindowSum).
var ErrUnsupportedQuery = errors.New("streamagg: aggregate does not support this query")

// histIngester is implemented by the kinds whose summary after a
// minibatch depends only on the batch's histogram, so a Pipeline can
// build it once for all of them. processHist ingests a minibatch of n
// items given as h, one entry per distinct item; h is shared between
// members and must only be read.
type histIngester interface {
	processHist(n int, h []hist.Entry)
}

var (
	_ histIngester = (*FreqEstimator)(nil)
	_ histIngester = (*CountMin)(nil)
	_ histIngester = (*CountMinRange)(nil)
	_ histIngester = (*CountSketch)(nil)
)

// member is one registered aggregate; hist is agg's histIngester side,
// nil for the kinds that need the raw items.
type member struct {
	name string
	agg  Aggregate
	hist histIngester
}

func newMember(name string, agg Aggregate) member {
	hi, _ := agg.(histIngester)
	return member{name: name, agg: agg, hist: hi}
}

// Pipeline fans each incoming minibatch out to a set of named
// aggregates and exposes a unified keyed query surface over them. The
// zero value is an empty pipeline ready for use (and for
// UnmarshalBinary).
type Pipeline struct {
	reg   sync.RWMutex // guards members/aggs (the registration table)
	batch sync.Mutex   // serializes ingestion and checkpointing
	// members is the registration table in registration order. It is
	// replaced, never modified in place, so a reader that loaded it under
	// reg may keep using it after unlocking.
	members   []member
	aggs      map[string]Aggregate
	streamLen atomic.Int64

	// The shared minibatch histogram's builder and its rolling table
	// salt, used under batch.
	hb       hist.Builder
	histSeed int64
}

// NewPipeline creates an empty pipeline.
func NewPipeline() *Pipeline { return &Pipeline{} }

// Register adds an existing aggregate under name. Names must be
// non-empty and unique within the pipeline.
func (p *Pipeline) Register(name string, agg Aggregate) error {
	if name == "" {
		return fmt.Errorf("%w: empty aggregate name", ErrBadParam)
	}
	if agg == nil {
		return fmt.Errorf("%w: nil aggregate %q", ErrBadParam, name)
	}
	p.reg.Lock()
	defer p.reg.Unlock()
	if _, dup := p.aggs[name]; dup {
		return fmt.Errorf("%w: aggregate %q already registered", ErrBadParam, name)
	}
	if p.aggs == nil {
		p.aggs = make(map[string]Aggregate)
	}
	p.aggs[name] = agg
	n := len(p.members)
	p.members = append(p.members[:n:n], newMember(name, agg))
	return nil
}

// Add constructs an aggregate with New(kind, opts...) and registers it
// under name, returning it for direct (typed) use.
func (p *Pipeline) Add(name string, kind Kind, opts ...Option) (Aggregate, error) {
	agg, err := New(kind, opts...)
	if err != nil {
		return nil, err
	}
	if err := p.Register(name, agg); err != nil {
		return nil, err
	}
	return agg, nil
}

// Get returns the aggregate registered under name.
func (p *Pipeline) Get(name string) (Aggregate, bool) {
	p.reg.RLock()
	defer p.reg.RUnlock()
	agg, ok := p.aggs[name]
	return agg, ok
}

// Names returns the registered names in registration order.
func (p *Pipeline) Names() []string {
	ms := p.snapshot()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.name
	}
	return out
}

// Len returns the number of registered aggregates.
func (p *Pipeline) Len() int { return len(p.snapshot()) }

// snapshot returns the registration table as of now; the slice is
// immutable, so callers iterate it without holding the table lock.
func (p *Pipeline) snapshot() []member {
	p.reg.RLock()
	defer p.reg.RUnlock()
	return p.members
}

// ProcessBatch fans the minibatch out to every registered aggregate and
// returns once all of them have absorbed it. The minibatch's histogram
// is built once, here, for the members that ingest histograms; the
// others receive the raw items. Per-aggregate failures
// (only WindowSum can fail, on an out-of-bound value) are joined into
// one error, tagged with the aggregate's name; failed aggregates ingest
// nothing while the others proceed.
func (p *Pipeline) ProcessBatch(items []uint64) error {
	p.batch.Lock()
	defer p.batch.Unlock()
	ms := p.snapshot()
	var h []hist.Entry
	for _, m := range ms {
		if m.hist != nil {
			p.histSeed++
			h = p.hb.Build(items, p.histSeed)
			break
		}
	}
	var (
		errMu sync.Mutex
		errs  []error // allocated on the first failure, indexed like ms
	)
	ingest := func(i int) {
		m := ms[i]
		if m.hist != nil {
			m.hist.processHist(len(items), h)
			return
		}
		if err := m.agg.ProcessBatch(items); err != nil {
			errMu.Lock()
			if errs == nil {
				errs = make([]error, len(ms))
			}
			errs[i] = fmt.Errorf("%s: %w", m.name, err)
			errMu.Unlock()
		}
	}
	// Members get goroutines of their own only for a long minibatch.
	// Handing a short one to other Ps costs wake-ups and takes those Ps
	// from whoever else is running (the request handlers feeding the
	// Ingestor in front of this pipeline) to shorten a flush nobody is
	// waiting on: an Ingestor's batches outgrow its flush threshold only
	// once the sink is the bottleneck. The caller's goroutine takes the
	// last member either way.
	var wg sync.WaitGroup
	for i := range ms {
		if i == len(ms)-1 || len(items) < parallel.MinFork {
			ingest(i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ingest(i)
		}(i)
	}
	wg.Wait()
	p.streamLen.Add(int64(len(items)))
	return errors.Join(errs...)
}

// StreamLen reports the number of items fanned out so far.
func (p *Pipeline) StreamLen() int64 { return p.streamLen.Load() }

// SpaceWords reports the summed memory footprint of all registered
// aggregates in 64-bit words.
func (p *Pipeline) SpaceWords() int {
	total := 0
	for _, m := range p.snapshot() {
		total += m.agg.SpaceWords()
	}
	return total
}

// lookup resolves name to its aggregate or ErrNoSuchAggregate.
func (p *Pipeline) lookup(name string) (Aggregate, error) {
	agg, ok := p.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchAggregate, name)
	}
	return agg, nil
}

func unsupported(name string, agg Aggregate, query string) error {
	return fmt.Errorf("%w: %s on %q (%s)", ErrUnsupportedQuery, query, name, agg.Kind())
}

// Estimate returns the named aggregate's per-item frequency estimate
// (FreqEstimator, SlidingFreqEstimator, CountMin, CountSketch).
func (p *Pipeline) Estimate(name string, item uint64) (int64, error) {
	agg, err := p.lookup(name)
	if err != nil {
		return 0, err
	}
	pe, ok := agg.(PointEstimator)
	if !ok {
		return 0, unsupported(name, agg, "Estimate")
	}
	return pe.Estimate(item), nil
}

// Value returns the named aggregate's scalar window estimate
// (BasicCounter, WindowSum). For aggregates without a window estimate
// that track the total ingested weight exactly (CountMin,
// CountMinRange), it falls back to TotalCount — which is what lets a
// federated root, built entirely from mergeable kinds, answer the value
// verb too.
func (p *Pipeline) Value(name string) (int64, error) {
	agg, err := p.lookup(name)
	if err != nil {
		return 0, err
	}
	if se, ok := agg.(ScalarEstimator); ok {
		return se.Estimate(), nil
	}
	if tc, ok := agg.(TotalCounter); ok {
		return tc.TotalCount(), nil
	}
	return 0, unsupported(name, agg, "Value")
}

// HeavyHitters returns the named aggregate's items above phi
// (FreqEstimator, SlidingFreqEstimator).
func (p *Pipeline) HeavyHitters(name string, phi float64) ([]ItemCount, error) {
	agg, err := p.lookup(name)
	if err != nil {
		return nil, err
	}
	hh, ok := agg.(HeavyHitterSource)
	if !ok {
		return nil, unsupported(name, agg, "HeavyHitters")
	}
	return hh.HeavyHitters(phi), nil
}

// TopK returns the named aggregate's k largest tracked items
// (FreqEstimator, SlidingFreqEstimator).
func (p *Pipeline) TopK(name string, k int) ([]ItemCount, error) {
	agg, err := p.lookup(name)
	if err != nil {
		return nil, err
	}
	hh, ok := agg.(HeavyHitterSource)
	if !ok {
		return nil, unsupported(name, agg, "TopK")
	}
	return hh.TopK(k), nil
}

// RangeCount returns the named aggregate's estimate for [lo, hi]
// (CountMinRange).
func (p *Pipeline) RangeCount(name string, lo, hi uint64) (int64, error) {
	agg, err := p.lookup(name)
	if err != nil {
		return 0, err
	}
	re, ok := agg.(RangeEstimator)
	if !ok {
		return 0, unsupported(name, agg, "RangeCount")
	}
	return re.RangeCount(lo, hi), nil
}

// Quantile returns the named aggregate's approximate q-quantile
// (CountMinRange).
func (p *Pipeline) Quantile(name string, q float64) (uint64, error) {
	agg, err := p.lookup(name)
	if err != nil {
		return 0, err
	}
	re, ok := agg.(RangeEstimator)
	if !ok {
		return 0, unsupported(name, agg, "Quantile")
	}
	return re.Quantile(q), nil
}

// Merge folds another pipeline into p — the cluster-level mergeable-
// summaries operation behind the federation subsystem: an edge node
// ships its pipeline checkpoint, the root absorbs it here. Aggregates
// are matched by name; every matched pair must agree on kind and the
// receiver's member must implement Merger (with compatible parameters),
// so after the merge each matched member summarizes the concatenation
// of both streams with the bounds documented on Merger. Names present
// in only one pipeline are left untouched — a root may serve a superset
// of what its edges push, and vice versa.
//
// Merge is atomic: every pair is checked first, and p is modified only
// if all of them pass. An empty intersection, a kind mismatch, a
// non-mergeable common kind, or incompatible parameters all return an
// error wrapping ErrIncompatibleMerge and leave p unchanged. Merging
// serializes with ProcessBatch and MarshalBinary, so it lands at a clean
// minibatch boundary; the argument is only read, in place, under its
// members' query gates. Concurrent mutual merges (a.Merge(b) while
// b.Merge(a)) are not supported.
func (p *Pipeline) Merge(other *Pipeline) error {
	if other == nil {
		return fmt.Errorf("%w: nil pipeline", ErrBadParam)
	}
	if other == p {
		return fmt.Errorf("%w: pipeline merged with itself", ErrIncompatibleMerge)
	}
	p.batch.Lock()
	defer p.batch.Unlock()
	type pair struct {
		name     string
		dst, src Aggregate
	}
	var pairs []pair
	for _, m := range p.snapshot() {
		name, dst := m.name, m.agg
		src, ok := other.Get(name)
		if !ok {
			continue
		}
		if dst.Kind() != src.Kind() {
			return fmt.Errorf("%w: aggregate %q is %s here but %s in the merged pipeline",
				ErrIncompatibleMerge, name, dst.Kind(), src.Kind())
		}
		// The check is the same one each kind's merge makes, so a clean
		// pass over every pair guarantees the merges below cannot fail
		// half-way and leave p partially merged.
		if err := foldInto(dst, src, foldCheck); err != nil {
			return fmt.Errorf("streamagg: merging aggregate %q: %w", name, err)
		}
		pairs = append(pairs, pair{name, dst, src})
	}
	if len(pairs) == 0 {
		return fmt.Errorf("%w: pipelines share no aggregate names", ErrIncompatibleMerge)
	}
	for _, pr := range pairs {
		if err := foldInto(pr.dst, pr.src, foldMerge); err != nil {
			return fmt.Errorf("streamagg: merging aggregate %q: %w", pr.name, err)
		}
	}
	p.streamLen.Add(other.StreamLen())
	return nil
}

// Clone returns a deep copy of the pipeline at the current minibatch
// boundary: same names, kinds, and state, sharing nothing with p. Each
// member is copied with cloneAggregate under the ingest lock, so the
// copy and its StreamLen are of one batch boundary and checkpoint to the
// same bytes as p. The federation root builds its merged serving view
// from one.
func (p *Pipeline) Clone() (*Pipeline, error) {
	p.batch.Lock()
	defer p.batch.Unlock()
	ms := p.snapshot()
	out := &Pipeline{aggs: make(map[string]Aggregate, len(ms)), members: make([]member, 0, len(ms))}
	for _, m := range ms {
		c, err := cloneAggregate(m.agg)
		if err != nil {
			return nil, fmt.Errorf("streamagg: cloning pipeline aggregate %q: %w", m.name, err)
		}
		out.aggs[m.name] = c
		out.members = append(out.members, newMember(m.name, c))
	}
	out.streamLen.Store(p.streamLen.Load())
	return out, nil
}

// cloneAggregate deep-copies any aggregate: the mergeable kinds through
// their cheap typed clones, everything else through a checkpoint round
// trip.
func cloneAggregate(agg Aggregate) (Aggregate, error) {
	if c, ok := cloneMergeable(agg); ok {
		return c, nil
	}
	data, err := agg.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out, err := zeroAggregate(agg.Kind())
	if err != nil {
		return nil, err
	}
	if err := out.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return out, nil
}

// kindPipeline tags whole-pipeline checkpoints.
const kindPipeline Kind = "pipeline"

// MarshalBinary checkpoints the entire pipeline atomically: it waits for
// the in-flight minibatch (if any) to finish, then captures every
// aggregate at the same batch boundary in one frame whose body lists the
// members in registration order, each with its own frame inline.
func (p *Pipeline) MarshalBinary() ([]byte, error) {
	p.batch.Lock()
	defer p.batch.Unlock()
	ms := p.snapshot()
	return appendFrame(nil, kindPipeline, p.streamLen.Load(), func(dst []byte) ([]byte, error) {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ms)))
		for _, m := range ms {
			var err error
			if dst, err = appendMember(dst, m.name, m.agg); err != nil {
				return nil, fmt.Errorf("checkpointing pipeline aggregate %q: %w", m.name, err)
			}
		}
		return dst, nil
	})
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary,
// rebuilding every registered aggregate (the receiver's previous
// registrations, if any, are replaced). It is valid on a zero-value
// Pipeline.
func (p *Pipeline) UnmarshalBinary(data []byte) error {
	ms, streamLen, err := openMembers(kindPipeline, data)
	if err != nil {
		return err
	}
	aggs := make(map[string]Aggregate, len(ms))
	members := make([]member, 0, len(ms))
	for _, m := range ms {
		agg, err := zeroAggregate(m.kind)
		if err != nil {
			return fmt.Errorf("streamagg: restoring pipeline aggregate %q: %w", m.name, err)
		}
		if err := agg.UnmarshalBinary(m.ckpt); err != nil {
			return fmt.Errorf("streamagg: restoring pipeline aggregate %q: %w", m.name, err)
		}
		if _, dup := aggs[m.name]; dup {
			return fmt.Errorf("%w: pipeline checkpoint repeats name %q", ErrBadParam, m.name)
		}
		aggs[m.name] = agg
		members = append(members, newMember(m.name, agg))
	}
	p.batch.Lock()
	defer p.batch.Unlock()
	p.reg.Lock()
	defer p.reg.Unlock()
	p.aggs = aggs
	p.members = members
	p.streamLen.Store(streamLen)
	return nil
}

// zeroAggregate returns an empty aggregate of the given kind, ready for
// UnmarshalBinary.
func zeroAggregate(kind Kind) (Aggregate, error) {
	switch kind {
	case KindBasicCounter:
		return &BasicCounter{}, nil
	case KindWindowSum:
		return &WindowSum{}, nil
	case KindFreq:
		return &FreqEstimator{}, nil
	case KindSlidingFreq:
		return &SlidingFreqEstimator{}, nil
	case KindCountMin:
		return &CountMin{}, nil
	case KindCountMinRange:
		return &CountMinRange{}, nil
	case KindCountSketch:
		return &CountSketch{}, nil
	case KindSharded:
		return &Sharded{}, nil
	}
	return nil, fmt.Errorf("%w: unknown aggregate kind %q", ErrBadParam, kind)
}
