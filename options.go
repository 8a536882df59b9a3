package streamagg

// Functional-options construction. New(kind, opts...) is the single
// entry point behind which all parameter validation lives; the legacy
// positional constructors (NewFreqEstimator, NewCountMin, ...) are kept
// as thin wrappers over it. Every validation failure wraps ErrBadParam:
// out-of-range values are rejected by the option itself, options that do
// not apply to the requested kind and missing required options are
// rejected by New.

import (
	"fmt"
	"time"

	"repro/internal/bcount"
	"repro/internal/cms"
	"repro/internal/mg"
	"repro/internal/swfreq"
	"repro/internal/wsum"
	"repro/metrics"
	"repro/persist"
	"repro/trace"
)

// config accumulates option values; set tracks which options appeared so
// New can enforce per-kind applicability and requirements.
type config struct {
	window   int64
	epsilon  float64
	delta    float64
	maxValue uint64
	bits     int
	seed     int64
	shards   int

	// Ingestor (serving-layer) knobs; rejected by New, consumed by
	// NewIngestor.
	batchSize    int
	maxLatency   time.Duration
	queueCap     int
	backpressure Backpressure

	// Durability (persist subsystem) knobs, also Ingestor-only.
	dataDir       string
	fsync         persist.Fsync
	snapshotEvery int

	// Observability: the registry the Ingestor (and its persist store)
	// publishes instruments to; nil means a private registry. The tracer
	// records the batch lifecycle as spans; nil disables tracing. The
	// clock is a test seam for the latency-deadline path.
	metricsReg *metrics.Registry
	tracer     *trace.Tracer
	clock      func() time.Time

	set map[string]bool
}

func (c *config) mark(name string) {
	if c.set == nil {
		c.set = make(map[string]bool)
	}
	c.set[name] = true
}

// Option configures New. Options validate their own value ranges.
type Option func(*config) error

// WithWindow sets the sliding-window size n >= 1 (BasicCounter,
// WindowSum, SlidingFreq; required for all three).
func WithWindow(n int64) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("%w: window size %d (want >= 1)", ErrBadParam, n)
		}
		c.window = n
		c.mark("WithWindow")
		return nil
	}
}

// WithEpsilon sets the error parameter in (0, 1] (all kinds;
// default 0.01).
func WithEpsilon(epsilon float64) Option {
	return func(c *config) error {
		if epsilon <= 0 || epsilon > 1 {
			return fmt.Errorf("%w: epsilon %v (want in (0, 1])", ErrBadParam, epsilon)
		}
		c.epsilon = epsilon
		c.mark("WithEpsilon")
		return nil
	}
}

// WithDelta sets the failure probability in (0, 1) (CountMin,
// CountMinRange, CountSketch; default 0.01).
func WithDelta(delta float64) Option {
	return func(c *config) error {
		if delta <= 0 || delta >= 1 {
			return fmt.Errorf("%w: delta %v (want in (0, 1))", ErrBadParam, delta)
		}
		c.delta = delta
		c.mark("WithDelta")
		return nil
	}
}

// WithMaxValue sets the per-value bound R (WindowSum; required).
func WithMaxValue(r uint64) Option {
	return func(c *config) error {
		c.maxValue = r
		c.mark("WithMaxValue")
		return nil
	}
}

// WithUniverseBits sets the item universe to [0, 2^bits), 1 <= bits <= 63
// (CountMinRange; required).
func WithUniverseBits(bits int) Option {
	return func(c *config) error {
		if bits < 1 || bits > 63 {
			return fmt.Errorf("%w: universe bits %d (want in [1, 63])", ErrBadParam, bits)
		}
		c.bits = bits
		c.mark("WithUniverseBits")
		return nil
	}
}

// WithSeed selects the hash functions (CountMin, CountMinRange,
// CountSketch; default 1). Two sketches with equal parameters and seed
// are mergeable cell-wise.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		c.mark("WithSeed")
		return nil
	}
}

// WithShards hash-partitions the aggregate's keyspace across s
// independent shard instances (1 <= s <= 4096), ingested concurrently
// and queried through the Sharded wrapper. Applies to the mergeable,
// infinite-window kinds only: KindFreq, KindCountMin, KindCountSketch,
// KindCountMinRange. New (and Pipeline.Add) then return a *Sharded.
func WithShards(s int) Option {
	return func(c *config) error {
		if s < 1 || s > maxShards {
			return fmt.Errorf("%w: shard count %d (want in [1, %d])", ErrBadParam, s, maxShards)
		}
		c.shards = s
		c.mark("WithShards")
		return nil
	}
}

// WithBatchSize sets the Ingestor's flush threshold: queued items are
// flushed into the sink as one minibatch once at least n >= 1 are
// buffered (default 8192). Larger batches amortize per-batch parallel
// overhead (the paper's work-efficiency argument); smaller ones bound
// staleness. Ingestor only.
func WithBatchSize(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("%w: batch size %d (want >= 1)", ErrBadParam, n)
		}
		c.batchSize = n
		c.mark("WithBatchSize")
		return nil
	}
}

// WithMaxLatency bounds how long a queued item may wait before the
// Ingestor flushes a partial minibatch (default 5ms). Zero flushes as
// fast as the worker can turn around. Ingestor only.
func WithMaxLatency(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("%w: max latency %v (want >= 0)", ErrBadParam, d)
		}
		c.maxLatency = d
		c.mark("WithMaxLatency")
		return nil
	}
}

// WithQueueCap bounds the Ingestor's accepted-but-unapplied items —
// the resting queue plus any batch in flight at the sink (default 4x
// the batch size; must be at least the batch size, and should exceed it
// so producers can keep filling while the sink processes). A full queue
// engages the backpressure policy. Ingestor only.
func WithQueueCap(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("%w: queue capacity %d (want >= 1)", ErrBadParam, n)
		}
		c.queueCap = n
		c.mark("WithQueueCap")
		return nil
	}
}

// WithDataDir makes the Ingestor durable: every flushed minibatch is
// appended to a write-ahead log in dir before it is applied, background
// snapshots bound the log, and NewIngestor recovers the sink's state
// (newest valid snapshot + WAL tail replay) from dir on startup. The
// sink must support checkpointing (encoding.BinaryMarshaler and
// BinaryUnmarshaler — every Aggregate and *Pipeline does). Ingestor
// only.
func WithDataDir(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return fmt.Errorf("%w: empty data directory", ErrBadParam)
		}
		c.dataDir = dir
		c.mark("WithDataDir")
		return nil
	}
}

// WithFsync selects when WAL appends reach stable storage (default
// persist.FsyncAlways: an applied minibatch is durable before its
// effects are queryable). Requires WithDataDir. Ingestor only.
func WithFsync(p persist.Fsync) Option {
	return func(c *config) error {
		if p != persist.FsyncAlways && p != persist.FsyncInterval && p != persist.FsyncNever {
			return fmt.Errorf("%w: fsync policy %d", ErrBadParam, int(p))
		}
		c.fsync = p
		c.mark("WithFsync")
		return nil
	}
}

// WithSnapshotEvery triggers a background snapshot once n >= 1
// minibatches have been logged since the last one (default 4096; a byte
// threshold applies as well), after which the WAL behind the snapshot is
// reclaimed. Smaller values bound recovery time and disk use, larger
// ones reduce snapshot overhead. Requires WithDataDir. Ingestor only.
func WithSnapshotEvery(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("%w: snapshot interval %d batches (want >= 1)", ErrBadParam, n)
		}
		c.snapshotEvery = n
		c.mark("WithSnapshotEvery")
		return nil
	}
}

// WithMetricsRegistry publishes the Ingestor's observability
// instruments (enqueue/flush counters, batch-size and latency
// histograms, queue-depth gauge — plus the persist subsystem's WAL and
// snapshot instruments when WithDataDir is set) to reg instead of a
// private registry, so one registry can expose every layer at a single
// /metrics endpoint. Instruments are identified by name: use at most
// one Ingestor per registry. Ingestor only.
func WithMetricsRegistry(reg *metrics.Registry) Option {
	return func(c *config) error {
		if reg == nil {
			return fmt.Errorf("%w: nil metrics registry", ErrBadParam)
		}
		c.metricsReg = reg
		c.mark("WithMetricsRegistry")
		return nil
	}
}

// WithTracer wires distributed tracing into the Ingestor: a sampled
// batch's lifecycle is recorded as spans — flush, WAL append, sink
// apply — parented onto the trace context the producer handed to
// PutBatchSpan, so one trace follows an item across the async queue
// boundary. A nil-free tracer with sampling rate 0 (or omitting the
// option) keeps the ingest path allocation-free. Ingestor only.
func WithTracer(tr *trace.Tracer) Option {
	return func(c *config) error {
		if tr == nil {
			return fmt.Errorf("%w: nil tracer", ErrBadParam)
		}
		c.tracer = tr
		c.mark("WithTracer")
		return nil
	}
}

// withClock injects the Ingestor's time source, so tests can drive the
// latency-deadline path deterministically instead of racing the real
// clock. Unexported: production code always uses time.Now.
func withClock(now func() time.Time) Option {
	return func(c *config) error {
		if now == nil {
			return fmt.Errorf("%w: nil clock", ErrBadParam)
		}
		c.clock = now
		c.mark("withClock")
		return nil
	}
}

// WithBackpressure selects what the Ingestor does when its queue is full
// (default BackpressureBlock). Ingestor only.
func WithBackpressure(p Backpressure) Option {
	return func(c *config) error {
		if p != BackpressureBlock && p != BackpressureReject && p != BackpressureDrop {
			return fmt.Errorf("%w: backpressure policy %d", ErrBadParam, int(p))
		}
		c.backpressure = p
		c.mark("WithBackpressure")
		return nil
	}
}

// kindUsage drives the centralized applicability/requirement checks.
var kindUsage = map[Kind]struct {
	allowed  map[string]bool
	required []string
}{
	KindBasicCounter: {
		allowed:  map[string]bool{"WithWindow": true, "WithEpsilon": true},
		required: []string{"WithWindow"},
	},
	KindWindowSum: {
		allowed:  map[string]bool{"WithWindow": true, "WithEpsilon": true, "WithMaxValue": true},
		required: []string{"WithWindow", "WithMaxValue"},
	},
	KindFreq: {
		allowed: map[string]bool{"WithEpsilon": true, "WithShards": true},
	},
	KindSlidingFreq: {
		allowed:  map[string]bool{"WithWindow": true, "WithEpsilon": true},
		required: []string{"WithWindow"},
	},
	KindCountMin: {
		allowed: map[string]bool{"WithEpsilon": true, "WithDelta": true, "WithSeed": true, "WithShards": true},
	},
	KindCountMinRange: {
		allowed:  map[string]bool{"WithEpsilon": true, "WithDelta": true, "WithSeed": true, "WithUniverseBits": true, "WithShards": true},
		required: []string{"WithUniverseBits"},
	},
	KindCountSketch: {
		allowed: map[string]bool{"WithEpsilon": true, "WithDelta": true, "WithSeed": true, "WithShards": true},
	},
}

// New constructs an aggregate of the given kind from functional options:
//
//	New(KindSlidingFreq, WithWindow(1<<20), WithEpsilon(0.01))
//
// Unset options take documented defaults (epsilon 0.01, delta 0.01,
// seed 1). Every invalid, inapplicable, or
// missing-required option yields an error wrapping ErrBadParam.
func New(kind Kind, opts ...Option) (Aggregate, error) {
	usage, ok := kindUsage[kind]
	if !ok {
		return nil, fmt.Errorf("%w: unknown aggregate kind %q", ErrBadParam, kind)
	}
	c := config{epsilon: 0.01, delta: 0.01, seed: 1}
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	for name := range c.set {
		if !usage.allowed[name] {
			return nil, fmt.Errorf("%w: option %s does not apply to %s", ErrBadParam, name, kind)
		}
	}
	for _, name := range usage.required {
		if !c.set[name] {
			return nil, fmt.Errorf("%w: %s requires %s", ErrBadParam, kind, name)
		}
	}
	mk := func() Aggregate {
		switch kind {
		case KindBasicCounter:
			return &BasicCounter{impl: bcount.New(c.window, c.epsilon)}
		case KindWindowSum:
			return &WindowSum{impl: wsum.New(c.window, c.maxValue, c.epsilon)}
		case KindFreq:
			return &FreqEstimator{impl: mg.New(c.epsilon)}
		case KindSlidingFreq:
			return &SlidingFreqEstimator{impl: swfreq.New(c.window, c.epsilon)}
		case KindCountMin:
			return &CountMin{impl: cms.New(c.epsilon, c.delta, c.seed)}
		case KindCountMinRange:
			return &CountMinRange{impl: cms.NewRange(c.bits, c.epsilon, c.delta, c.seed)}
		case KindCountSketch:
			return &CountSketch{impl: cms.NewCountSketch(c.epsilon, c.delta, c.seed)}
		}
		panic("unreachable")
	}
	if c.set["WithShards"] {
		// Every shard is built from the identical validated config — same
		// hash seed — which keeps the shard set mergeable.
		return newSharded(kind, c.shards, mk), nil
	}
	return mk(), nil
}
