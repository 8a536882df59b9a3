package streamagg

// The serving layer's front door. The paper's performance story rests on
// ingesting *minibatches*: the parallel update algorithms are linear-work
// and polylog-depth per batch, so per-item overhead amortizes only when
// batches are well-sized. A real deployment, however, receives an
// unbounded stream of single updates and small request-sized batches.
// Ingestor closes that gap: it is an asynchronous minibatcher that
// accepts updates from any number of producers (MPSC), coalesces them in
// a bounded queue, and flushes adaptive minibatches into a sink — on a
// size threshold under load, on a max-latency timer when traffic is
// light, whichever fires first. Under bursts the flushed batches grow
// beyond the threshold (everything queued goes out in one ProcessBatch
// call), which is exactly the work-efficient regime the paper's cost
// model rewards.
//
// Backpressure is selectable: block producers until space frees (the
// default, lossless), reject with ErrOverloaded (shed load at the edge,
// let the client retry), or drop with a counter (bounded staleness for
// metrics-grade streams). Flush and Close implement the drain protocol;
// Checkpoint and Restore quiesce the batcher around the sink's
// MarshalBinary/UnmarshalBinary so a checkpoint always captures a clean
// minibatch boundary that includes everything enqueued before the call.

import (
	"context"
	"encoding"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/metrics"
	"repro/persist"
	"repro/trace"
)

// ErrOverloaded reports an ingest refused because the queue is full and
// the backpressure policy is BackpressureReject.
var ErrOverloaded = errors.New("streamagg: ingest queue full")

// ErrClosed reports an operation on a closed Ingestor.
var ErrClosed = errors.New("streamagg: ingestor closed")

// BatchProcessor is the sink side of the Ingestor: anything that ingests
// minibatches. Every Aggregate satisfies it, and so does *Pipeline.
type BatchProcessor interface {
	ProcessBatch(items []uint64) error
}

// Backpressure selects what PutBatch does when the queue is full.
type Backpressure int

const (
	// BackpressureBlock parks the producer until the worker frees
	// space. Lossless; converts overload into producer latency.
	BackpressureBlock Backpressure = iota
	// BackpressureReject refuses the whole batch with ErrOverloaded,
	// leaving the queue unchanged. The caller decides to retry or shed.
	BackpressureReject
	// BackpressureDrop accepts what fits and silently discards the
	// rest, counting discards in Stats().Dropped.
	BackpressureDrop
)

// String returns the flag-friendly name ("block", "reject", "drop").
func (b Backpressure) String() string {
	switch b {
	case BackpressureBlock:
		return "block"
	case BackpressureReject:
		return "reject"
	case BackpressureDrop:
		return "drop"
	}
	return fmt.Sprintf("Backpressure(%d)", int(b))
}

// ParseBackpressure maps "block", "reject", or "drop" to the policy.
func ParseBackpressure(s string) (Backpressure, error) {
	switch s {
	case "block":
		return BackpressureBlock, nil
	case "reject":
		return BackpressureReject, nil
	case "drop":
		return BackpressureDrop, nil
	}
	return 0, fmt.Errorf("%w: backpressure policy %q (want block, reject, or drop)", ErrBadParam, s)
}

// Ingestor defaults, used when the corresponding option is not given.
const (
	DefaultBatchSize  = 8192
	DefaultMaxLatency = 5 * time.Millisecond
)

// IngestorStats is a point-in-time snapshot of the batcher's counters.
// Enqueued counts items accepted into the queue; Processed counts items
// flushed into the sink; QueueDepth = Enqueued - Processed is what is
// still buffered (including an in-flight batch). SizeFlushes,
// TimerFlushes, and DrainFlushes split Batches by what triggered them.
// BatchSizeLog2[i] counts flushed batches whose size has bit length i,
// i.e. falls in [2^(i-1), 2^i).
type IngestorStats struct {
	Enqueued      int64   `json:"enqueued"`
	Processed     int64   `json:"processed"`
	Dropped       int64   `json:"dropped"`
	Rejected      int64   `json:"rejected"`
	QueueDepth    int64   `json:"queue_depth"`
	Batches       int64   `json:"batches"`
	SizeFlushes   int64   `json:"size_flushes"`
	TimerFlushes  int64   `json:"timer_flushes"`
	DrainFlushes  int64   `json:"drain_flushes"`
	FailedBatches int64   `json:"failed_batches"`
	MaxBatch      int     `json:"max_batch"`
	BatchSizeLog2 []int64 `json:"batch_size_log2"`
}

// Ingestor wraps a BatchProcessor behind an asynchronous bounded MPSC
// queue. Producers call Put/PutBatch from any number of goroutines; a
// single worker goroutine coalesces the queue into minibatches and feeds
// the sink, so the sink itself never sees concurrent ProcessBatch calls
// from this Ingestor. Construct with NewIngestor; the zero value is not
// usable.
type Ingestor struct {
	sink       BatchProcessor
	batchSize  int
	maxLatency time.Duration
	queueCap   int
	policy     Backpressure

	mu   sync.Mutex
	cond *sync.Cond    // broadcast: space freed, batch processed, worker exit
	wake chan struct{} // worker wakeup, capacity 1
	now  func() time.Time

	buf     []uint64  // pending items, appended by producers
	spare   []uint64  // recycled buffer for the next fill
	firstAt time.Time // arrival of the oldest buffered item

	// Tracing (WithTracer): batchSC is the trace context of the first
	// sampled producer contributing to the current buffer — the link the
	// flush worker parents its flush/WAL/apply spans onto, carried across
	// the MPSC boundary under mu. Zero when no contributor was sampled;
	// tracer nil when tracing is off (every span call is then a no-op on
	// a nil *trace.Span, allocation-free).
	tracer  *trace.Tracer
	batchSC trace.SpanContext

	inFlight int // items in the batch currently inside the sink

	// Observability: every counter below lives in the metrics registry
	// (reg), and Stats() reads the same instruments the /metrics
	// exposition renders — one source of truth, two views. All of them
	// are atomics, so the flush worker and producers never take an
	// extra lock to count.
	reg           *metrics.Registry
	enqueued      *metrics.Counter
	processed     *metrics.Counter
	dropped       *metrics.Counter
	rejected      *metrics.Counter
	sizeFlushes   *metrics.Counter
	timerFlushes  *metrics.Counter
	drainFlushes  *metrics.Counter
	failedBatches *metrics.Counter
	batchItems    *metrics.Histogram // flushed batch sizes (items, log2)
	flushWait     *metrics.Histogram // oldest item's enqueue→flush wait
	applySeconds  *metrics.Histogram // sink ProcessBatch latency per batch
	maxBatch      int

	flushReq int64 // drain until processed reaches this enqueue mark
	paused   int   // quiesce depth: worker must not start new batches
	closed   bool
	done     bool // worker has drained and exited
	doneCh   chan struct{}
	err      error // first sink failure, sticky

	// Durability (WithDataDir): every flushed minibatch is appended to
	// the WAL before it is applied, and a background snapshotter bounds
	// the log. Nil without WithDataDir.
	store    *persist.Store
	snapMu   sync.Mutex // serializes (capture, WriteSnapshot) pairs: snapshotter vs Restore vs Close
	snapStop chan struct{}
	snapDone chan struct{}
	durOnce  sync.Once
	durErr   error // store teardown error, reported by Close
}

// ingestorOptions is the Option applicability set for NewIngestor,
// mirroring kindUsage for the aggregate kinds.
var ingestorOptions = map[string]bool{
	"WithBatchSize":       true,
	"WithMaxLatency":      true,
	"WithBackpressure":    true,
	"WithQueueCap":        true,
	"WithDataDir":         true,
	"WithFsync":           true,
	"WithSnapshotEvery":   true,
	"WithMetricsRegistry": true,
	"WithTracer":          true,
	"withClock":           true,
}

// NewIngestor wraps sink in an asynchronous minibatcher. It accepts the
// batching subset of the library's functional options — WithBatchSize
// (default 8192), WithMaxLatency (default 5ms), WithBackpressure
// (default BackpressureBlock), WithQueueCap (default 4x the batch size)
// — and rejects aggregate-construction options with ErrBadParam, the
// same centralized validation New applies in reverse.
func NewIngestor(sink BatchProcessor, opts ...Option) (*Ingestor, error) {
	if sink == nil {
		return nil, fmt.Errorf("%w: nil ingest sink", ErrBadParam)
	}
	c := config{
		batchSize:    DefaultBatchSize,
		maxLatency:   DefaultMaxLatency,
		backpressure: BackpressureBlock,
	}
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	for name := range c.set {
		if !ingestorOptions[name] {
			return nil, fmt.Errorf("%w: option %s does not apply to Ingestor", ErrBadParam, name)
		}
	}
	if c.queueCap == 0 {
		c.queueCap = 4 * c.batchSize
	}
	if c.queueCap < c.batchSize {
		return nil, fmt.Errorf("%w: queue capacity %d below batch size %d",
			ErrBadParam, c.queueCap, c.batchSize)
	}
	if c.dataDir == "" && (c.set["WithFsync"] || c.set["WithSnapshotEvery"]) {
		return nil, fmt.Errorf("%w: WithFsync and WithSnapshotEvery require WithDataDir", ErrBadParam)
	}
	in := &Ingestor{
		sink:       sink,
		batchSize:  c.batchSize,
		maxLatency: c.maxLatency,
		queueCap:   c.queueCap,
		policy:     c.backpressure,
		tracer:     c.tracer,
		now:        c.clock,
		wake:       make(chan struct{}, 1),
		doneCh:     make(chan struct{}),
	}
	if in.now == nil {
		in.now = time.Now
	}
	in.initMetrics(c.metricsReg)
	in.cond = sync.NewCond(&in.mu)
	if c.dataDir != "" {
		if err := in.openDurable(c); err != nil {
			return nil, err
		}
	}
	go in.worker()
	if in.store != nil {
		in.snapStop = make(chan struct{})
		in.snapDone = make(chan struct{})
		go in.snapshotLoop()
	}
	return in, nil
}

// initMetrics wires the Ingestor's counters into a metrics registry —
// the caller's (WithMetricsRegistry, shared with the serving layer's
// /metrics endpoint) or a private one. Stats() reads these same
// instruments, so the JSON stats and the Prometheus exposition cannot
// diverge. Each Ingestor needs its own registry (or at most one
// Ingestor per registry): the instruments are shared by name.
func (in *Ingestor) initMetrics(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	in.reg = reg
	policy := in.policy.String()
	in.enqueued = reg.Counter("streamagg_ingest_enqueued_items_total",
		"Items accepted into the ingest queue.")
	in.processed = reg.Counter("streamagg_ingest_processed_items_total",
		"Items flushed into the sink.")
	in.dropped = reg.Counter("streamagg_ingest_dropped_items_total",
		"Items discarded at a full queue.", "policy", policy)
	in.rejected = reg.Counter("streamagg_ingest_rejected_items_total",
		"Items refused with ErrOverloaded at a full queue.", "policy", policy)
	in.sizeFlushes = reg.Counter("streamagg_ingest_flushes_total",
		"Flushed minibatches by trigger.", "cause", "size")
	in.timerFlushes = reg.Counter("streamagg_ingest_flushes_total",
		"Flushed minibatches by trigger.", "cause", "timer")
	in.drainFlushes = reg.Counter("streamagg_ingest_flushes_total",
		"Flushed minibatches by trigger.", "cause", "drain")
	in.failedBatches = reg.Counter("streamagg_ingest_failed_batches_total",
		"Minibatches whose WAL append or sink apply returned an error.")
	in.batchItems = reg.Histogram("streamagg_ingest_batch_items",
		"Flushed minibatch sizes in items.", metrics.UnitItems)
	in.flushWait = reg.Histogram("streamagg_ingest_flush_wait_seconds",
		"Oldest queued item's wait between enqueue and flush.", metrics.UnitSeconds)
	in.applySeconds = reg.Histogram("streamagg_ingest_apply_seconds",
		"Sink ProcessBatch latency per flushed minibatch.", metrics.UnitSeconds)
	reg.GaugeFunc("streamagg_ingest_queue_depth_items",
		"Items accepted but not yet applied to the sink.", func() float64 {
			d := in.enqueued.Value() - in.processed.Value()
			if d < 0 {
				d = 0
			}
			return float64(d)
		})
}

// MetricsRegistry returns the registry holding this Ingestor's
// instruments (and, for a durable Ingestor, the persist subsystem's).
// The serving layer renders it at GET /metrics.
func (in *Ingestor) MetricsRegistry() *metrics.Registry { return in.reg }

// Tracer returns the tracer recording this Ingestor's batch lifecycle
// spans, or nil without WithTracer. The serving layer shares it across
// layers and exports it at GET /debug/traces.
func (in *Ingestor) Tracer() *trace.Tracer { return in.tracer }

// openDurable opens the data directory and recovers the sink's state —
// newest valid snapshot, then WAL tail replay at the original minibatch
// boundaries — before the worker starts accepting live traffic.
func (in *Ingestor) openDurable(c config) error {
	u, uok := in.sink.(encoding.BinaryUnmarshaler)
	if _, mok := in.sink.(encoding.BinaryMarshaler); !mok || !uok {
		return fmt.Errorf("%w: durable ingest sink %T must support checkpointing", ErrBadParam, in.sink)
	}
	st, err := persist.Open(c.dataDir, persist.Options{
		Fsync:           c.fsync,
		SnapshotRecords: int64(c.snapshotEvery),
		Metrics:         in.reg,
	})
	if err != nil {
		return err
	}
	if snap, ok := st.RecoveredSnapshot(); ok {
		if err := u.UnmarshalBinary(snap); err != nil {
			st.Close()
			return fmt.Errorf("streamagg: restoring snapshot from %s: %w", c.dataDir, err)
		}
	}
	if err := st.Replay(func(items []uint64) error {
		// Mirror the live path exactly: a batch whose apply fails was
		// logged, partially applied (Pipeline fan-out), and recorded as
		// the sticky error before the crash — deterministic replay
		// reproduces that state. Failing recovery instead would turn
		// one bad batch into a permanent startup crash loop.
		if err := in.sink.ProcessBatch(items); err != nil && in.err == nil {
			in.err = err
		}
		return nil
	}); err != nil {
		st.Close()
		return err
	}
	in.store = st
	return nil
}

// noteSpanLocked links the current buffer to the first sampled
// producer's trace. Caller holds mu and has just appended items.
func (in *Ingestor) noteSpanLocked(sc trace.SpanContext) {
	if sc.Sampled && !in.batchSC.IsValid() {
		in.batchSC = sc
	}
}

// signal wakes the worker if it is parked (non-blocking; a pending token
// already guarantees a wakeup).
func (in *Ingestor) signal() {
	select {
	case in.wake <- struct{}{}:
	default:
	}
}

// appendLocked accepts items into the queue. Caller holds mu and has
// verified they fit.
func (in *Ingestor) appendLocked(items []uint64) {
	if len(in.buf) == 0 {
		in.firstAt = in.now()
	}
	in.buf = append(in.buf, items...)
	in.enqueued.Add(int64(len(items)))
	in.signal()
}

// Put enqueues a single update without building a batch slice — the
// high-rate producer path stays allocation-free (the queue buffer is
// recycled between flushes, so appends only grow it until the working
// size is reached). Semantics match PutBatch with one item.
func (in *Ingestor) Put(item uint64) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if in.closed {
			return ErrClosed
		}
		if in.queueCap-len(in.buf)-in.inFlight >= 1 {
			if len(in.buf) == 0 {
				in.firstAt = in.now()
			}
			in.buf = append(in.buf, item)
			in.enqueued.Add(1)
			in.signal()
			return nil
		}
		switch in.policy {
		case BackpressureReject:
			in.rejected.Add(1)
			return ErrOverloaded
		case BackpressureDrop:
			in.dropped.Add(1)
			return nil
		default: // BackpressureBlock
			in.cond.Wait()
		}
	}
}

// PutBatch enqueues a batch of updates, coalescing it with whatever else
// is queued; the items slice is copied and may be reused by the caller.
// It returns how many items were accepted. When the queue lacks space
// the configured Backpressure policy decides: block until the worker
// frees space (accepts everything), reject everything with ErrOverloaded
// (a batch larger than the whole queue capacity is always rejected under
// that policy), or accept what fits and drop the rest. After Close,
// PutBatch returns ErrClosed (under BackpressureBlock a producer parked
// at close time may have had a prefix of its batch accepted and drained
// before the error; the count reports it).
func (in *Ingestor) PutBatch(items []uint64) (int, error) {
	return in.PutBatchContext(context.Background(), items)
}

// PutBatchContext is PutBatch with cancellation: a producer parked by
// BackpressureBlock unparks with the context's error when ctx is
// canceled (the count reports any prefix already accepted, which the
// worker will still flush). Serving handlers use this so a disconnected
// client does not leave its goroutine parked on a full queue.
func (in *Ingestor) PutBatchContext(ctx context.Context, items []uint64) (int, error) {
	return in.PutBatchSpan(ctx, items, trace.SpanContext{})
}

// PutBatchSpan is PutBatchContext carrying the producer's trace
// context across the MPSC queue boundary: when sc belongs to a sampled
// trace, the minibatch these items coalesce into links its flush, WAL
// append, and sink apply spans onto that trace. Batches coalesce many
// producers' items, so the link is first-sampled-wins — one causal
// thread per minibatch, not one per item. A zero sc (the unsampled or
// tracing-off case) costs nothing.
func (in *Ingestor) PutBatchSpan(ctx context.Context, items []uint64, sc trace.SpanContext) (int, error) {
	if len(items) == 0 {
		return 0, nil
	}
	// Registered lazily, only when this producer is actually about to
	// park — the common has-space path pays nothing for cancellation.
	var stopWatch func() bool
	defer func() {
		if stopWatch != nil {
			stopWatch()
		}
	}()
	accepted := 0
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if in.closed {
			return accepted, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return accepted, err
		}
		// The in-flight batch still counts against the cap: WithQueueCap
		// bounds accepted-but-unapplied items, not just the resting buffer.
		free := in.queueCap - len(in.buf) - in.inFlight
		if len(items) <= free {
			in.appendLocked(items)
			in.noteSpanLocked(sc)
			return accepted + len(items), nil
		}
		switch in.policy {
		case BackpressureReject:
			in.rejected.Add(int64(len(items)))
			return accepted, ErrOverloaded
		case BackpressureDrop:
			if free > 0 {
				in.appendLocked(items[:free])
				in.noteSpanLocked(sc)
			}
			in.dropped.Add(int64(len(items) - free))
			return accepted + free, nil
		default: // BackpressureBlock
			if free > 0 {
				in.appendLocked(items[:free])
				in.noteSpanLocked(sc)
				items = items[free:]
				accepted += free
			}
			if stopWatch == nil && ctx.Done() != nil {
				stopWatch = context.AfterFunc(ctx, func() {
					in.mu.Lock()
					in.cond.Broadcast()
					in.mu.Unlock()
				})
			}
			in.cond.Wait()
		}
	}
}

// worker is the single consumer: it waits for work, decides when the
// queued items form a minibatch (size threshold, latency deadline, drain
// request, or shutdown), and feeds the sink.
func (in *Ingestor) worker() {
	// One reusable timer for the latency wait (Go 1.23+ semantics: Stop
	// and Reset need no channel drain).
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		in.mu.Lock()
		if in.paused > 0 {
			in.mu.Unlock()
			<-in.wake
			continue
		}
		n := len(in.buf)
		if n == 0 {
			if in.closed {
				in.done = true
				in.cond.Broadcast()
				in.mu.Unlock()
				close(in.doneCh)
				return
			}
			in.mu.Unlock()
			<-in.wake
			continue
		}
		var cause *metrics.Counter
		var causeName string
		switch {
		case n >= in.batchSize:
			cause, causeName = in.sizeFlushes, "size"
		case in.closed || in.flushReq > in.processed.Value():
			cause, causeName = in.drainFlushes, "drain"
		default:
			wait := in.maxLatency - in.now().Sub(in.firstAt)
			if wait > 0 {
				in.mu.Unlock()
				timer.Reset(wait)
				select {
				case <-in.wake:
					timer.Stop()
				case <-timer.C:
				}
				continue
			}
			cause, causeName = in.timerFlushes, "timer"
		}
		batch := in.buf
		batchSC := in.batchSC
		in.batchSC = trace.SpanContext{}
		in.buf = in.spare[:0]
		in.spare = nil
		in.inFlight = len(batch)
		cause.Inc()
		wait := in.now().Sub(in.firstAt)
		in.flushWait.ObserveDuration(wait)
		in.cond.Broadcast() // space freed: unpark blocked producers
		in.mu.Unlock()

		// The flush span joins the first sampled contributor's trace
		// (Child never roots one of its own) — on the unsampled path
		// every span here is nil and the calls are free.
		span := in.tracer.Child("ingest.flush", batchSC)
		span.SetInt("items", int64(len(batch)))
		span.SetAttr("cause", causeName)
		span.SetInt("queue_wait_us", wait.Microseconds())
		err := in.commit(batch, span.Context())
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()

		in.mu.Lock()
		in.processed.Add(int64(len(batch)))
		in.inFlight = 0
		if len(batch) > in.maxBatch {
			in.maxBatch = len(batch)
		}
		in.batchItems.Observe(uint64(len(batch)))
		if err != nil {
			in.failedBatches.Inc()
			if in.err == nil {
				in.err = err
			}
		}
		in.spare = batch[:0]
		in.cond.Broadcast() // batch done: unpark Flush/quiesce waiters
		in.mu.Unlock()
	}
}

// commit is the worker's apply step: with durability, the minibatch is
// WAL-appended (and, under FsyncAlways, on stable storage) before the
// sink sees it — a batch whose effects are queryable is always
// recoverable. An append failure leaves the batch unapplied rather than
// applied-but-unlogged.
func (in *Ingestor) commit(batch []uint64, parent trace.SpanContext) error {
	if in.store != nil {
		ws := in.tracer.Child("persist.wal_append", parent)
		seq, err := in.store.Append(batch)
		if err != nil {
			ws.SetAttr("error", err.Error())
			ws.End()
			return err
		}
		ws.SetInt("seq", int64(seq))
		ws.SetInt("items", int64(len(batch)))
		ws.End()
	}
	as := in.tracer.Child("sink.apply", parent)
	as.SetInt("items", int64(len(batch)))
	start := in.now()
	err := in.sink.ProcessBatch(batch)
	in.applySeconds.ObserveDuration(in.now().Sub(start))
	if err != nil {
		as.SetAttr("error", err.Error())
	}
	as.End()
	return err
}

// snapshotLoop is the background snapshotter: when the store has
// accumulated enough WAL since the last snapshot, capture the sink at a
// quiesced minibatch boundary and install it, letting the store reclaim
// the sealed segments behind it.
func (in *Ingestor) snapshotLoop() {
	defer close(in.snapDone)
	for {
		select {
		case <-in.snapStop:
			return
		case <-in.store.SnapshotTrigger():
			// snapMu keeps the (capture, write) pair atomic against a
			// concurrent Restore: without it, a pre-restore capture
			// could be installed over the restore's own snapshot at the
			// same WAL position, silently undoing the restore on the
			// next recovery.
			in.snapMu.Lock()
			data, seq, err := in.DurableCheckpoint()
			if err == nil {
				err = in.store.WriteSnapshot(data, seq)
			}
			in.snapMu.Unlock()
			if err != nil {
				// Best-effort: the WAL still holds everything; surface
				// through Stats and retry at the next trigger.
				in.store.NoteSnapshotFailure(err)
			}
		}
	}
}

// drainLocked requests a flush of everything enqueued so far and waits
// until the worker has pushed it into the sink. Caller holds mu.
func (in *Ingestor) drainLocked() {
	target := in.enqueued.Value()
	if target > in.flushReq {
		in.flushReq = target
	}
	in.signal()
	for in.processed.Value() < target && !in.done {
		in.cond.Wait()
	}
}

// Flush drains: every item enqueued before the call is processed into
// the sink before Flush returns (items arriving during the drain may or
// may not be included). It returns the first sink error seen so far, if
// any (sticky; also returned by Close).
func (in *Ingestor) Flush() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.drainLocked()
	return in.err
}

// Close drains the queue, stops the worker, and releases any blocked
// producers (their remaining items are refused with ErrClosed). With
// durability it then writes a final snapshot at the drained boundary —
// so a clean restart replays nothing — and closes the store. It is
// idempotent and returns the first sink error seen over the Ingestor's
// lifetime (joined with any store teardown error).
func (in *Ingestor) Close() error {
	in.mu.Lock()
	if !in.closed {
		in.closed = true
		in.cond.Broadcast()
		in.signal()
	}
	in.mu.Unlock()
	<-in.doneCh
	if in.store != nil {
		in.durOnce.Do(in.closeDurable)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return errors.Join(in.err, in.durErr)
}

// closeDurable stops the snapshotter, writes the shutdown snapshot
// (best-effort: on failure the WAL already holds everything the snapshot
// would), and closes the store.
func (in *Ingestor) closeDurable() {
	close(in.snapStop)
	<-in.snapDone
	in.snapMu.Lock()
	defer in.snapMu.Unlock()
	if m, ok := in.sink.(encoding.BinaryMarshaler); ok {
		data, err := m.MarshalBinary()
		if err == nil {
			err = in.store.WriteSnapshot(data, in.store.Position())
		}
		if err != nil {
			in.store.NoteSnapshotFailure(err)
		}
	}
	in.durErr = in.store.Close()
}

// quiesce drains the queue and pauses the worker so the sink is at a
// stable minibatch boundary: no batch is in flight and none will start
// until resume. Every quiesce must be paired with resume.
func (in *Ingestor) quiesce() {
	in.mu.Lock()
	in.drainLocked()
	in.paused++
	for in.inFlight > 0 {
		in.cond.Wait()
	}
	in.mu.Unlock()
}

func (in *Ingestor) resume() {
	in.mu.Lock()
	in.paused--
	in.mu.Unlock()
	in.signal()
}

// Checkpoint drains everything enqueued before the call into the sink,
// then captures the sink's MarshalBinary at that quiesced minibatch
// boundary. Producers may keep enqueueing during the checkpoint; their
// items stay queued until it completes. The sink must implement
// encoding.BinaryMarshaler (every Aggregate and *Pipeline does).
func (in *Ingestor) Checkpoint() ([]byte, error) {
	m, ok := in.sink.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("%w: ingest sink %T cannot checkpoint", ErrBadParam, in.sink)
	}
	in.quiesce()
	defer in.resume()
	return m.MarshalBinary()
}

// DurableCheckpoint is Checkpoint for a durable Ingestor: it captures
// the sink at a quiesced minibatch boundary together with the WAL
// position covering exactly that state — the consistent (envelope, seq)
// pair the snapshot store requires. The background snapshotter uses it;
// it is exported so operators can force a snapshot externally.
func (in *Ingestor) DurableCheckpoint() ([]byte, uint64, error) {
	if in.store == nil {
		return nil, 0, fmt.Errorf("%w: ingestor has no data directory", ErrBadParam)
	}
	m, ok := in.sink.(encoding.BinaryMarshaler)
	if !ok {
		return nil, 0, fmt.Errorf("%w: ingest sink %T cannot checkpoint", ErrBadParam, in.sink)
	}
	in.quiesce()
	defer in.resume()
	data, err := m.MarshalBinary()
	if err != nil {
		return nil, 0, err
	}
	// Quiesced: nothing in flight, so the store's position is exactly
	// the last batch the sink absorbed.
	return data, in.store.Position(), nil
}

// Persist returns the durability store backing this Ingestor, or nil
// when WithDataDir was not given. The serving layer exposes its Stats at
// /v1/persist/stats.
func (in *Ingestor) Persist() *persist.Store { return in.store }

// Restore drains the queue into the (about-to-be-replaced) sink state,
// then atomically restores the sink from a checkpoint while the worker
// is quiesced. Items enqueued after Restore begins are applied on top of
// the restored state. A successful restore also clears the sticky sink
// error — the sink is back at known-good state, so earlier batch
// failures stop poisoning Flush/Close. The sink must implement
// encoding.BinaryUnmarshaler.
func (in *Ingestor) Restore(data []byte) error {
	u, ok := in.sink.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("%w: ingest sink %T cannot restore", ErrBadParam, in.sink)
	}
	// Quiesce alone does not exclude the background snapshotter (both
	// sides may hold the pause concurrently); snapMu does.
	in.snapMu.Lock()
	defer in.snapMu.Unlock()
	in.quiesce()
	defer in.resume()
	if err := u.UnmarshalBinary(data); err != nil {
		return err
	}
	in.mu.Lock()
	in.err = nil
	in.mu.Unlock()
	// The WAL's history no longer leads to the sink's (replaced) state;
	// snapshot the restored state at the current position so recovery
	// starts from it instead of replaying the stale tail over it.
	if in.store != nil {
		if err := in.store.WriteSnapshot(data, in.store.Position()); err != nil {
			in.store.NoteSnapshotFailure(err)
			return fmt.Errorf("streamagg: restore applied but not yet durable: %w", err)
		}
	}
	return nil
}

// ForceSnapshot writes a snapshot of the sink's current quiesced state
// at the matching WAL position, without waiting for the background
// snapshotter's trigger. A no-op (nil) without WithDataDir. The serving
// layer calls it after an out-of-band sink mutation — a federated merge
// applied outside the WAL'd ingest path — so recovery replays the WAL
// tail on top of a state that already includes the mutation.
func (in *Ingestor) ForceSnapshot() error {
	if in.store == nil {
		return nil
	}
	in.snapMu.Lock()
	defer in.snapMu.Unlock()
	data, seq, err := in.DurableCheckpoint()
	if err == nil {
		err = in.store.WriteSnapshot(data, seq)
	}
	if err != nil {
		in.store.NoteSnapshotFailure(err)
	}
	return err
}

// Stats returns a snapshot of the batcher's counters. It reads the
// same registry-backed instruments the /metrics exposition renders, so
// the two views cannot diverge.
func (in *Ingestor) Stats() IngestorStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := IngestorStats{
		Enqueued:      in.enqueued.Value(),
		Processed:     in.processed.Value(),
		Dropped:       in.dropped.Value(),
		Rejected:      in.rejected.Value(),
		SizeFlushes:   in.sizeFlushes.Value(),
		TimerFlushes:  in.timerFlushes.Value(),
		DrainFlushes:  in.drainFlushes.Value(),
		FailedBatches: in.failedBatches.Value(),
		MaxBatch:      in.maxBatch,
	}
	s.QueueDepth = s.Enqueued - s.Processed
	s.Batches = s.SizeFlushes + s.TimerFlushes + s.DrainFlushes
	s.BatchSizeLog2, _, _ = in.batchItems.Snapshot()
	return s
}

// QueueDepth reports the items accepted but not yet in the sink.
func (in *Ingestor) QueueDepth() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.enqueued.Value() - in.processed.Value()
}
