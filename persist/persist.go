// Package persist is the durability subsystem behind the serving layer:
// a segmented, CRC-framed write-ahead log of ingest minibatches plus an
// atomic snapshot store. Each snapshot is named by the WAL position it
// covers, so recovery loads the newest CRC-valid snapshot and replays the
// WAL after it.
//
// The design follows the discretized-stream fault-tolerance model the
// library's checkpointing already implements [ZDL+13]: state is captured
// at minibatch boundaries, so the minibatch — the paper's ProcessBatch
// unit — is also the WAL record granularity. Logging whole minibatches
// keeps replay deterministic (the restored aggregates see exactly the
// batch boundaries the live ones did, which matters for Misra-Gries-style
// summaries) and amortized (one frame, one write, at most one fsync per
// batch — the same batching argument TangwongsanTW14 makes for the
// parallel update algorithms themselves).
//
// On disk a data directory holds:
//
//	snap-<seq>.snap          checkpoint envelope covering WAL records <= seq
//	wal-<seq>.log            segment whose first record has sequence <seq>
//	LOCK                     advisory flock guarding single-writer access
//
// Recovery (Open + Replay) loads the newest valid snapshot and replays
// the WAL tail: a torn final record — a crash mid-append — is tolerated
// and truncated, while a CRC mismatch anywhere else (or in a sealed
// segment) is rejected as real corruption. A background snapshotter
// (driven by the Ingestor, see SnapshotTrigger) captures a new snapshot
// once enough WAL has accumulated and deletes the sealed segments behind
// it, bounding both recovery time and disk use.
package persist

import (
	"errors"
	"fmt"
	"time"

	"repro/metrics"
)

// ErrCorrupt reports unrecoverable on-disk corruption: a CRC or framing
// failure anywhere other than the tail of the final WAL segment.
var ErrCorrupt = errors.New("persist: corrupt data directory")

// ErrClosed reports an operation on a closed Store.
var ErrClosed = errors.New("persist: store closed")

// ErrLocked reports a data directory already opened by another process.
var ErrLocked = errors.New("persist: data directory locked by another process")

// Fsync selects when appended WAL records are forced to stable storage.
type Fsync int

const (
	// FsyncAlways syncs after every appended minibatch: an applied
	// batch is durable before its effects are queryable. One fsync per
	// minibatch, amortized over the batch's items.
	FsyncAlways Fsync = iota
	// FsyncInterval syncs on a timer (Options.FsyncInterval, default
	// 100ms): a crash loses at most the last interval of applied
	// batches.
	FsyncInterval
	// FsyncNever leaves syncing to the OS writeback (snapshots are
	// still always fsynced): fastest, weakest.
	FsyncNever
)

// String returns the flag-friendly name ("always", "interval", "never").
func (f Fsync) String() string {
	switch f {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("Fsync(%d)", int(f))
}

// ParseFsync maps "always", "interval", or "never" to the policy.
func ParseFsync(s string) (Fsync, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("persist: fsync policy %q (want always, interval, or never)", s)
}

// Option defaults, used when the corresponding Options field is zero.
const (
	DefaultFsyncInterval   = 100 * time.Millisecond
	DefaultSegmentBytes    = 64 << 20
	DefaultSnapshotBytes   = 64 << 20
	DefaultSnapshotRecords = 4096
)

// Options configures Open. The zero value is valid: FsyncAlways with all
// thresholds at their defaults.
type Options struct {
	// Fsync is the WAL sync policy (default FsyncAlways).
	Fsync Fsync
	// FsyncInterval is the timer period under FsyncInterval.
	FsyncInterval time.Duration
	// SegmentBytes rolls the active segment once it exceeds this size.
	SegmentBytes int64
	// SnapshotBytes and SnapshotRecords trigger the snapshotter once
	// that much WAL (bytes appended or records appended, whichever
	// first) has accumulated since the last snapshot.
	SnapshotBytes   int64
	SnapshotRecords int64
	// Metrics is the registry the store publishes its WAL, snapshot,
	// and recovery instruments to; nil means a private registry. The
	// Stats() counters read from the same instruments, so the JSON
	// stats endpoint and /metrics cannot diverge.
	Metrics *metrics.Registry
}

// withDefaults fills zero fields and validates the rest.
func (o Options) withDefaults() (Options, error) {
	if o.Fsync != FsyncAlways && o.Fsync != FsyncInterval && o.Fsync != FsyncNever {
		return o, fmt.Errorf("persist: invalid fsync policy %d", int(o.Fsync))
	}
	def := func(v *int64, d int64, name string) error {
		if *v < 0 {
			return fmt.Errorf("persist: negative %s %d", name, *v)
		}
		if *v == 0 {
			*v = d
		}
		return nil
	}
	if o.FsyncInterval < 0 {
		return o, fmt.Errorf("persist: negative fsync interval %v", o.FsyncInterval)
	}
	if o.FsyncInterval == 0 {
		o.FsyncInterval = DefaultFsyncInterval
	}
	if err := def(&o.SegmentBytes, DefaultSegmentBytes, "segment size"); err != nil {
		return o, err
	}
	if err := def(&o.SnapshotBytes, DefaultSnapshotBytes, "snapshot byte threshold"); err != nil {
		return o, err
	}
	if err := def(&o.SnapshotRecords, DefaultSnapshotRecords, "snapshot record threshold"); err != nil {
		return o, err
	}
	return o, nil
}
