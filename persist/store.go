package persist

// Store ties the WAL and the snapshot store together behind a
// single-writer API:
//
//	st, _ := persist.Open(dir, persist.Options{...})
//	if snap, ok := st.RecoveredSnapshot(); ok { restore sink from snap }
//	st.Replay(func(items []uint64) error { return sink.ProcessBatch(items) })
//	... st.Append(batch) before every applied minibatch ...
//
// Open validates the whole directory: the newest snapshot file that
// checks out, every sealed segment (a CRC failure there is ErrCorrupt),
// and the final segment, whose torn tail — the signature of a crash
// mid-append — is truncated away. Append then continues the sequence
// exactly where the valid prefix ended.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/metrics"
)

const (
	walPrefix = "wal-"
	walSuffix = ".log"
)

// segmentName formats the filename for a segment whose first record has
// the given sequence.
func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", walPrefix, firstSeq, walSuffix)
}

// parseSegmentName extracts the first-record sequence from a segment
// filename.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	digits := name[len(walPrefix) : len(name)-len(walSuffix)]
	if len(digits) != 20 {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// segmentInfo is one validated segment's metadata.
type segmentInfo struct {
	name     string
	firstSeq uint64 // sequence promised by the filename
	lastSeq  uint64 // last valid record, 0 if the segment is empty
	records  int64
	bytes    int64 // valid bytes, header included
}

// Stats is a point-in-time snapshot of the store's counters, shaped for
// the /v1/persist/stats endpoint.
type Stats struct {
	Dir                string `json:"dir"`
	Fsync              string `json:"fsync"`
	LastSeq            uint64 `json:"last_seq"`
	SnapshotSeq        uint64 `json:"snapshot_seq"`
	Segments           int    `json:"segments"`
	WALBytes           int64  `json:"wal_bytes"`
	ActiveSegmentBytes int64  `json:"active_segment_bytes"`
	AppendedRecords    int64  `json:"appended_records"`
	AppendedBytes      int64  `json:"appended_bytes"`
	Fsyncs             int64  `json:"fsyncs"`
	Snapshots          int64  `json:"snapshots"`
	SnapshotFailures   int64  `json:"snapshot_failures"`
	TruncatedSegments  int64  `json:"truncated_segments"`
	RecoveredSnapshot  bool   `json:"recovered_snapshot"`
	ReplayedRecords    int64  `json:"replayed_records"`
	SinceSnapRecords   int64  `json:"since_snapshot_records"`
	SinceSnapBytes     int64  `json:"since_snapshot_bytes"`
	LastError          string `json:"last_error,omitempty"`
}

// Store is an open data directory. All methods are safe for concurrent
// use; Append is single-writer by construction (the Ingestor's one flush
// worker) but locked anyway.
type Store struct {
	dir    string
	opt    Options
	unlock func()

	mu       sync.Mutex
	active   *os.File
	actInfo  segmentInfo
	sealed   []segmentInfo
	lastSeq  uint64
	dirty    bool
	failed   error // set when the active segment may hold a partial frame
	closed   bool
	frameBuf []byte

	snapSeq  uint64
	snapName string

	recSnapshot []byte
	recSnapSeq  uint64
	replaySegs  []segmentInfo

	sinceSnapRecords int64
	sinceSnapBytes   int64
	lastErr          string

	// Registry-backed instruments (see initMetrics): Stats() reads
	// these, and /metrics renders them — one source of truth.
	appendedRecords   *metrics.Counter
	appendedBytes     *metrics.Counter
	fsyncs            *metrics.Counter
	snapshots         *metrics.Counter
	snapshotFailures  *metrics.Counter
	truncatedSegments *metrics.Counter
	replayedRecords   *metrics.Counter
	appendSeconds     *metrics.Histogram
	snapshotSeconds   *metrics.Histogram
	snapshotBytes     *metrics.Gauge
	recoveredSnap     *metrics.Gauge

	snapC     chan struct{}
	flushStop chan struct{}
	flushDone chan struct{}
}

// Open opens (creating if needed) a data directory, validates its
// contents, repairs a torn WAL tail, and prepares the store for
// RecoveredSnapshot + Replay followed by Append.
func Open(dir string, opt Options) (*Store, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating data directory: %w", err)
	}
	unlock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opt: opt, unlock: unlock, snapC: make(chan struct{}, 1)}
	s.initMetrics(opt.Metrics)
	if err := s.load(); err != nil {
		unlock()
		return nil, err
	}
	if opt.Fsync == FsyncInterval {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flushLoop()
	}
	return s, nil
}

// initMetrics wires the store's instruments into a registry — the
// Ingestor's (shared through persist.Options.Metrics so every layer
// lands on one /metrics endpoint) or a private one.
func (s *Store) initMetrics(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	fsync := s.opt.Fsync.String()
	s.appendedRecords = reg.Counter("streamagg_wal_appended_records_total",
		"Minibatches appended to the WAL.")
	s.appendedBytes = reg.Counter("streamagg_wal_appended_bytes_total",
		"Framed bytes appended to the WAL.")
	s.fsyncs = reg.Counter("streamagg_wal_fsyncs_total",
		"WAL fsync calls.", "fsync", fsync)
	s.truncatedSegments = reg.Counter("streamagg_wal_truncated_segments_total",
		"Sealed WAL segments deleted behind a snapshot.")
	s.appendSeconds = reg.Histogram("streamagg_wal_append_seconds",
		"WAL append latency per minibatch, including any synchronous fsync.",
		metrics.UnitSeconds, "fsync", fsync)
	s.snapshots = reg.Counter("streamagg_snapshots_total",
		"Snapshots installed.")
	s.snapshotFailures = reg.Counter("streamagg_snapshot_failures_total",
		"Snapshot captures or installs that failed.")
	s.snapshotSeconds = reg.Histogram("streamagg_snapshot_write_seconds",
		"Snapshot install latency (write + reclamation).", metrics.UnitSeconds)
	s.snapshotBytes = reg.Gauge("streamagg_snapshot_bytes",
		"Size of the most recently installed snapshot payload.")
	s.replayedRecords = reg.Counter("streamagg_recovery_replayed_records_total",
		"WAL minibatches replayed during recovery.")
	s.recoveredSnap = reg.Gauge("streamagg_recovery_snapshot_loaded",
		"1 if recovery restored from a snapshot, else 0.")
	reg.GaugeFunc("streamagg_wal_last_seq",
		"Sequence of the last appended WAL record.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.lastSeq)
		})
	reg.GaugeFunc("streamagg_snapshot_seq",
		"WAL sequence covered by the installed snapshot.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.snapSeq)
		})
	reg.GaugeFunc("streamagg_wal_bytes",
		"Live WAL bytes across all segments.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			total := s.actInfo.bytes
			for _, seg := range s.sealed {
				total += seg.bytes
			}
			return float64(total)
		})
	reg.GaugeFunc("streamagg_wal_segments",
		"WAL segment count, active included.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := len(s.sealed)
			if s.active != nil {
				n++
			}
			return float64(n)
		})
}

// load scans the directory: stale temp files, the snapshot, then the
// segment chain.
func (s *Store) load() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("persist: reading data directory: %w", err)
	}
	var segNames, snapNames []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.Contains(name, ".tmp-"), name == "MANIFEST":
			// Leftover from an interrupted atomic write, or the root
			// file of older versions, which recovery no longer reads.
			_ = os.Remove(filepath.Join(s.dir, name))
		case strings.HasPrefix(name, walPrefix):
			segNames = append(segNames, name)
		case strings.HasPrefix(name, snapPrefix):
			snapNames = append(snapNames, name)
		}
	}
	s.loadSnapshot(snapNames)
	// Remove snapshots recovery did not select: older files leaked by a
	// crash between installing a newer one and removing them, and damaged
	// ones. Left in place they would accumulate.
	for _, name := range snapNames {
		if name != s.snapName {
			_ = os.Remove(filepath.Join(s.dir, name))
		}
	}
	if err := s.loadSegments(segNames); err != nil {
		return err
	}
	if s.lastSeq < s.snapSeq {
		// The WAL was truncated behind the snapshot; appends continue
		// after the snapshot's position.
		s.lastSeq = s.snapSeq
	}
	// Make sure the active segment can continue the sequence; if the
	// snapshot outran the on-disk WAL (truncate-all), start fresh.
	if s.active == nil || s.nextActiveSeq() != s.lastSeq+1 {
		if s.active != nil {
			if err := s.sealActiveLocked(); err != nil {
				return err
			}
		}
		if err := s.createSegmentLocked(s.lastSeq + 1); err != nil {
			return err
		}
	}
	return nil
}

// nextActiveSeq is the sequence the next record appended to the active
// segment would get, per the on-disk content.
func (s *Store) nextActiveSeq() uint64 {
	if s.actInfo.lastSeq != 0 {
		return s.actInfo.lastSeq + 1
	}
	return s.actInfo.firstSeq
}

// loadSnapshot picks the recovery snapshot: the newest file that
// validates. A snapshot is installed atomically, named by the WAL
// sequence it covers, and durable before anything it supersedes is
// removed, so the newest valid file plus the WAL after it is the latest
// state.
func (s *Store) loadSnapshot(snapNames []string) {
	sort.Sort(sort.Reverse(sort.StringSlice(snapNames)))
	for _, name := range snapNames {
		if _, ok := parseSnapshotName(name); !ok {
			continue
		}
		if seq, payload, err := readSnapshot(s.dir, name); err == nil {
			s.installSnapshot(name, seq, payload)
			return
		}
	}
}

func (s *Store) installSnapshot(name string, seq uint64, payload []byte) {
	s.snapName, s.snapSeq = name, seq
	s.recSnapshot, s.recSnapSeq = payload, seq
	s.recoveredSnap.Set(1)
	s.snapshotBytes.Set(int64(len(payload)))
}

// loadSegments validates the segment chain, truncating a torn tail on
// the final segment and rejecting corruption anywhere else.
func (s *Store) loadSegments(segNames []string) error {
	type seg struct {
		name     string
		firstSeq uint64
	}
	var segs []seg
	for _, name := range segNames {
		firstSeq, ok := parseSegmentName(name)
		if !ok {
			continue
		}
		segs = append(segs, seg{name, firstSeq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })

	var infos []segmentInfo
	for i, sg := range segs {
		final := i == len(segs)-1
		path := filepath.Join(s.dir, sg.name)
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("persist: opening segment %s: %w", sg.name, err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("persist: segment %s: %w", sg.name, err)
		}
		valid, lastSeq, scanErr := scanSegment(f, fi.Size(), sg.firstSeq, nil)
		f.Close()
		if scanErr != nil {
			if !final || !isTorn(scanErr) {
				return fmt.Errorf("%w: segment %s: %v", ErrCorrupt, sg.name, scanErr)
			}
			// Torn tail on the final segment: the crash signature we
			// tolerate. Truncate the garbage so the append path and
			// every future scan see only the valid prefix. A segment
			// whose header itself is torn truncates to empty and is
			// re-headered below.
			if valid < int64(len(segMagic)) {
				valid = 0
			}
			if err := truncateFile(path, valid); err != nil {
				return fmt.Errorf("persist: truncating torn tail of %s: %w", sg.name, err)
			}
			if valid == 0 {
				if err := writeSegmentHeader(path); err != nil {
					return err
				}
				valid = int64(len(segMagic))
			}
		}
		info := segmentInfo{name: sg.name, firstSeq: sg.firstSeq, lastSeq: lastSeq, bytes: valid}
		if lastSeq != 0 {
			info.records = int64(lastSeq - sg.firstSeq + 1)
		}
		if !final && lastSeq == 0 {
			return fmt.Errorf("%w: empty sealed segment %s", ErrCorrupt, sg.name)
		}
		// A break in the chain loses or repeats the records between the
		// two segments. It is harmless when the snapshot covers all of
		// them: a removal of covered segments failed or was persisted out
		// of order.
		if len(infos) > 0 {
			prev := infos[len(infos)-1]
			if sg.firstSeq != prev.lastSeq+1 && max(sg.firstSeq-1, prev.lastSeq) > s.snapSeq {
				return fmt.Errorf("%w: segment %s breaks sequence (previous ends at %d)", ErrCorrupt, sg.name, prev.lastSeq)
			}
		}
		infos = append(infos, info)
	}
	if len(infos) == 0 {
		return nil
	}
	// A gap between the snapshot and the start of the surviving WAL
	// means lost minibatches: refuse to silently under-replay. The first
	// segment's filename promises what the WAL once held, so this also
	// catches the case where every surviving segment is empty (snapshot
	// file lost after truncation).
	first := infos[0].firstSeq
	last := infos[len(infos)-1].lastSeq
	if last == 0 && len(infos) > 1 {
		last = infos[len(infos)-2].lastSeq
	}
	if first > s.snapSeq+1 {
		return fmt.Errorf("%w: WAL starts at seq %d but snapshot covers only %d", ErrCorrupt, first, s.snapSeq)
	}
	for _, info := range infos {
		if info.lastSeq > s.snapSeq && info.lastSeq != 0 {
			s.replaySegs = append(s.replaySegs, info)
		}
	}
	s.lastSeq = last
	// Reopen the final segment for appending at its validated end.
	act := infos[len(infos)-1]
	f, err := os.OpenFile(filepath.Join(s.dir, act.name), os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("persist: reopening segment %s: %w", act.name, err)
	}
	if _, err := f.Seek(act.bytes, 0); err != nil {
		f.Close()
		return fmt.Errorf("persist: seeking segment %s: %w", act.name, err)
	}
	s.active, s.actInfo = f, act
	s.sealed = append(s.sealed, infos[:len(infos)-1]...)
	return nil
}

func truncateFile(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

func writeSegmentHeader(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write([]byte(segMagic)); err != nil {
		return err
	}
	return f.Sync()
}

// createSegmentLocked starts a fresh active segment whose first record
// will carry firstSeq.
func (s *Store) createSegmentLocked(firstSeq uint64) error {
	name := segmentName(firstSeq)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating segment %s: %w", name, err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("persist: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: syncing segment header: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return fmt.Errorf("persist: syncing data directory: %w", err)
	}
	s.active = f
	s.actInfo = segmentInfo{name: name, firstSeq: firstSeq, bytes: int64(len(segMagic))}
	return nil
}

// sealActiveLocked syncs and closes the active segment, moving it to the
// sealed list (or deleting it immediately if it is empty).
func (s *Store) sealActiveLocked() error {
	if s.active == nil {
		return nil
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.active.Close(); err != nil {
		return err
	}
	if s.actInfo.lastSeq == 0 {
		// Never held a record; no reason to keep it.
		_ = os.Remove(filepath.Join(s.dir, s.actInfo.name))
	} else {
		s.sealed = append(s.sealed, s.actInfo)
	}
	s.active = nil
	s.actInfo = segmentInfo{}
	return nil
}

// RecoveredSnapshot returns the snapshot payload (a checkpoint envelope)
// recovery selected, if any. Restore the sink from it before Replay.
func (s *Store) RecoveredSnapshot() ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recSnapshot, s.recSnapshot != nil
}

// Replay streams every WAL minibatch after the recovered snapshot's
// position into fn, in sequence order. Call it once, after restoring the
// snapshot and before the first Append.
func (s *Store) Replay(fn func(items []uint64) error) error {
	s.mu.Lock()
	segs := s.replaySegs
	snapSeq := s.recSnapSeq
	s.mu.Unlock()
	for _, seg := range segs {
		f, err := os.Open(filepath.Join(s.dir, seg.name))
		if err != nil {
			return fmt.Errorf("persist: replaying segment %s: %w", seg.name, err)
		}
		_, _, scanErr := scanSegment(f, seg.bytes, seg.firstSeq, func(seq uint64, items []uint64) error {
			if seq <= snapSeq {
				return nil
			}
			if err := fn(items); err != nil {
				return fmt.Errorf("persist: replaying record %d: %w", seq, err)
			}
			s.replayedRecords.Inc()
			return nil
		})
		f.Close()
		if scanErr != nil {
			if isTorn(scanErr) {
				// The extent was validated at Open; failing now means
				// the file changed underneath us.
				return fmt.Errorf("%w: segment %s changed during replay: %v", ErrCorrupt, seg.name, scanErr)
			}
			return scanErr
		}
	}
	return nil
}

// Append logs one minibatch and returns its WAL sequence. Under
// FsyncAlways the record is on stable storage when Append returns; the
// caller applies the batch to the in-memory state only after Append
// succeeds, which is what makes recovery exact.
func (s *Store) Append(items []uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.failed != nil {
		return 0, s.failed
	}
	if s.actInfo.bytes >= s.opt.SegmentBytes && s.actInfo.lastSeq != 0 {
		if err := s.rollLocked(); err != nil {
			s.lastErr = err.Error()
			return 0, err
		}
	}
	start := time.Now()
	seq := s.lastSeq + 1
	s.frameBuf = appendRecord(s.frameBuf, seq, items)
	if _, err := s.active.Write(s.frameBuf); err != nil {
		// A partial frame may now sit at the tail; wind the file back to
		// the last whole record so later appends don't land after
		// garbage. If even that fails the store is poisoned.
		if terr := s.active.Truncate(s.actInfo.bytes); terr != nil {
			s.failed = fmt.Errorf("persist: segment unrecoverable after failed append: %w", terr)
		} else {
			_, _ = s.active.Seek(s.actInfo.bytes, 0)
		}
		s.lastErr = err.Error()
		return 0, fmt.Errorf("persist: appending record %d: %w", seq, err)
	}
	frameLen := int64(len(s.frameBuf))
	s.lastSeq = seq
	s.actInfo.lastSeq = seq
	s.actInfo.records++
	s.actInfo.bytes += frameLen
	s.appendedRecords.Inc()
	s.appendedBytes.Add(frameLen)
	s.sinceSnapRecords++
	s.sinceSnapBytes += frameLen
	if s.opt.Fsync == FsyncAlways {
		if err := s.active.Sync(); err != nil {
			s.lastErr = err.Error()
			return 0, fmt.Errorf("persist: syncing record %d: %w", seq, err)
		}
		s.fsyncs.Inc()
	} else {
		s.dirty = true
	}
	s.appendSeconds.ObserveDuration(time.Since(start))
	if s.sinceSnapRecords >= s.opt.SnapshotRecords || s.sinceSnapBytes >= s.opt.SnapshotBytes {
		select {
		case s.snapC <- struct{}{}:
		default:
		}
	}
	return seq, nil
}

// rollLocked seals the active segment and starts the next one.
func (s *Store) rollLocked() error {
	if err := s.sealActiveLocked(); err != nil {
		return err
	}
	return s.createSegmentLocked(s.lastSeq + 1)
}

// Sync forces buffered WAL records to stable storage (a no-op when
// nothing is dirty).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if !s.dirty || s.active == nil {
		return nil
	}
	if err := s.active.Sync(); err != nil {
		s.lastErr = err.Error()
		return fmt.Errorf("persist: syncing WAL: %w", err)
	}
	s.dirty = false
	s.fsyncs.Inc()
	return nil
}

// flushLoop is the FsyncInterval timer.
func (s *Store) flushLoop() {
	defer close(s.flushDone)
	t := time.NewTicker(s.opt.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.flushStop:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed {
				_ = s.syncLocked()
			}
			s.mu.Unlock()
		}
	}
}

// Position reports the sequence of the last appended record (or the
// recovered position before any appends).
func (s *Store) Position() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// SnapshotTrigger returns a channel that receives a token when enough
// WAL has accumulated since the last snapshot (Options.SnapshotRecords /
// SnapshotBytes). The Ingestor's background snapshotter waits on it.
func (s *Store) SnapshotTrigger() <-chan struct{} {
	return s.snapC
}

// NoteSnapshotFailure records a failed snapshot capture for Stats.
func (s *Store) NoteSnapshotFailure(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshotFailures.Inc()
	s.lastErr = err.Error()
}

// WriteSnapshot atomically installs payload (a checkpoint envelope
// capturing the sink's state at a quiesced minibatch boundary) as the
// snapshot covering every WAL record up to and including seq, then
// deletes the snapshot file and sealed segments it supersedes. Callers
// obtain (payload, seq) while the ingest path is quiesced — e.g.
// Ingestor.DurableCheckpoint — so the pair is consistent by
// construction.
func (s *Store) WriteSnapshot(payload []byte, seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.writeSnapshotLocked(payload, seq)
}

func (s *Store) writeSnapshotLocked(payload []byte, seq uint64) error {
	if seq < s.snapSeq {
		return fmt.Errorf("persist: stale snapshot at seq %d (have %d)", seq, s.snapSeq)
	}
	if seq > s.lastSeq {
		return fmt.Errorf("persist: snapshot seq %d beyond WAL position %d", seq, s.lastSeq)
	}
	start := time.Now()
	// The new file and its directory entry are durable before anything it
	// supersedes is removed; recovery trusts the newest valid snapshot,
	// so this order is what makes every crash point safe.
	name, err := writeSnapshotFile(s.dir, seq, payload)
	if err != nil {
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	prevName := s.snapName
	s.snapName, s.snapSeq = name, seq
	s.snapshots.Inc()
	s.snapshotBytes.Set(int64(len(payload)))
	s.sinceSnapRecords, s.sinceSnapBytes = 0, 0
	if prevName != "" && prevName != name {
		_ = os.Remove(filepath.Join(s.dir, prevName))
	}
	// Seal the active segment if the snapshot covers any of it, so those
	// records become truncatable now (or at the next snapshot).
	if s.actInfo.lastSeq != 0 && s.actInfo.firstSeq <= seq {
		if err := s.rollLocked(); err != nil {
			s.lastErr = err.Error()
			return fmt.Errorf("persist: rolling segment behind snapshot: %w", err)
		}
	}
	// Drop every sealed segment the snapshot fully covers.
	kept := s.sealed[:0]
	for _, seg := range s.sealed {
		if seg.lastSeq <= seq {
			_ = os.Remove(filepath.Join(s.dir, seg.name))
			s.truncatedSegments.Inc()
		} else {
			kept = append(kept, seg)
		}
	}
	s.sealed = kept
	s.snapshotSeconds.ObserveDuration(time.Since(start))
	return nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Dir:                s.dir,
		Fsync:              s.opt.Fsync.String(),
		LastSeq:            s.lastSeq,
		SnapshotSeq:        s.snapSeq,
		Segments:           len(s.sealed),
		ActiveSegmentBytes: s.actInfo.bytes,
		AppendedRecords:    s.appendedRecords.Value(),
		AppendedBytes:      s.appendedBytes.Value(),
		Fsyncs:             s.fsyncs.Value(),
		Snapshots:          s.snapshots.Value(),
		SnapshotFailures:   s.snapshotFailures.Value(),
		TruncatedSegments:  s.truncatedSegments.Value(),
		RecoveredSnapshot:  s.recSnapshot != nil,
		ReplayedRecords:    s.replayedRecords.Value(),
		SinceSnapRecords:   s.sinceSnapRecords,
		SinceSnapBytes:     s.sinceSnapBytes,
		LastError:          s.lastErr,
	}
	for _, seg := range s.sealed {
		st.WALBytes += seg.bytes
	}
	if s.active != nil {
		st.Segments++
		st.WALBytes += s.actInfo.bytes
	}
	return st
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// Close syncs and closes the WAL and releases the directory lock. It is
// idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.syncLocked()
	if s.active != nil {
		if cerr := s.active.Close(); err == nil {
			err = cerr
		}
		s.active = nil
	}
	flushStop := s.flushStop
	s.mu.Unlock()
	if flushStop != nil {
		close(flushStop)
		<-s.flushDone
	}
	s.unlock()
	return err
}
