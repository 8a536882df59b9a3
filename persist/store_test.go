package persist

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// collect reopens dir and returns the replayed batches plus the
// recovered snapshot payload.
func collect(t *testing.T, dir string, opt Options) (snap []byte, batches [][]uint64) {
	t.Helper()
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	snap, _ = st.RecoveredSnapshot()
	if err := st.Replay(func(items []uint64) error {
		b := make([]uint64, len(items))
		copy(b, items)
		batches = append(batches, b)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return snap, batches
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]uint64{{1, 2, 3}, {}, {42}, {7, 7, 7, 7}}
	for i, b := range want {
		seq, err := st.Append(b)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
	}
	if st.Position() != 4 {
		t.Fatalf("position %d, want 4", st.Position())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	snap, got := collect(t, dir, Options{})
	if snap != nil {
		t.Fatalf("unexpected recovered snapshot (%d bytes)", len(snap))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

func TestSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := st.Append([]uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteSnapshot([]byte("state@8"), 8); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.SnapshotSeq != 8 || stats.Snapshots != 1 {
		t.Fatalf("stats after snapshot: %+v", stats)
	}
	if stats.TruncatedSegments == 0 {
		t.Fatalf("no segments truncated: %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	snap, got := collect(t, dir, Options{})
	if string(snap) != "state@8" {
		t.Fatalf("recovered snapshot %q", snap)
	}
	if want := [][]uint64{{8}, {9}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

func TestSnapshotSeqValidation(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Append([]uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot([]byte("x"), 2); err == nil {
		t.Fatal("snapshot beyond WAL position accepted")
	}
	if err := st.WriteSnapshot([]byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot([]byte("y"), 0); err == nil {
		t.Fatal("stale snapshot accepted")
	}
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok && e.Name() > last {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatal("no segment files")
	}
	return filepath.Join(dir, last)
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Append([]uint64{uint64(i), uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-append leaves a partial frame at the tail.
	path := lastSegment(t, dir)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, got := collect(t, dir, Options{})
	if len(got) != 3 {
		t.Fatalf("replayed %d batches, want 3 (torn tail dropped)", len(got))
	}

	// And appends must continue cleanly after the repair.
	st2, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := st2.Append([]uint64{99}); err != nil || seq != 4 {
		t.Fatalf("append after repair: seq %d, %v", seq, err)
	}
	st2.Close()
	_, got = collect(t, dir, Options{})
	if len(got) != 4 || got[3][0] != 99 {
		t.Fatalf("after repair+append: %v", got)
	}
}

func TestCorruptSealedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 48})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := st.Append([]uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats().Segments < 2 {
		t.Fatalf("expected multiple segments, got %d", st.Stats().Segments)
	}
	st.Close()

	// Flip a payload byte in the FIRST (sealed) segment: that is real
	// corruption, not a torn tail, and recovery must refuse.
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt sealed segment: %v, want ErrCorrupt", err)
	}
}

// TestManifestUpgrade: a directory written by older versions holds a
// MANIFEST naming the snapshot they trusted. Caught between installing
// snap-4 and rewriting the MANIFEST, it still names snap-2. Open ignores
// the file, valid or damaged, recovers from the newest valid snapshot,
// and removes the file and the older snapshot.
func TestManifestUpgrade(t *testing.T) {
	// The older format: magic, u32 length, u32 CRC-32C, JSON.
	payload := []byte(`{"snapshot":"` + snapshotName(2) + `","seq":2}`)
	legacy := binary.LittleEndian.AppendUint32([]byte("AGGMAN01"), uint32(len(payload)))
	legacy = binary.LittleEndian.AppendUint32(legacy, crc32.Checksum(payload, crcTable))
	legacy = append(legacy, payload...)
	batch := func(i int) []uint64 { return []uint64{uint64(i), 9} }
	for name, manifest := range map[string][]byte{"valid": legacy, "damaged": []byte("scribble")} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{Fsync: FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			h := appendBatches(t, st, nil, 1, 4, batch)
			if err := st.WriteSnapshot(historyPayload(t, h[:2]), 2); err != nil {
				t.Fatal(err)
			}
			h = appendBatches(t, st, h, 5, 6, batch)
			st.Close()
			if _, err := writeSnapshotFile(dir, 4, historyPayload(t, h[:4])); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), manifest, 0o644); err != nil {
				t.Fatal(err)
			}

			snap, batches := collect(t, dir, Options{})
			if string(snap) != string(historyPayload(t, h[:4])) || !reflect.DeepEqual(batches, h[4:]) {
				t.Fatalf("recovered snapshot %s + %v, want snap-4 + %v", snap, batches, h[4:])
			}
			for _, gone := range []string{"MANIFEST", snapshotName(2)} {
				if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
					t.Fatalf("%s left behind: %v", gone, err)
				}
			}
			r, err := Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			if r.RecoverySeq != 4 {
				t.Fatalf("inspect recovery seq %d, want 4", r.RecoverySeq)
			}
		})
	}
}

// TestLostSnapshotGapRejected: once the WAL has been truncated behind a
// snapshot, losing that snapshot must fail recovery loudly — the empty
// segment's filename still promises records we no longer have.
func TestLostSnapshotGapRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Append([]uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteSnapshot([]byte("s"), 3); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := os.Remove(filepath.Join(dir, snapshotName(3))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with snapshot lost after truncation: %v, want ErrCorrupt", err)
	}
}

// TestStaleSnapshotCleanup: snapshot files recovery does not select —
// leaked by a crash between installing a newer snapshot and removing
// the older one — are deleted on the next Open instead of accumulating.
func TestStaleSnapshotCleanup(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := st.Append([]uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteSnapshot([]byte("current"), 4); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// A leaked older snapshot.
	if _, err := writeSnapshotFile(dir, 2, []byte("leaked")); err != nil {
		t.Fatal(err)
	}

	snap, _ := collect(t, dir, Options{})
	if string(snap) != "current" {
		t.Fatalf("recovered snapshot %q, want the newest", snap)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName(2))); !os.IsNotExist(err) {
		t.Fatalf("leaked snapshot not cleaned up: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName(4))); err != nil {
		t.Fatalf("selected snapshot missing: %v", err)
	}
}

func TestDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open: %v, want ErrLocked", err)
	}
}

func TestClosedStore(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := st.Append([]uint64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := st.WriteSnapshot(nil, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot after close: %v", err)
	}
}

func TestSnapshotTrigger(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Fsync: FsyncNever, SnapshotRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 3; i++ {
		select {
		case <-st.SnapshotTrigger():
			t.Fatalf("trigger fired after %d records", i)
		default:
		}
		if _, err := st.Append([]uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-st.SnapshotTrigger():
	default:
		t.Fatal("trigger did not fire at the record threshold")
	}
}

func TestParseFsync(t *testing.T) {
	for _, tc := range []struct {
		s  string
		p  Fsync
		ok bool
	}{
		{"always", FsyncAlways, true},
		{"interval", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"sometimes", 0, false},
	} {
		p, err := ParseFsync(tc.s)
		if (err == nil) != tc.ok || p != tc.p {
			t.Fatalf("ParseFsync(%q) = %v, %v", tc.s, p, err)
		}
		if tc.ok && p.String() != tc.s {
			t.Fatalf("String() = %q, want %q", p.String(), tc.s)
		}
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Append([]uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteSnapshot([]byte("s"), 3); err != nil {
		t.Fatal(err)
	}
	st.Close()

	r, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshots) != 1 || !r.Snapshots[0].Valid || r.RecoverySeq != 3 {
		t.Fatalf("inspect snapshots: %+v", r)
	}
	if r.ReplayFrom != 4 || r.ReplayTo != 5 || r.ReplayRecords != 2 {
		t.Fatalf("inspect replay span: %+v", r)
	}
	for _, sg := range r.Segments {
		if sg.Corrupt != "" {
			t.Fatalf("segment flagged: %+v", sg)
		}
	}
}
