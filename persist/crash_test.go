package persist

// Crash states of one WriteSnapshot, at file granularity. The directory
// is read before and after the call; a crash can leave any mix of the
// files the call added or overwrote, but removals happen only after the
// new snapshot is durable, and covered segments go in name order. Every
// such state must recover to what the before- or the after-directory
// recovers to.

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// historyPayload encodes the whole item history as a snapshot payload,
// so snapshot + replay can be checked against the oracle.
func historyPayload(t *testing.T, h [][]uint64) []byte {
	t.Helper()
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recoveredHistory opens dir and returns the snapshot's history followed
// by the replayed batches.
func recoveredHistory(t *testing.T, dir string) [][]uint64 {
	t.Helper()
	snap, batches := collect(t, dir, Options{})
	h := [][]uint64{}
	if snap != nil {
		if err := json.Unmarshal(snap, &h); err != nil {
			t.Fatalf("snapshot payload: %v", err)
		}
	}
	return append(h, batches...)
}

// readFiles returns dir's files by name, LOCK excluded.
func readFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// writeFiles materialises files in a fresh directory.
func writeFiles(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// crashStates lists every directory state a crash during the change
// before → after may leave, plus before with a torn snapshot temp file.
func crashStates(before, after map[string][]byte) []map[string][]byte {
	var changed, segRemoved, otherRemoved []string
	for name, data := range after {
		if old, ok := before[name]; !ok || !bytes.Equal(old, data) {
			changed = append(changed, name)
		}
	}
	for name := range before {
		if _, ok := after[name]; ok {
			continue
		}
		if _, seg := parseSegmentName(name); seg {
			segRemoved = append(segRemoved, name)
		} else {
			otherRemoved = append(otherRemoved, name)
		}
	}
	sort.Strings(changed)
	sort.Strings(segRemoved)
	sort.Strings(otherRemoved)

	var states []map[string][]byte
	for mask := 0; mask < 1<<len(changed); mask++ {
		st := maps.Clone(before)
		nonSegApplied := true
		for i, name := range changed {
			_, seg := parseSegmentName(name)
			if mask&(1<<i) != 0 {
				st[name] = after[name]
			} else if !seg {
				nonSegApplied = false
			}
		}
		states = append(states, st)
		if !nonSegApplied {
			continue
		}
		for rmask := 0; rmask < 1<<len(otherRemoved); rmask++ {
			for k := 0; k <= len(segRemoved); k++ {
				if rmask == 0 && k == 0 {
					continue
				}
				rs := maps.Clone(st)
				for i, name := range otherRemoved {
					if rmask&(1<<i) != 0 {
						delete(rs, name)
					}
				}
				for _, name := range segRemoved[:k] {
					delete(rs, name)
				}
				states = append(states, rs)
			}
		}
	}
	for _, name := range changed {
		if _, ok := parseSnapshotName(name); ok {
			torn := maps.Clone(before)
			torn[name+".tmp-1"] = after[name][:len(after[name])/2]
			states = append(states, torn)
		}
	}
	return states
}

func TestSnapshotCrashStates(t *testing.T) {
	batch := func(i int) []uint64 { return []uint64{uint64(i), uint64(i * 7)} }
	for _, tc := range []struct {
		name string
		opt  Options
		// prepare appends and snapshots up to the before-state and
		// returns the history so far; the snapshot under test is then
		// (payload, seq) with the after-state's oracle history.
		prepare  func(t *testing.T, st *Store) [][]uint64
		snapshot func(h [][]uint64) (payload [][]uint64, seq uint64, after [][]uint64)
	}{
		{
			name: "first",
			opt:  Options{Fsync: FsyncNever},
			prepare: func(t *testing.T, st *Store) [][]uint64 {
				return appendBatches(t, st, nil, 1, 5, batch)
			},
			snapshot: func(h [][]uint64) ([][]uint64, uint64, [][]uint64) {
				return h[:3], 3, h
			},
		},
		{
			name: "supersede",
			opt:  Options{Fsync: FsyncNever, SegmentBytes: 1},
			prepare: func(t *testing.T, st *Store) [][]uint64 {
				h := appendBatches(t, st, nil, 1, 4, batch)
				if err := st.WriteSnapshot(historyPayload(t, h[:2]), 2); err != nil {
					t.Fatal(err)
				}
				return appendBatches(t, st, h, 5, 7, batch)
			},
			snapshot: func(h [][]uint64) ([][]uint64, uint64, [][]uint64) {
				return h, 7, h
			},
		},
		{
			name: "restore",
			opt:  Options{Fsync: FsyncNever},
			prepare: func(t *testing.T, st *Store) [][]uint64 {
				h := appendBatches(t, st, nil, 1, 3, batch)
				if err := st.WriteSnapshot(historyPayload(t, h), 3); err != nil {
					t.Fatal(err)
				}
				return h
			},
			snapshot: func([][]uint64) ([][]uint64, uint64, [][]uint64) {
				restored := [][]uint64{{100, 200}, {300}}
				return restored, 3, restored
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			h := tc.prepare(t, st)
			before := readFiles(t, dir)
			payload, seq, afterHist := tc.snapshot(h)
			if err := st.WriteSnapshot(historyPayload(t, payload), seq); err != nil {
				t.Fatal(err)
			}
			after := readFiles(t, dir)

			wantBefore := recoveredHistory(t, writeFiles(t, before))
			wantAfter := recoveredHistory(t, writeFiles(t, after))
			if !reflect.DeepEqual(wantBefore, h) {
				t.Fatalf("before-state recovers %v, oracle %v", wantBefore, h)
			}
			if !reflect.DeepEqual(wantAfter, afterHist) {
				t.Fatalf("after-state recovers %v, oracle %v", wantAfter, afterHist)
			}
			states := crashStates(before, after)
			for i, files := range states {
				got := recoveredHistory(t, writeFiles(t, files))
				if !reflect.DeepEqual(got, wantBefore) && !reflect.DeepEqual(got, wantAfter) {
					t.Fatalf("crash state %d (%v) recovers %v; want %v or %v",
						i, slices.Sorted(maps.Keys(files)), got, wantBefore, wantAfter)
				}
			}
			t.Logf("%d crash states", len(states))
		})
	}
}

// appendBatches appends batch(from..to) and returns h extended by them.
func appendBatches(t *testing.T, st *Store, h [][]uint64, from, to int, batch func(int) []uint64) [][]uint64 {
	t.Helper()
	for i := from; i <= to; i++ {
		b := batch(i)
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
		h = append(h, b)
	}
	return h
}

// TestCoveredSegmentGapTolerated: a failed or reordered removal of
// segments the snapshot fully covers can leave a hole below the
// snapshot's position. No record recovery needs is missing, so Open
// must not refuse the directory.
func TestCoveredSegmentGapTolerated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := appendBatches(t, st, nil, 1, 8, func(i int) []uint64 { return []uint64{uint64(i)} })
	wal4, err := os.ReadFile(filepath.Join(dir, segmentName(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(historyPayload(t, h[:6]), 6); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// wal-4 survives its removal while wal-5 and wal-6 are gone.
	if err := os.WriteFile(filepath.Join(dir, segmentName(4)), wal4, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := recoveredHistory(t, dir); !reflect.DeepEqual(got, h) {
		t.Fatalf("recovered %v, oracle %v", got, h)
	}
}
