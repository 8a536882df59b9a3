package persist

// Read-only introspection of a data directory, behind `streamtool
// inspect <dir>`: every snapshot, every segment's record count and
// sequence span, the replay span a recovery would perform, and any CRC
// damage — without taking the directory lock, so it works on a live
// server's directory.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SegmentReport describes one WAL segment on disk.
type SegmentReport struct {
	Name     string `json:"name"`
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"` // 0 when the segment holds no valid record
	Records  int64  `json:"records"`
	Bytes    int64  `json:"bytes"`       // file size
	ValidTo  int64  `json:"valid_bytes"` // prefix that scans clean
	Corrupt  string `json:"corrupt,omitempty"`
}

// SnapshotReport describes one snapshot file on disk.
type SnapshotReport struct {
	Name    string `json:"name"`
	Seq     uint64 `json:"seq"`
	Bytes   int64  `json:"bytes"`
	Valid   bool   `json:"valid"`
	Problem string `json:"problem,omitempty"`
}

// Report is everything Inspect learns about a data directory.
type Report struct {
	Dir           string           `json:"dir"`
	Snapshots     []SnapshotReport `json:"snapshots"`
	Segments      []SegmentReport  `json:"segments"`
	RecoverySeq   uint64           `json:"recovery_snapshot_seq"` // newest valid snapshot, which recovery loads
	ReplayFrom    uint64           `json:"replay_from"`           // first record replay would apply
	ReplayTo      uint64           `json:"replay_to"`             // last record replay would apply (0 = none)
	ReplayRecords int64            `json:"replay_records"`
}

// Inspect scans dir without modifying it and reports what recovery would
// see. Unlike Open it keeps going past damage, flagging it per file.
func Inspect(dir string) (*Report, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	r := &Report{Dir: dir}

	var segNames, snapNames []string
	for _, e := range entries {
		name := e.Name()
		if strings.Contains(name, ".tmp-") {
			continue
		}
		switch {
		case strings.HasPrefix(name, walPrefix) && strings.HasSuffix(name, walSuffix):
			segNames = append(segNames, name)
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			snapNames = append(snapNames, name)
		}
	}

	sort.Strings(snapNames)
	for _, name := range snapNames {
		sr := SnapshotReport{Name: name}
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
			sr.Bytes = fi.Size()
		}
		seq, _, err := readSnapshot(dir, name)
		if err != nil {
			sr.Problem = err.Error()
		} else {
			sr.Seq, sr.Valid = seq, true
			r.RecoverySeq = max(r.RecoverySeq, seq)
		}
		r.Snapshots = append(r.Snapshots, sr)
	}

	type seg struct {
		name     string
		firstSeq uint64
	}
	var segs []seg
	for _, name := range segNames {
		if firstSeq, ok := parseSegmentName(name); ok {
			segs = append(segs, seg{name, firstSeq})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	for i, sg := range segs {
		final := i == len(segs)-1
		sr := SegmentReport{Name: sg.name, FirstSeq: sg.firstSeq}
		path := filepath.Join(dir, sg.name)
		f, err := os.Open(path)
		if err != nil {
			sr.Corrupt = err.Error()
			r.Segments = append(r.Segments, sr)
			continue
		}
		fi, err := f.Stat()
		if err == nil {
			sr.Bytes = fi.Size()
			valid, lastSeq, scanErr := scanSegment(f, fi.Size(), sg.firstSeq, nil)
			sr.ValidTo, sr.LastSeq = valid, lastSeq
			if lastSeq != 0 {
				sr.Records = int64(lastSeq - sg.firstSeq + 1)
			}
			if scanErr != nil && !(final && isTorn(scanErr)) {
				sr.Corrupt = scanErr.Error()
			} else if scanErr != nil {
				sr.Corrupt = fmt.Sprintf("torn tail (tolerated): %v", scanErr)
			}
		} else {
			sr.Corrupt = err.Error()
		}
		f.Close()
		r.Segments = append(r.Segments, sr)

		if sr.LastSeq > r.RecoverySeq {
			lo := sg.firstSeq
			if lo <= r.RecoverySeq {
				lo = r.RecoverySeq + 1
			}
			if r.ReplayFrom == 0 {
				r.ReplayFrom = lo
			}
			r.ReplayTo = sr.LastSeq
			r.ReplayRecords += int64(sr.LastSeq - lo + 1)
		}
	}
	return r, nil
}
