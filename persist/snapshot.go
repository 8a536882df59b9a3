package persist

// The snapshot store. A snapshot file holds one checkpoint envelope —
// the library's existing kind-tagged MarshalBinary output, reused
// verbatim as the payload — framed with the WAL sequence it covers and a
// CRC. Snapshots are written atomically (tmp + fsync + rename +
// directory fsync) and named by their sequence, so the directory listing
// alone orders them: recovery loads the newest file that validates.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	snapMagic  = "AGGSNAP1"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	// snapHeaderLen frames magic + u64 seq + u32 length + u32 CRC.
	snapHeaderLen = len(snapMagic) + 16
)

// snapshotName formats the filename for a snapshot covering WAL sequence
// seq.
func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix)
}

// parseSnapshotName extracts the covered sequence from a snapshot
// filename.
func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	digits := name[len(snapPrefix) : len(name)-len(snapSuffix)]
	if len(digits) != 20 {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// encodeSnapshot frames a checkpoint envelope for disk.
func encodeSnapshot(seq uint64, payload []byte) []byte {
	out := make([]byte, snapHeaderLen+len(payload))
	copy(out, snapMagic)
	binary.LittleEndian.PutUint64(out[len(snapMagic):], seq)
	binary.LittleEndian.PutUint32(out[len(snapMagic)+8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[len(snapMagic)+12:], crc32.Checksum(payload, crcTable))
	copy(out[snapHeaderLen:], payload)
	return out
}

// decodeSnapshot validates a snapshot file's contents and returns the
// covered sequence and the checkpoint envelope. Malformed input yields an
// error — never a panic, never an allocation beyond the input's length.
func decodeSnapshot(data []byte) (seq uint64, payload []byte, err error) {
	if len(data) < snapHeaderLen {
		return 0, nil, fmt.Errorf("%w: snapshot too short (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return 0, nil, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	seq = binary.LittleEndian.Uint64(data[len(snapMagic):])
	n := int(binary.LittleEndian.Uint32(data[len(snapMagic)+8:]))
	wantCRC := binary.LittleEndian.Uint32(data[len(snapMagic)+12:])
	if n != len(data)-snapHeaderLen {
		return 0, nil, fmt.Errorf("%w: snapshot payload length %d, have %d bytes", ErrCorrupt, n, len(data)-snapHeaderLen)
	}
	payload = data[snapHeaderLen:]
	if crc32.Checksum(payload, crcTable) != wantCRC {
		return 0, nil, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorrupt)
	}
	return seq, payload, nil
}

// readSnapshot loads and validates one snapshot file, checking that its
// framed sequence matches its filename.
func readSnapshot(dir, name string) (uint64, []byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return 0, nil, err
	}
	seq, payload, err := decodeSnapshot(data)
	if err != nil {
		return 0, nil, fmt.Errorf("snapshot %s: %w", name, err)
	}
	if nameSeq, ok := parseSnapshotName(name); !ok || nameSeq != seq {
		return 0, nil, fmt.Errorf("%w: snapshot %s frames seq %d", ErrCorrupt, name, seq)
	}
	return seq, payload, nil
}

// writeSnapshotFile atomically writes a snapshot covering seq and returns
// its name.
func writeSnapshotFile(dir string, seq uint64, payload []byte) (string, error) {
	name := snapshotName(seq)
	if err := writeFileAtomic(filepath.Join(dir, name), encodeSnapshot(seq, payload)); err != nil {
		return "", err
	}
	return name, nil
}

// writeFileAtomic writes data to path via a tmp file, fsync, rename, and
// directory fsync, so the path either holds the old content or the new.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
