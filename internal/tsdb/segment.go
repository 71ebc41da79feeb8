package tsdb

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Segment files: the container under both the write-ahead log
// (wal-<seq>.seg) and the cold tier (cold-<shard>-<gen>.seg) — a codec
// file header, then CRC frames (codec.go) only ever added at the tail.
// This file is the one place either of them creates, appends to, syncs
// or lists one:
//
//   - createSegment creates the file exclusively, writes its header and
//     fsyncs the directory, so a segment whose frames are synced later
//     cannot lose its directory entry to a power cut;
//   - segment.append writes one sealed frame at the tail. A write that
//     fails part-way is truncated back off the file before the error
//     returns, so a torn frame never sits ahead of a later one: WAL
//     recovery keeps a segment only up to its first bad frame;
//   - a failure the segment cannot undo latches, and every later append
//     and sync returns it: a torn frame the truncate could not remove,
//     or a failed fsync (the kernel may have dropped the dirty pages and
//     marked them clean, so a retry that succeeds proves nothing);
//   - listDir is the one directory scan.

// segmentFile is what a segment needs of its file: an *os.File, or a
// failing double in tests.
type segmentFile interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// segment is one open segment file. Its owner serializes append, sync
// and close under its own mutex; ReadAt is safe beside them.
type segment struct {
	name  string
	f     segmentFile
	size  int64 // header plus whole frames: where the next frame goes
	dirty bool  // appended to since the last sync
	err   error // the latched failure, once there is one
}

// createSegment creates dir/name, which must not exist yet, with header
// as its first bytes.
func createSegment(dir, name string, header []byte) (*segment, error) {
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("create segment: %w", err)
	}
	if _, err := f.WriteAt(header, 0); err != nil {
		return nil, errors.Join(fmt.Errorf("segment %s: header: %w", name, err), f.Close(), os.Remove(path))
	}
	if err := syncDir(dir); err != nil {
		return nil, errors.Join(err, f.Close(), os.Remove(path))
	}
	return &segment{name: name, f: f, size: int64(len(header))}, nil
}

// append writes frame, already sealed, at the segment's tail.
func (s *segment) append(frame []byte) error {
	if s.err != nil {
		return s.err
	}
	if _, err := s.f.WriteAt(frame, s.size); err != nil {
		err = fmt.Errorf("segment %s: append: %w", s.name, err)
		if terr := s.f.Truncate(s.size); terr != nil {
			s.err = fmt.Errorf("segment %s: torn frame at offset %d left in place: %w", s.name, s.size, terr)
			return errors.Join(err, s.err)
		}
		return err
	}
	s.size += int64(len(frame))
	s.dirty = true
	return nil
}

// sync fsyncs the segment.
func (s *segment) sync() error {
	if s.err != nil {
		return s.err
	}
	if err := s.f.Sync(); err != nil {
		s.err = fmt.Errorf("segment %s: fsync: %w", s.name, err)
		return s.err
	}
	s.dirty = false
	return nil
}

// syncDir fsyncs a directory, making the entries created or renamed in
// it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sync directory: %w", err)
	}
	if err := d.Sync(); err != nil {
		return errors.Join(fmt.Errorf("sync directory %s: %w", dir, err), d.Close())
	}
	return d.Close()
}

// dirFile is one file listDir found.
type dirFile struct {
	name string
	path string
	key  uint64 // the number its name carries
	size int64
}

// listDir returns the files in dir whose name parse accepts, ordered by
// the key parse returns for each.
func listDir(dir string, parse func(name string) (key uint64, ok bool)) ([]dirFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []dirFile
	for _, e := range entries {
		key, ok := parse(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		files = append(files, dirFile{name: e.Name(), path: filepath.Join(dir, e.Name()), key: key, size: info.Size()})
	}
	sort.SliceStable(files, func(i, j int) bool { return files[i].key < files[j].key })
	return files, nil
}

// parseNumbered returns n when name is exactly fmt.Sprintf(format, n):
// the listDir parser behind the log's numbered file names.
func parseNumbered(format, name string) (uint64, bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, format, &n); err != nil || fmt.Sprintf(format, n) != name {
		return 0, false
	}
	return n, true
}
