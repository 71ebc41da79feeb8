package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// SaveFile writes a snapshot of the database to path atomically (via a
// temp file + rename in the same directory). Cold-tier payloads are
// read back and inlined so the file is portable — restoring it needs
// no cold directory.
func (db *DB) SaveFile(path string) error {
	return saveViewFile(db.view.Load(), db.shardDuration, path, true)
}

// saveViewFile serializes one pinned view to path atomically: temp
// file in the same directory, fsync, then rename. Checkpoint uses it
// with the view it cut the WAL boundary against and inlineCold=false
// (cold blocks stay file references — their bytes are already
// durable); export paths pass true for a self-contained file.
func saveViewFile(v *dbView, shardDuration int64, path string, inlineCold bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, snapshotTempPrefix+"*")
	if err != nil {
		return fmt.Errorf("tsdb: save %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if err := snapshotView(v, shardDuration, tmp, inlineCold); err != nil {
		_ = tmp.Close() // the snapshot error is the one worth reporting
		return fmt.Errorf("tsdb: save %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // the sync error is the one worth reporting
		return fmt.Errorf("tsdb: save %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("tsdb: save %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("tsdb: save %s: %w", path, err)
	}
	// Checkpoint deletes the log segments this snapshot covers next: the
	// rename must reach the disk before those deletions can.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("tsdb: save %s: %w", path, err)
	}
	return nil
}

// snapshotTempPrefix starts the name of the temp file saveViewFile
// writes before its rename.
const snapshotTempPrefix = ".monster-snapshot-"

// removeSnapshotTemps deletes the temp files of checkpoints that died
// between creating one and renaming it into place: the deferred remove
// died with the process and no other sweep matches the name, so each
// would otherwise sit in the directory, O(data) large, forever.
func removeSnapshotTemps(dir string) error {
	temps, err := listDir(dir, func(name string) (uint64, bool) {
		return 0, strings.HasPrefix(name, snapshotTempPrefix)
	})
	if err != nil {
		return err
	}
	for _, temp := range temps {
		if err := os.Remove(temp.path); err != nil {
			return fmt.Errorf("drop abandoned snapshot temp file: %w", err)
		}
	}
	return nil
}

// LoadFile restores a database from a snapshot file.
func LoadFile(path string) (*DB, error) { return loadFileOptions(path, Options{}) }

// loadFileOptions restores a snapshot file into a DB configured by
// opts (see RestoreOptions).
func loadFileOptions(path string, opts Options) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tsdb: load %s: %w", path, err)
	}
	defer f.Close()
	db, err := RestoreOptions(f, opts)
	if err != nil {
		return nil, fmt.Errorf("tsdb: load %s: %w", path, err)
	}
	return db, nil
}
