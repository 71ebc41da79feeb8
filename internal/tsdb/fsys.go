package tsdb

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// fsys is every file-system call this package makes: osFS in
// production, a failing and crashing double in tests (Options.fs).
type fsys interface {
	OpenFile(path string, flag int) (file, error) // flag: readOnly, readWrite or createNew
	CreateTemp(dir, prefix string) (file, error)
	ReadDir(dir string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	Mkdir(dir string) error
	SyncDir(dir string) error // makes the entries created, renamed or removed in dir durable
}

// file is what this package does with an open file.
type file interface {
	io.ReadWriter
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
	Name() string
	Stat() (os.FileInfo, error)
}

// OpenFile flags; createNew fails where the file exists.
const (
	readOnly  = os.O_RDONLY
	readWrite = os.O_RDWR
	createNew = os.O_RDWR | os.O_CREATE | os.O_EXCL
)

// osFS is the file system itself.
type osFS struct{}

func (osFS) OpenFile(path string, flag int) (file, error) { return os.OpenFile(path, flag, 0o644) }
func (osFS) CreateTemp(dir, prefix string) (file, error)  { return os.CreateTemp(dir, prefix+"*") }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error)    { return os.ReadDir(dir) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) Mkdir(dir string) error                       { return os.Mkdir(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = errors.Join(d.Sync(), d.Close())
	}
	if err != nil {
		return fmt.Errorf("sync directory %s: %w", dir, err)
	}
	return nil
}

// fileSystem is the fsys opts selects.
func (o Options) fileSystem() fsys {
	if o.fs == nil {
		return osFS{}
	}
	return o.fs
}

// mkdirAll creates dir and any missing parent, fsyncing the parent of
// each directory it creates: until then the directory, and every write
// acknowledged inside it, can vanish in a power cut.
func mkdirAll(fs fsys, dir string) error {
	err := fs.Mkdir(dir)
	if parent := filepath.Dir(dir); errors.Is(err, os.ErrNotExist) && parent != dir {
		if err = mkdirAll(fs, parent); err == nil {
			err = fs.Mkdir(dir)
		}
	}
	if err == nil {
		err = fs.SyncDir(filepath.Dir(dir))
	} else if errors.Is(err, os.ErrExist) {
		err = nil
	}
	return err
}
