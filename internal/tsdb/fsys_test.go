package tsdb

import (
	"errors"
	"fmt"
	goparser "go/parser"
	gotoken "go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// errInjected is the failure faultFS returns.
var errInjected = errors.New("injected I/O failure")

// faultOp names the call faultFS.fail arms.
type faultOp int

const (
	opWrite    faultOp = iota // Write or WriteAt: half the bytes land, then the error (a full disk)
	opTruncate                // Truncate
	opSync                    // a file's fsync
	opReadAt                  // ReadAt (EIO)
	opRename                  // Rename, matched on the old path
	opRemove                  // Remove
	opSyncDir                 // a directory's fsync
	opReadDir                 // ReadDir
)

// faultFS is the real file system under root, plus two things a test
// arms explicitly: a failing call, and a power cut. It also remembers
// what each fsync made durable, so crash can rewind the tree to it.
// Every call takes one mutex: cold-tier preads run outside the tier's
// own lock.
type faultFS struct {
	osFS
	root string

	mu      sync.Mutex
	live    map[string]*fsNode            // every path under root now
	durable map[string]map[string]*fsNode // directory -> its entries at its last fsync
	faults  []*fault
}

// fsNode is one file or directory, whatever name it has now.
type fsNode struct {
	dir    bool
	synced []byte // a file's bytes at its last fsync
}

type fault struct {
	op   faultOp
	path string // "" matches any path
	left int    // matching calls until it fires
}

// newFaultFS wraps root, taking every file and directory already under
// it as durable.
func newFaultFS(t *testing.T, root string) *faultFS {
	t.Helper()
	ffs := &faultFS{root: root, live: map[string]*fsNode{}, durable: map[string]map[string]*fsNode{root: {}}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		n := &fsNode{dir: d.IsDir()}
		if n.dir {
			ffs.durable[path] = map[string]*fsNode{}
		} else if n.synced, err = os.ReadFile(path); err != nil {
			return err
		}
		ffs.live[path] = n
		ffs.durable[filepath.Dir(path)][d.Name()] = n
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ffs
}

// fail arms the n-th call from now (1 is the next) of op on path to
// fail; path "" matches every path.
func (f *faultFS) fail(op faultOp, path string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = append(f.faults, &fault{op: op, path: path, left: n})
}

// fire counts one call of op on path against the armed faults and
// reports errInjected when one of them fires.
func (f *faultFS) fire(op faultOp, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, ft := range f.faults {
		if ft.op != op || (ft.path != "" && ft.path != path) {
			continue
		}
		if ft.left--; ft.left == 0 {
			f.faults = append(f.faults[:i], f.faults[i+1:]...)
			return errInjected
		}
	}
	return nil
}

// crash is a power cut: every file goes back to the bytes of its last
// fsync, and every directory to the entries of its last fsync. Handles
// opened before it write to files no longer in the tree, so the DB that
// held them must be abandoned.
func (f *faultFS) crash(t *testing.T) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	entries, err := os.ReadDir(f.root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(f.root, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	f.live, f.faults = map[string]*fsNode{}, nil
	if err := f.restore(f.root); err != nil {
		t.Fatal(err)
	}
}

func (f *faultFS) restore(dir string) error {
	for name, n := range f.durable[dir] {
		path := filepath.Join(dir, name)
		f.live[path] = n
		if !n.dir {
			if err := os.WriteFile(path, n.synced, 0o644); err != nil {
				return err
			}
			continue
		}
		if err := os.Mkdir(path, 0o755); err != nil {
			return err
		}
		if err := f.restore(path); err != nil {
			return err
		}
	}
	return nil
}

// created enters a file just created at path.
func (f *faultFS) created(path string) *fsNode {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := &fsNode{}
	f.live[path] = n
	return n
}

func (f *faultFS) wrap(osf file, n *fsNode, path string) file {
	return &faultHandle{file: osf, fs: f, node: n, path: path}
}

func (f *faultFS) OpenFile(path string, flag int) (file, error) {
	osf, err := f.osFS.OpenFile(path, flag)
	if err != nil {
		return nil, err
	}
	if flag&os.O_CREATE != 0 {
		return f.wrap(osf, f.created(path), path), nil
	}
	f.mu.Lock()
	n := f.live[path]
	f.mu.Unlock()
	if n == nil {
		n = f.created(path) // made behind the fs's back: never durable
	}
	return f.wrap(osf, n, path), nil
}

func (f *faultFS) CreateTemp(dir, prefix string) (file, error) {
	osf, err := f.osFS.CreateTemp(dir, prefix)
	if err != nil {
		return nil, err
	}
	return f.wrap(osf, f.created(osf.Name()), osf.Name()), nil
}

func (f *faultFS) ReadDir(dir string) ([]os.DirEntry, error) {
	if err := f.fire(opReadDir, dir); err != nil {
		return nil, err
	}
	return f.osFS.ReadDir(dir)
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if err := f.fire(opRename, oldpath); err != nil {
		return err
	}
	if err := f.osFS.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.live[newpath] = f.live[oldpath]
	delete(f.live, oldpath)
	return nil
}

func (f *faultFS) Remove(path string) error {
	if err := f.fire(opRemove, path); err != nil {
		return err
	}
	if err := f.osFS.Remove(path); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.live, path)
	return nil
}

func (f *faultFS) Mkdir(dir string) error {
	if err := f.osFS.Mkdir(dir); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.live[dir] = &fsNode{dir: true}
	f.durable[dir] = map[string]*fsNode{}
	return nil
}

func (f *faultFS) SyncDir(dir string) error {
	if err := f.fire(opSyncDir, dir); err != nil {
		return err
	}
	if err := f.osFS.SyncDir(dir); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	entries := map[string]*fsNode{}
	for path, n := range f.live {
		if filepath.Dir(path) == dir {
			entries[filepath.Base(path)] = n
		}
	}
	f.durable[dir] = entries
	return nil
}

// faultHandle is an open file of a faultFS.
type faultHandle struct {
	file
	fs   *faultFS
	node *fsNode
	path string // the name it was opened under
}

func (h *faultHandle) Write(b []byte) (int, error) {
	if err := h.fs.fire(opWrite, h.path); err != nil {
		n, werr := h.file.Write(b[:len(b)/2])
		return n, errors.Join(err, werr)
	}
	return h.file.Write(b)
}

func (h *faultHandle) WriteAt(b []byte, off int64) (int, error) {
	if err := h.fs.fire(opWrite, h.path); err != nil {
		n, werr := h.file.WriteAt(b[:len(b)/2], off)
		return n, errors.Join(err, werr)
	}
	return h.file.WriteAt(b, off)
}

func (h *faultHandle) ReadAt(b []byte, off int64) (int, error) {
	if err := h.fs.fire(opReadAt, h.path); err != nil {
		return 0, err
	}
	return h.file.ReadAt(b, off)
}

func (h *faultHandle) Truncate(size int64) error {
	if err := h.fs.fire(opTruncate, h.path); err != nil {
		return err
	}
	return h.file.Truncate(size)
}

// Sync makes the file's current bytes the ones a crash keeps. A failed
// fsync keeps the previous ones.
func (h *faultHandle) Sync() error {
	if err := h.fs.fire(opSync, h.path); err != nil {
		return err
	}
	if err := h.file.Sync(); err != nil {
		return err
	}
	st, err := h.file.Stat()
	if err != nil {
		return err
	}
	b := make([]byte, st.Size())
	if _, err := h.file.ReadAt(b, 0); err != nil {
		return err
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.node.synced = b
	return nil
}

// TestFileAccessOnlyThroughFS pins the seam: fsys.go is the one file of
// the package that imports os, so every file-system call goes through
// fsys, and faultFS sees it.
func TestFileAccessOnlyThroughFS(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := gotoken.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "fsys.go" {
			continue
		}
		f, err := goparser.ParseFile(fset, name, nil, goparser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "os" || path == "syscall" {
				t.Errorf("%s imports %s: file-system calls go through fsys (fsys.go)", fset.Position(imp.Pos()), path)
			}
		}
	}
}

// faultRig is a durable DB on a faultFS, with a cold tier and a log
// that rotates every few records, plus a resident twin holding exactly
// the batches the DB acknowledged.
type faultRig struct {
	t               *testing.T
	fs              *faultFS
	walDir, coldDir string
	db, ref         *DB
	n               int // points written so far
}

func newFaultRig(t *testing.T, walDir, coldDir string) *faultRig {
	root := t.TempDir()
	r := &faultRig{t: t, fs: newFaultFS(t, root), walDir: filepath.Join(root, walDir), coldDir: filepath.Join(root, coldDir)}
	r.db = r.open(r.fs)
	r.ref = Open(Options{ShardDuration: 3600})
	return r
}

// open opens the rig's directories on fs.
func (r *faultRig) open(fs fsys) *DB {
	r.t.Helper()
	db, _, err := OpenDurable(Options{ShardDuration: 3600, BlockSize: 8, ColdDir: r.coldDir, fs: fs},
		WALOptions{Dir: r.walDir, Policy: FsyncAlways, SegmentSize: 256})
	if err != nil {
		r.t.Fatal(err)
	}
	return db
}

// write writes the next point, mirroring it into the twin once the DB
// acknowledges it.
func (r *faultRig) write() error {
	p := walPoint(strconv.Itoa(r.n%2), int64(60*(r.n/2)), float64(r.n))
	r.n++
	err := r.db.WritePoint(p)
	if err == nil {
		err = r.ref.WritePoint(p)
	}
	return err
}

func (r *faultRig) writeN(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		if err := r.write(); err != nil {
			r.t.Fatal(err)
		}
	}
}

const faultRigQuery = `SELECT "Reading" FROM "Power" GROUP BY "NodeId"`

// requireAcked fails unless db answers exactly what the twin holds.
func (r *faultRig) requireAcked(state string, db *DB) {
	r.t.Helper()
	if got, want := queryAll(r.t, db, faultRigQuery), queryAll(r.t, r.ref, faultRigQuery); got != want {
		r.t.Fatalf("%s answers:\n%s\nwant the acknowledged:\n%s", state, got, want)
	}
}

// crashAndRecover cuts the power and recovers on the real file system.
func (r *faultRig) crashAndRecover() {
	r.t.Helper()
	r.fs.crash(r.t)
	r.requireAcked("after a crash, recovery", r.open(nil))
}

// TestCrashTornTailCutIsSynced opens a log whose segment 1 ends in a
// torn frame, acknowledges batches into the next segment, and cuts the
// power. Recovery's cut of segment 1 must be durable: were the torn
// bytes back, the next recovery would stop at them again and delete the
// next segment with every batch acknowledged in it.
func TestCrashTornTailCutIsSynced(t *testing.T) {
	dir := t.TempDir()
	db, _ := crashOpen(t, dir, WALOptions{Policy: FsyncAlways})
	for i := 0; i < 3; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := os.OpenFile(walSegmentPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write([]byte{1, 2, 3}); err != nil { // part of a frame header
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	fs := newFaultFS(t, dir)
	db, info := crashOpenFS(t, fs, dir, WALOptions{Policy: FsyncAlways})
	if info.TornFrames != 1 {
		t.Fatalf("recovery = %+v, want the torn frame found", info)
	}
	for i := 3; i < 6; i++ {
		if err := db.WritePoint(walPoint("n1", int64(60*i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	fs.crash(t)
	db2, info := crashOpen(t, dir, WALOptions{Policy: FsyncNever})
	if got := db2.Disk().Points; got != 6 || info.TornFrames != 0 {
		t.Fatalf("recovered %d points and %d torn frames after the crash, want all 6 acknowledged and none", got, info.TornFrames)
	}
}

// TestCrashNewDirsAreDurable opens a log and a cold tier in nested
// directories that do not exist yet, acknowledges, spills and
// checkpoints, and cuts the power: each directory created must be
// durable in its parent, or everything in it is gone.
func TestCrashNewDirsAreDurable(t *testing.T) {
	r := newFaultRig(t, "a/wal", "b/cold")
	r.writeN(40)
	if n, err := r.db.SpillCold(math.MaxInt64); n == 0 || err != nil {
		t.Fatalf("spill: %d blocks, err %v", n, err)
	}
	if err := r.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.writeN(10)
	r.crashAndRecover()
}

// TestCrashFaultOutcomes fails, one at a time, the calls no test could
// fail before the file-system seam. Each error surfaces, the DB goes on
// as the case says, and neither a query nor a recovery after a crash
// answers less than was acknowledged.
func TestCrashFaultOutcomes(t *testing.T) {
	for _, c := range []struct {
		name string
		arm  func(r *faultRig)
		// act meets the fault and returns its error; then the DB goes on.
		act, then func(r *faultRig) error
	}{
		{
			name: "snapshot rename",
			arm:  func(r *faultRig) { r.fs.fail(opRename, "", 1) },
			act:  func(r *faultRig) error { return r.db.Checkpoint() },
			then: func(r *faultRig) error {
				if _, err := os.Stat(walSegmentPath(r.walDir, 1)); err != nil {
					return fmt.Errorf("the failed checkpoint truncated the log: %w", err)
				}
				r.writeN(10)
				return r.db.Checkpoint()
			},
		},
		{
			name: "directory fsync on rotation",
			arm:  func(r *faultRig) { r.fs.fail(opSyncDir, r.walDir, 1) },
			act: func(r *faultRig) error {
				for i := 0; i < 100; i++ { // a few records fill a segment
					if err := r.write(); err != nil {
						return err
					}
				}
				return nil
			},
			then: func(r *faultRig) error {
				if r.write() == nil {
					return errors.New("the log took a write after its rotation failed")
				}
				return nil
			},
		},
		{
			name: "remove in truncateBefore",
			arm:  func(r *faultRig) { r.fs.fail(opRemove, walSegmentPath(r.walDir, 1), 1) },
			act:  func(r *faultRig) error { return r.db.Checkpoint() },
			then: func(r *faultRig) error {
				r.writeN(10)
				return r.db.Checkpoint()
			},
		},
		{
			name: "cold pread",
			arm:  func(r *faultRig) { r.fs.fail(opReadAt, "", 1) },
			act: func(r *faultRig) error {
				_, err := r.db.Query(faultRigQuery)
				return err
			},
			then: func(r *faultRig) error { return nil },
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newFaultRig(t, "wal", "cold")
			r.writeN(40)
			if n, err := r.db.SpillCold(math.MaxInt64); n == 0 || err != nil {
				t.Fatalf("spill: %d blocks, err %v", n, err)
			}
			c.arm(r)
			if err := c.act(r); !errors.Is(err, errInjected) {
				t.Fatalf("err %v, want the injected failure", err)
			}
			if err := c.then(r); err != nil {
				t.Fatal(err)
			}
			r.requireAcked("after the fault, the live DB", r.db)
			r.crashAndRecover()
		})
	}
}

// TestFaultFSCrash pins the fake's power cut: a file keeps the bytes of
// its last fsync, and a directory the entries of its last fsync, with
// what existed when the fs was made counting as synced.
func TestFaultFSCrash(t *testing.T) {
	root := t.TempDir()
	path := func(name string) string { return filepath.Join(root, name) }
	if err := os.WriteFile(path("old"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := newFaultFS(t, root)
	write := func(name, data string, sync bool) {
		f, err := fs.OpenFile(path(name), readWrite|os.O_CREATE)
		if err == nil {
			_, err = f.Write([]byte(data))
		}
		if err == nil && sync {
			err = f.Sync()
		}
		if err = errors.Join(err, f.Close()); err != nil {
			t.Fatal(err)
		}
	}
	write("synced", "kept", true)
	write("unsynced", "lost", false)
	if err := fs.SyncDir(root); err != nil {
		t.Fatal(err)
	}
	write("synced", " and lost", false)
	write("undurable", "lost with its entry", true)
	if err := fs.Remove(path("old")); err != nil {
		t.Fatal(err)
	}
	fs.crash(t)
	for name, want := range map[string]string{"old": "old", "synced": "kept", "unsynced": ""} {
		if got, err := os.ReadFile(path(name)); err != nil || string(got) != want {
			t.Errorf("%s after the crash: %q, %v; want %q", name, got, err, want)
		}
	}
	if _, err := os.Stat(path("undurable")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a file whose entry was never synced survived the crash: %v", err)
	}
}
