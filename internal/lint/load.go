package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// Loader parses and type-checks packages of the enclosing module
// without external tooling: module-internal imports are resolved by
// walking the module tree, and dependency (standard-library) imports
// are resolved from the toolchain's compiled export data when `go
// list -export` is available, falling back to go/importer's "source"
// compiler mode (which needs no pre-built export data and no network)
// otherwise.
//
// Loaders rooted at the same module share one process-wide cache —
// file set, importers, and checked packages — so every driver in a
// process (the repo sweep, the fixture suite, the selftest harness,
// the fuzz targets) parses and type-checks each package exactly once.
// Loaders are not safe for concurrent use.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string
	shared     *moduleCache
}

// moduleCache is the per-module-root state every Loader for that root
// shares: one FileSet (so cached positions stay resolvable), one
// dependency importer, and the memoized package entries.
type moduleCache struct {
	fset *token.FileSet
	deps *depImporter
	pkgs map[string]*loadEntry
}

type loadEntry struct {
	pkg      *Package
	checking bool
	err      error
}

var (
	moduleCaches   = make(map[string]*moduleCache)
	moduleCachesMu sync.Mutex
)

func moduleCacheFor(root string) *moduleCache {
	moduleCachesMu.Lock()
	defer moduleCachesMu.Unlock()
	if c, ok := moduleCaches[root]; ok {
		return c
	}
	fset := token.NewFileSet()
	c := &moduleCache{
		fset: fset,
		deps: newDepImporter(fset, root),
		pkgs: make(map[string]*loadEntry),
	}
	moduleCaches[root] = c
	return c
}

// depImporter resolves non-module imports. It prefers the toolchain's
// compiled export data — one `go list -export -deps ./...` run indexes
// the export file of every dependency the module uses, and the gc
// importer reads those binary summaries in milliseconds — because the
// source importer re-type-checks the whole dependency closure from
// source on every monsterlint process, which dominated `make lint`
// wall time. The source importer remains as the fallback for hosts
// without a usable go command and for paths outside the indexed
// closure (fixture-only imports).
type depImporter struct {
	fset *token.FileSet

	once    sync.Once
	root    string
	exports map[string]string // import path -> export data file
	gc      types.Importer
	src     types.Importer
}

func newDepImporter(fset *token.FileSet, moduleRoot string) *depImporter {
	return &depImporter{fset: fset, root: moduleRoot}
}

// exportIndex runs `go list -export` once to map the module's
// dependency closure to compiled export files. Any failure (no go
// binary, broken build) leaves the index empty and every import on the
// source path.
func (d *depImporter) exportIndex() map[string]string {
	d.once.Do(func() {
		d.exports = make(map[string]string)
		cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json=ImportPath,Export", "./...")
		cmd.Dir = d.root
		out, err := cmd.Output()
		if err != nil {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var e struct{ ImportPath, Export string }
			if err := dec.Decode(&e); err != nil {
				break
			}
			if e.Export != "" {
				d.exports[e.ImportPath] = e.Export
			}
		}
	})
	return d.exports
}

func (d *depImporter) lookup(path string) (io.ReadCloser, error) {
	file, ok := d.exportIndex()[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

// Import resolves one dependency package: export data when indexed,
// source type-checking otherwise.
func (d *depImporter) Import(path string) (*types.Package, error) {
	if _, ok := d.exportIndex()[path]; ok {
		if d.gc == nil {
			d.gc = importer.ForCompiler(d.fset, "gc", d.lookup)
		}
		if pkg, err := d.gc.Import(path); err == nil {
			return pkg, nil
		}
	}
	if d.src == nil {
		d.src = importer.ForCompiler(d.fset, "source", nil)
	}
	return d.src.Import(path)
}

// NewLoader finds the enclosing module starting from dir ("" means the
// working directory).
func NewLoader(dir string) (*Loader, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		dir = wd
	}
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	shared := moduleCacheFor(root)
	return &Loader{
		Fset:       shared.fset,
		moduleRoot: root,
		modulePath: path,
		shared:     shared,
	}, nil
}

// findModule walks up from dir to the nearest go.mod and reads its
// module path.
func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load resolves patterns ("./...", "./internal/tsdb", a plain
// directory) into parsed, type-checked packages in deterministic
// order. Directories named testdata are skipped by "..." expansion but
// may be named explicitly (the seeded-violation fixtures are driven
// that way).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// expand turns patterns into a sorted list of package directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.moduleRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		}
		if !rec {
			if hasGoFiles(base) {
				add(base)
			} else {
				return nil, fmt.Errorf("lint: no Go files in %s", base)
			}
			continue
		}
		err := filepath.WalkDir(base, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return fs.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps a package directory to its module import path.
// Directories outside the module namespace (fixture dirs under
// testdata) get a synthetic stable path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "fixture/" + filepath.ToSlash(filepath.Base(dir))
	}
	if rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

// dirForImport maps a module-internal import path to its directory.
func (l *Loader) dirForImport(path string) (string, bool) {
	if path == l.modulePath {
		return l.moduleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// loadDir parses and type-checks the package in dir (memoized in the
// module's shared cache).
func (l *Loader) loadDir(dir string) (*Package, error) {
	path := l.importPathFor(dir)
	if e, ok := l.shared.pkgs[path]; ok {
		if e.checking {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return e.pkg, e.err
	}
	e := &loadEntry{checking: true}
	l.shared.pkgs[path] = e
	pkg, err := l.check(dir, path)
	e.pkg, e.err, e.checking = pkg, err, false
	return pkg, err
}

// check does the actual parse + type-check of one directory.
func (l *Loader) check(dir, path string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			continue // the invariants target production code
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importPkg),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		// A package that does not type-check cannot be analyzed
		// soundly; surface the first few errors.
		msgs := make([]string, 0, 3)
		for i, e := range typeErrs {
			if i == 3 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-3))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type errors in %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return &Package{
		ImportPath: path,
		Dir:        dir,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// importPkg resolves one import during type checking: module-internal
// paths recurse through the loader, everything else (the standard
// library) goes to the dependency importer (export data, then source).
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.dirForImport(path); ok {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		return pkg.Types, nil
	}
	return l.shared.deps.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
