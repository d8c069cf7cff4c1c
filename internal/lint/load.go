package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
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
	"strconv"
	"strings"
)

// LoadModule parses every non-test Go file under root (the directory holding
// go.mod) that the host's build would compile into one Package per directory
// and type-checks them. Build constraints and GOOS/GOARCH file suffixes are
// honoured, so two platform variants of one function are not read as a
// duplicate declaration. Test files are excluded because the invariants
// guard shipped simulation code, not test scaffolding; testdata, results and
// dot-directories are skipped entirely. A package that fails to type-check
// is an error.
func LoadModule(root string) ([]*Package, error) {
	root = filepath.Clean(root)
	modPath, err := readGoModModule(root)
	if errors.Is(err, fs.ErrNotExist) {
		modPath = "fixture" // a bare fixture directory without go.mod
	} else if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	byDir := make(map[string]*Package)
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "results" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, merr := build.Default.MatchFile(filepath.Dir(path), name); merr != nil {
			return fmt.Errorf("lint: %w", merr)
		} else if !ok {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			return fmt.Errorf("lint: %w", perr)
		}
		dir := filepath.Dir(path)
		p := byDir[dir]
		if p == nil {
			rel, rerr := filepath.Rel(root, dir)
			if rerr != nil {
				return rerr
			}
			rel = filepath.ToSlash(rel)
			p = &Package{Rel: rel, Path: modPath + "/" + rel, Fset: fset}
			if rel == "." {
				p.Rel, p.Path = "", modPath
			}
			byDir[dir] = p
		}
		p.Files = append(p.Files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(byDir))
	for _, p := range byDir {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Rel < pkgs[j].Rel })
	if err := typeCheck(root, fset, pkgs); err != nil {
		return nil, err
	}
	return pkgs, nil
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// ParseSource parses and type-checks a single in-memory file as its own
// Package — the mutation tests use it.
func ParseSource(filename, src string) (*Package, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	p := &Package{Rel: "fixture", Path: "fixture", Fset: fset, Files: []*ast.File{f}}
	if err := typeCheck(".", fset, []*Package{p}); err != nil {
		return nil, err
	}
	return p, nil
}

func readGoModModule(dir string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", dir)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// typeCheck type-checks each package once, imports first. An import of
// another loaded package resolves to that package, so a *types.Func is the
// same object at its declaration and at every call site; every other import
// is read from the gc export data one `go list -export -deps` call, run in
// dir, reports.
func typeCheck(dir string, fset *token.FileSet, pkgs []*Package) error {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	var foreign []string
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err == nil && byPath[path] == nil {
					foreign = append(foreign, path)
				}
			}
		}
	}
	exports, err := exportFiles(dir, foreign)
	if err != nil {
		return err
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	checking := make(map[*Package]bool)
	var check func(p *Package) error
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		p := byPath[path]
		if p == nil {
			return gc.Import(path)
		}
		if err := check(p); err != nil {
			return nil, err
		}
		return p.Types, nil
	})}
	check = func(p *Package) error {
		if p.Types != nil {
			return nil
		}
		if checking[p] {
			return fmt.Errorf("lint: import cycle through %s", p.Path)
		}
		checking[p] = true
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		tp, err := conf.Check(p.Path, fset, p.Files, info)
		if err != nil {
			return fmt.Errorf("lint: type-checking %s: %w", p.Path, err)
		}
		p.Types, p.Info = tp, info
		return nil
	}
	for _, p := range pkgs {
		if err := check(p); err != nil {
			return err
		}
	}
	return nil
}

// exportFiles maps each of paths, and everything they import, to its gc
// export data file.
func exportFiles(dir string, paths []string) (map[string]string, error) {
	out := make(map[string]string)
	if len(paths) == 0 {
		return out, nil
	}
	args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list -export: %v\n%s", err, stderr.String())
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			out[path] = file
		}
	}
	return out, nil
}
