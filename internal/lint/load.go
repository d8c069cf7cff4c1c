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
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// listedPackage is the part of one `go list -json` entry the loader reads.
type listedPackage struct {
	Dir, ImportPath, Export string
	GoFiles, Deps           []string
	DepOnly                 bool
	Error                   *struct{ Err string }
}

// Load parses and type-checks every package of the module at root (the
// directory holding go.mod) and collects the compiler facts for them, all
// from one run of
//
//	go list -e -export -deps -json -gcflags=<factsGCFlags> ./...
//
// in root. The go command decides what is linted: each package it matches
// becomes one Package of exactly the GoFiles the host build compiles, so
// build constraints, testdata and test files are its business, not the
// loader's. Each dependency outside the module is type-checked from the
// export data the same run reports, and the compiler's diagnostics on stderr
// become the fact table. Each entry's Deps says which packages depend on
// net, for the nonet rule. -export compiles without linking, so main packages
// build like any other, and Go's build cache replays the diagnostics of
// up-to-date packages. A tree that does not compile, a package that fails to
// type-check, or a diagnostic stream with no recognizable fact (ErrNoFacts)
// is an error.
func Load(root string) ([]*Package, *FactTable, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	// -e records a package that fails to load or compile in its entry's
	// Error rather than mixing the compiler's error into the -m=2 stream.
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json", "-gcflags="+factsGCFlags, "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list -export: %v\n%s", err, stderr.Bytes())
	}
	fset := token.NewFileSet()
	exports := make(map[string]string)
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	// An import of another module package resolves to that package, so a
	// *types.Func is the same object at its declaration and at every call
	// site. -deps lists every package after its dependencies, so one pass in
	// that order finds each import already checked.
	checked := make(map[string]*types.Package)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if tp := checked[path]; tp != nil {
			return tp, nil
		}
		return gc.Import(path)
	})}
	// netUsers holds every listed package that is net or depends on it;
	// NoNet reads it once Load has decoded every entry.
	netUsers := make(map[string]bool)
	var pkgs []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, nil, fmt.Errorf("lint: reading go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, strings.TrimSpace(lp.Error.Err))
		}
		if lp.ImportPath == "net" || slices.Contains(lp.Deps, "net") {
			netUsers[lp.ImportPath] = true
		}
		if lp.DepOnly {
			if lp.Export != "" {
				exports[lp.ImportPath] = lp.Export
			}
			continue
		}
		rel, err := filepath.Rel(root, lp.Dir)
		if err != nil {
			return nil, nil, err
		}
		p := &Package{Rel: filepath.ToSlash(rel), Path: lp.ImportPath, Fset: fset, netUsers: netUsers}
		if p.Rel == "." {
			p.Rel = ""
		}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, fmt.Errorf("lint: %w", err)
			}
			p.Files = append(p.Files, f)
		}
		p.Info = &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		if p.Types, err = conf.Check(p.Path, fset, p.Files, p.Info); err != nil {
			return nil, nil, fmt.Errorf("lint: type-checking %s: %w", p.Path, err)
		}
		checked[p.Path] = p.Types
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Rel < pkgs[j].Rel })
	facts := ParseFacts(root, stderr.Bytes())
	if len(facts.ByFile) == 0 {
		return nil, nil, ErrNoFacts
	}
	return pkgs, facts, nil
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

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
