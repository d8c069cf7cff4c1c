package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// SyncOrder audits the module's concurrency discipline with three checks,
// all lexical (no go/types, no may-happen-in-parallel analysis — the rules
// are written so a lexical over-approximation is the contract):
//
//  1. No channel send while a mutex is held. A send can block for
//     arbitrarily long (an unbuffered channel is a rendezvous point);
//     blocking inside a critical section turns a
//     scheduling hiccup into a lock convoy, and pairing it with a receive
//     under the same lock is a deadlock. Completion signalling under a lock
//     should use close() (which never blocks) — the runner's singleflight
//     entries are the house idiom. //bfetch:sync-ok <reason> suppresses a
//     deliberate exception.
//
//  2. Lock acquisitions must not contradict the declared partial order.
//     //bfetch:lockorder A < B (package scope, any file) declares that A,
//     when held together with B, is acquired first. Acquiring A while B is
//     held — with "A < B" declared, directly or transitively — is a
//     deadlock-shaped inversion and is reported. Locks are named by
//     receiver type and field path ("Engine.mu") or package-level variable
//     name ("logMu"); unresolvable acquisition sites are ignored.
//
//  3. sync types must not be copied by value: methods with value receivers
//     on mutex-bearing structs and parameters/results passing such structs
//     (or bare sync.Mutex et al.) by value are reported. This is vet's
//     copylocks narrowed to declaration sites, where it is reliable without
//     type information.
func SyncOrder(p *Package) []Diagnostic {
	var out []Diagnostic
	order := collectLockOrder(p, &out)
	bearers := mutexBearingTypes(p)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockBody(p, f, fd, order, &out)
			checkValueCopies(p, f, fd, bearers, &out)
		}
	}
	return out
}

// ----------------------------------------------------------- lock tracking --

// lockOrder is the declared partial order: edges[a][b] means a < b (a is
// acquired first when both are held), transitively closed.
type lockOrder struct {
	edges map[string]map[string]bool
}

func (o *lockOrder) before(a, b string) bool {
	if o == nil || o.edges == nil {
		return false
	}
	return o.edges[a][b]
}

// collectLockOrder parses every //bfetch:lockorder declaration in the
// package and closes it transitively. Malformed declarations are findings:
// a silent parse failure would silently stop enforcing the order.
func collectLockOrder(p *Package, out *[]Diagnostic) *lockOrder {
	o := &lockOrder{edges: make(map[string]map[string]bool)}
	for _, f := range p.Files {
		for line, arg := range p.markerArgs(f, "bfetch:lockorder") {
			parts := strings.Split(arg, "<")
			bad := len(parts) < 2
			var chain []string
			for _, part := range parts {
				name := strings.TrimSpace(part)
				if name == "" || strings.ContainsAny(name, " \t") {
					bad = true
					break
				}
				chain = append(chain, name)
			}
			if bad {
				p.report(out, f, f.Pos(), "syncorder", "",
					"line %d: malformed //bfetch:lockorder %q; want \"A < B\" or \"A < B < C\"", line, arg)
				continue
			}
			for i := 0; i+1 < len(chain); i++ {
				if o.edges[chain[i]] == nil {
					o.edges[chain[i]] = make(map[string]bool)
				}
				o.edges[chain[i]][chain[i+1]] = true
			}
		}
	}
	// Transitive closure (the order sets are tiny).
	for changed := true; changed; {
		changed = false
		for a, bs := range o.edges {
			for b := range bs {
				for c := range o.edges[b] {
					if !o.edges[a][c] {
						o.edges[a][c] = true
						changed = true
					}
				}
			}
		}
	}
	return o
}

// heldLock is one lexically held acquisition.
type heldLock struct {
	name string
	pos  token.Pos
}

// checkLockBody walks one function body in source order, tracking the
// lexically held lock set, flagging channel sends inside critical sections
// and acquisition sequences that contradict the declared order.
func checkLockBody(p *Package, f *ast.File, fd *ast.FuncDecl, order *lockOrder, out *[]Diagnostic) {
	recvName, recvType := "", ""
	if fd.Recv != nil {
		recvName, recvType = recvInfo(fd)
	}
	var held []heldLock
	release := func(name string) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].name == name {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock releases at return, not here: the lock stays
			// lexically held for the rest of the body. Don't descend — the
			// deferred call must not be treated as an immediate release.
			return false
		case *ast.SendStmt:
			if len(held) > 0 {
				p.report(out, f, n.Pos(), "syncorder", "bfetch:sync-ok",
					"channel send while holding %s: a blocked receiver stalls the critical section (use close, or send after unlocking)",
					held[len(held)-1].name)
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := lockName(sel.X, recvName, recvType)
			if name == "" {
				return true
			}
			switch sel.Sel.Name {
			case "Lock", "RLock":
				for _, h := range held {
					if order.before(name, h.name) {
						p.report(out, f, n.Pos(), "syncorder", "bfetch:sync-ok",
							"acquiring %s while holding %s contradicts declared lock order %s < %s",
							name, h.name, name, h.name)
					}
				}
				held = append(held, heldLock{name: name, pos: n.Pos()})
			case "Unlock", "RUnlock":
				release(name)
			}
		}
		return true
	})
}

// lockName renders the owner expression of a .Lock()/.Unlock() call as a
// stable order-declaration name: "Type.field..." for receiver-rooted
// selector chains, the variable name for package-level/local mutexes, ""
// when unresolvable.
func lockName(x ast.Expr, recvName, recvType string) string {
	var parts []string
	for {
		switch v := x.(type) {
		case *ast.SelectorExpr:
			parts = append([]string{v.Sel.Name}, parts...)
			x = v.X
			continue
		case *ast.ParenExpr:
			x = v.X
			continue
		case *ast.Ident:
			root := v.Name
			if v.Name == recvName && recvType != "" {
				root = recvType
			} else if len(parts) > 0 {
				// Selector rooted at a non-receiver variable: name by the
				// field path alone is ambiguous; keep the raw spelling.
				root = v.Name
			}
			return strings.Join(append([]string{root}, parts...), ".")
		default:
			return ""
		}
	}
}

// ------------------------------------------------------------- value copies --

// syncTypeNames are the sync package's by-reference-only types.
var syncTypeNames = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true,
	"Cond": true, "Map": true, "Pool": true,
}

// mutexBearingTypes returns the package's named struct types that contain a
// sync type (directly, or through an embedded/nested named struct of the
// same package), so copying them by value copies a lock.
func mutexBearingTypes(p *Package) map[string]bool {
	direct := make(map[string]bool)
	deps := make(map[string][]string) // type → same-package named field types
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				for _, field := range st.Fields.List {
					t := field.Type
					if arr, ok := t.(*ast.ArrayType); ok {
						t = arr.Elt // an array of locks is still a lock copy
					}
					switch v := t.(type) {
					case *ast.SelectorExpr:
						if x, ok := v.X.(*ast.Ident); ok && x.Name == "sync" && syncTypeNames[v.Sel.Name] {
							direct[ts.Name.Name] = true
						}
					case *ast.Ident:
						deps[ts.Name.Name] = append(deps[ts.Name.Name], v.Name)
					}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for t, fields := range deps {
			if direct[t] {
				continue
			}
			for _, ft := range fields {
				if direct[ft] {
					direct[t] = true
					changed = true
					break
				}
			}
		}
	}
	return direct
}

// isSyncByValue reports whether a declared (non-pointer) type expression is
// a sync type or a package-local mutex-bearing struct, returning its
// spelling.
func isSyncByValue(t ast.Expr, bearers map[string]bool) (string, bool) {
	switch v := t.(type) {
	case *ast.Ident:
		if bearers[v.Name] {
			return v.Name, true
		}
	case *ast.SelectorExpr:
		if x, ok := v.X.(*ast.Ident); ok && x.Name == "sync" && syncTypeNames[v.Sel.Name] {
			return "sync." + v.Sel.Name, true
		}
	}
	return "", false
}

// checkValueCopies flags value receivers and by-value parameters/results of
// lock-bearing types.
func checkValueCopies(p *Package, f *ast.File, fd *ast.FuncDecl, bearers map[string]bool, out *[]Diagnostic) {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if name, ok := isSyncByValue(fd.Recv.List[0].Type, bearers); ok {
			p.report(out, f, fd.Recv.List[0].Pos(), "syncorder", "bfetch:sync-ok",
				"method %s has a value receiver of lock-bearing type %s; copying it copies the lock (use *%s)",
				fd.Name.Name, name, name)
		}
	}
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if name, ok := isSyncByValue(field.Type, bearers); ok {
				p.report(out, f, field.Pos(), "syncorder", "bfetch:sync-ok",
					"%s of %s passes lock-bearing type %s by value (use *%s)",
					what, fd.Name.Name, name, name)
			}
		}
	}
	check(fd.Type.Params, "parameter")
	check(fd.Type.Results, "result")
}
