package lint

import (
	"go/ast"
	"go/types"
)

// SyncOrder audits the module's concurrency discipline: no channel send
// while a mutex is held. A send can block for arbitrarily long (an
// unbuffered channel is a rendezvous point); blocking inside a critical
// section turns a scheduling hiccup into a lock convoy, and pairing it with
// a receive under the same lock is a deadlock. Completion signalling under a
// lock should use close() (which never blocks) — the runner's singleflight
// entries are the house idiom. //bfetch:sync-ok <reason> suppresses a
// deliberate exception.
//
// The check is lexical: a lock is held from a .Lock()/.RLock() call to the
// matching .Unlock()/.RUnlock() on the same expression, or to the end of the
// body when the unlock is deferred. Copying a lock by value is go vet's
// copylocks check, which tier-1 runs.
func SyncOrder(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkLockBody(p, f, fd, &out)
			}
		}
	}
	return out
}

// checkLockBody walks one function body in source order, tracking the
// lexically held lock set and flagging channel sends inside critical
// sections.
func checkLockBody(p *Package, f *ast.File, fd *ast.FuncDecl, out *[]Diagnostic) {
	var held []string
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
					held[len(held)-1])
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := types.ExprString(sel.X)
			switch sel.Sel.Name {
			case "Lock", "RLock":
				held = append(held, name)
			case "Unlock", "RUnlock":
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == name {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
		}
		return true
	})
}
