// Package memoalias flags memoized values escaping a cache layer without a
// defensive copy — the exact bug class fixed twice already (PR 2: callers
// could mutate results memoized by the batch cache; the plan layer then
// re-introduced the same hazard and clones on both hit paths).
//
// The invariant: in the memo layers (internal/memo, which implements the
// single-flight entries, and its users internal/batch and internal/plan),
// a single-flight entry — any struct with a `ready chan struct{}` field —
// is shared by every waiter on its key. Reading an aliasable field (one
// whose type reaches a slice, map or pointer, or is a type parameter that
// may be instantiated with one) out of such an entry and letting it escape
// raw hands every caller a handle into the memo: one append or
// element write corrupts the cached value for all later hits. Every such
// read must pass through a clone function (any callee whose name contains
// "clone"); deliberate sharing of immutable state is suppressed with
// //lint:allow memoalias <why the shared value cannot be mutated>.
package memoalias

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the memoalias pass.
var Analyzer = &analysis.Analyzer{
	Name: "memoalias",
	Doc:  "flags aliasable values read out of single-flight memo entries without passing through a clone function",
	Run:  run,
}

// inScope limits the pass to the memo layers; fixture packages (no repro/
// prefix) are always in scope.
func inScope(path string) bool {
	if !strings.HasPrefix(path, "repro") {
		return true
	}
	return path == "repro/internal/memo" || path == "repro/internal/batch" || path == "repro/internal/plan"
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	analysis.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		xt := pass.TypesInfo.Types[sel.X].Type
		if xt == nil || !isEntryStruct(xt) {
			return true
		}
		if sel.Sel.Name == "ready" {
			return true
		}
		// Follow a trailing selector chain: for e.res.Mapping the escape
		// hazard is decided by the outermost selected value's type.
		outer := ast.Expr(sel)
		top := len(stack)
		for top > 0 {
			p, ok := stack[top-1].(*ast.SelectorExpr)
			if !ok || p.X != outer {
				break
			}
			outer = p
			top--
		}
		t := pass.TypesInfo.Types[outer].Type
		if t == nil || !aliasable(t) {
			return true
		}
		if writtenTo(outer, stack[:top]) || underClone(outer, stack[:top]) {
			return true
		}
		pass.Reportf(sel.Pos(),
			"memoized %s escapes the single-flight entry without a clone: callers can mutate the cached value for every later hit; route it through the Clone path (or //lint:allow memoalias <why it is immutable>)",
			types.ExprString(outer))
		return true
	})
	return nil
}

// isEntryStruct reports whether t (or what it points to) is a struct with
// a `ready chan struct{}` field — the suite's definition of a
// single-flight memo entry.
func isEntryStruct(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != "ready" {
			continue
		}
		if ch, ok := f.Type().Underlying().(*types.Chan); ok {
			if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
				return true
			}
		}
	}
	return false
}

// aliasable reports whether a value of type t shares mutable state with
// its source: it is, or structurally contains, a slice, map or pointer, or
// it is a type parameter (a generic entry's value may be instantiated with
// any of those). Interfaces and channels are excluded — error values are
// memoized by design, and the ready channel is the entry's publication
// mechanism.
func aliasable(t types.Type) bool {
	return aliasableSeen(t, map[types.Type]bool{})
}

func aliasableSeen(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if _, ok := t.(*types.TypeParam); ok {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer:
		return true
	case *types.Array:
		return aliasableSeen(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliasableSeen(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// writtenTo reports whether expr is an assignment target (an LHS operand)
// rather than a read.
func writtenTo(expr ast.Expr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	as, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if lhs == expr {
			return true
		}
	}
	return false
}

// underClone reports whether expr is (transitively, within the same
// statement) an argument of a call to a clone-like function — a callee
// whose name contains "clone" in any case.
func underClone(expr ast.Expr, stack []ast.Node) bool {
	child := ast.Node(expr)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.CallExpr:
			for _, arg := range p.Args {
				if arg == child {
					if name := calleeName(p); strings.Contains(strings.ToLower(name), "clone") {
						return true
					}
				}
			}
		case ast.Stmt:
			return false
		}
		child = stack[i]
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}
