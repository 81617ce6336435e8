package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// errDiscardPkgs are the packages where a silently discarded
// Close/Flush/Write error can corrupt persisted or wire data.
var errDiscardPkgs = []string{"internal/tde/storage", "internal/kvstore", "internal/wire"}

// errDiscardMethods are the method names whose error results must be
// consumed in those packages.
var errDiscardMethods = map[string]bool{
	"Close":       true,
	"Flush":       true,
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
}

// checkErrors implements the error-discipline family:
//
//  1. In errDiscardPkgs, a statement-level call to a Close/Flush/Write
//     method discards its error: flagged. `defer x.Close()` and explicit
//     `_ = x.Close()` are visible decisions and pass.
//  2. Everywhere, fmt.Errorf whose arguments include an error variable
//     must wrap it with %w so callers can errors.Is/As through it.
func checkErrors(pkg *pkgInfo, fi *fileInfo) []Finding {
	var out []Finding
	discardScoped := pathHasAny(pkg.ImportPath, errDiscardPkgs...)
	ast.Inspect(fi.File, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ExprStmt:
			if !discardScoped {
				return true
			}
			call, ok := x.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !errDiscardMethods[sel.Sel.Name] {
				return true
			}
			if fi.allowedAt(pkg.Fset, x.Pos(), "errors") {
				return true
			}
			out = append(out, Finding{
				Pos:   pkg.Fset.Position(x.Pos()),
				Check: "errors",
				Msg: "error returned by " + exprLabel(sel.X) + "." + sel.Sel.Name +
					"() is silently discarded (check it, or assign to _ to make the discard explicit)",
			})
		case *ast.CallExpr:
			if f := checkErrorfWrap(pkg, fi, x); f != nil {
				out = append(out, *f)
			}
		}
		return true
	})
	return out
}

// checkErrorfWrap flags fmt.Errorf calls that pass an error variable but
// format it with something other than %w.
func checkErrorfWrap(pkg *pkgInfo, fi *fileInfo, call *ast.CallExpr) *Finding {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return nil
	}
	if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "fmt" {
		return nil
	}
	if len(call.Args) < 2 {
		return nil
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || strings.Contains(lit.Value, "%w") {
		return nil
	}
	for _, arg := range call.Args[1:] {
		if !isErrorValue(pkg, arg) {
			continue
		}
		if fi.allowedAt(pkg.Fset, call.Pos(), "errors") {
			return nil
		}
		return &Finding{
			Pos:   pkg.Fset.Position(call.Pos()),
			Check: "errors",
			Msg:   "fmt.Errorf formats error variable " + exprLabel(arg) + " without %w (callers cannot unwrap it)",
		}
	}
	return nil
}

// isErrorValue reports whether arg is an error variable: resolved to the
// error type where type information is available, with a conventional
// name-based fallback for bare identifiers when imports were stubbed out.
func isErrorValue(pkg *pkgInfo, arg ast.Expr) bool {
	if tv, ok := pkg.Info.Types[arg]; ok && tv.Type != nil {
		if isErrorType(tv.Type) {
			return true
		}
		// A resolved non-error type (string, int, ...) is definitely not an
		// error, regardless of its name.
		if tv.Type != types.Typ[types.Invalid] {
			return false
		}
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return false
	}
	return id.Name == "err" || strings.HasSuffix(id.Name, "Err") || strings.HasSuffix(id.Name, "err")
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj() != nil && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// exprLabel renders an expression for a message, falling back to a
// placeholder for complex shapes.
func exprLabel(e ast.Expr) string {
	if k := exprKey(e); k != "" {
		return k
	}
	return "value"
}
