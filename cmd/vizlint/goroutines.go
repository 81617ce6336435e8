package main

import (
	"go/ast"
	"go/token"
)

// goroutineJoinPkgs are the subsystems where every launched goroutine must
// be joinable or cancellable: the parallel executor, the Data Server, the
// remote connection machinery and the shared accept loop.
var goroutineJoinPkgs = []string{"internal/tde/exec", "internal/dataserver", "internal/remote", "internal/wire"}

// checkGoroutines implements the goroutine-hygiene family:
//
//  1. A `go func` literal inside a method must not write the receiver's
//     fields unless the body acquires one of the receiver's mutexes first
//     (writes via sync/atomic are calls, not assignments, and pass).
//  2. In the packages listed above, a launched goroutine must carry a join
//     or cancellation signal: a WaitGroup Done/Wait, a channel operation
//     (send, receive, close, range), or a select.
func checkGoroutines(pkg *pkgInfo, fi *fileInfo) []Finding {
	var out []Finding
	joinScoped := pathHasAny(pkg.ImportPath, goroutineJoinPkgs...)
	for _, decl := range fi.File.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		recvName, recvType := receiverOf(fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true // method values / bound calls: out of scope
			}
			if recvName != "" {
				out = append(out, checkSharedWrites(pkg, fi, lit, recvName, recvType)...)
			}
			if joinScoped && !hasJoinSignal(lit.Body) {
				if !fi.allowedAt(pkg.Fset, g.Pos(), "goroutine") {
					out = append(out, Finding{
						Pos:   pkg.Fset.Position(g.Pos()),
						Check: "goroutine",
						Msg:   "goroutine has no join or cancellation signal (WaitGroup, channel, context, or select)",
					})
				}
			}
			return true
		})
	}
	return out
}

// checkSharedWrites flags assignments to receiver fields inside a
// goroutine body that are not preceded by a receiver-mutex Lock in the
// same body. Position order is a heuristic: a Lock anywhere earlier in
// the literal counts as protection.
func checkSharedWrites(pkg *pkgInfo, fi *fileInfo, lit *ast.FuncLit, recvName, recvType string) []Finding {
	var out []Finding
	mutexes := pkg.mutexFields[recvType]
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		var targets []ast.Expr
		var pos ast.Node
		switch x := n.(type) {
		case *ast.AssignStmt:
			targets, pos = x.Lhs, x
		case *ast.IncDecStmt:
			targets, pos = []ast.Expr{x.X}, x
		default:
			return true
		}
		for _, t := range targets {
			field, ok := receiverField(t, recvName)
			if !ok || mutexes[field] {
				continue
			}
			if lockBefore(lit.Body, recvName, mutexes, pos.Pos()) {
				continue
			}
			if fi.allowedAt(pkg.Fset, pos.Pos(), "goroutine") {
				continue
			}
			out = append(out, Finding{
				Pos:   pkg.Fset.Position(pos.Pos()),
				Check: "goroutine",
				Msg: "goroutine writes shared field " + recvName + "." + field +
					" without holding the receiver's mutex",
			})
		}
		return true
	})
	return out
}

// receiverField returns the first-level field name when expr is a write
// target rooted at the receiver identifier (recv.f, recv.f.g, recv.f[i]).
func receiverField(e ast.Expr, recvName string) (string, bool) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && id.Name == recvName {
				return x.Sel.Name, true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

// lockBefore reports whether a receiver-mutex Lock call appears in body
// before limit.
func lockBefore(body *ast.BlockStmt, recvName string, mutexes map[string]bool, limit token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || (n != nil && n.Pos() >= limit) {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if inner, ok := sel.X.(*ast.SelectorExpr); ok {
			if id, ok := inner.X.(*ast.Ident); ok && id.Name == recvName && mutexes[inner.Sel.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasJoinSignal reports whether a goroutine body contains any construct
// that lets another goroutine join or cancel it.
func hasJoinSignal(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt, *ast.RangeStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.CallExpr:
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" || fun.Sel.Name == "Wait" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
