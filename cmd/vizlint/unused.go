package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkUnused flags code no binary can reach through a reference: a
// package-level function or method declared under internal/ or cmd/ that
// no non-test file names outside its own declaration, and an internal/
// package that no other package's non-test file imports. Test files are
// never loaded, so a function only its tests call is reported: move it to
// the package's export_test.go or delete it.
//
// References are counted over every loaded package, so the check is only
// meaningful on the whole tree (./..., which walks bench/ and examples/
// too; their files count as callers but are never reported). A plain
// function is referenced when an identifier resolves to it (a call or a
// use as a value) or a selector names it through a module import. A
// method is referenced when any selector carries its name; that
// over-approximates, so a call through an interface is never a false
// positive. Methods the standard library calls through its own interfaces
// (stdlibMethods) count as referenced too.
//
// The same goes for options: an exported field of an internal/ struct
// type named ...Config or ...Options that no non-test file of another
// package sets is a knob nothing turns, so it should be a constant. A
// setter is a keyed composite literal of that type (matched by package and
// type name, so a same-named field of another type is no setter) or an
// assignment to a selector of the field's name.
func checkUnused(mod *module, pkg *pkgInfo) []Finding {
	if mod.refs == nil {
		mod.refs = buildRefs(mod)
	}
	internal := strings.HasPrefix(pkg.ImportPath, mod.path+"/internal/")
	if !internal && !strings.HasPrefix(pkg.ImportPath, mod.path+"/cmd/") {
		return nil
	}
	var out []Finding
	report := func(fi *fileInfo, id *ast.Ident, msg string) {
		if !fi.allowedAt(pkg.Fset, id.Pos(), "unused") {
			out = append(out, Finding{Pos: pkg.Fset.Position(id.Pos()), Check: "unused", Msg: msg})
		}
	}
	if internal && !mod.refs[pkg.ImportPath] {
		fi := pkg.Files[0]
		report(fi, fi.File.Name, "package "+pkg.ImportPath+" is imported by no non-test file outside it")
	}
	for _, fi := range pkg.Files {
		for _, decl := range fi.File.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main") {
				continue
			}
			name := fd.Name.Name
			used := mod.refs[funcKey(pkg.ImportPath, "", name)]
			if fd.Recv != nil {
				used = mod.refs["."+name] || stdlibMethods[name]
			}
			if !used {
				_, recv := receiverOf(fd)
				report(fi, fd.Name, shortFuncName(funcKey(pkg.ImportPath, recv, name), pkg.ImportPath)+" has no caller outside tests")
			}
		}
		if !internal {
			continue
		}
		ast.Inspect(fi.File, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !strings.HasSuffix(ts.Name.Name, "Config") && !strings.HasSuffix(ts.Name.Name, "Options") {
				return false
			}
			for _, f := range st.Fields.List {
				for _, id := range f.Names {
					if id.IsExported() && !fieldSet(mod, pkg.ImportPath, ts.Name.Name, id.Name) {
						report(fi, id, ts.Name.Name+"."+id.Name+" is set by no non-test file outside its package")
					}
				}
			}
			return false
		})
	}
	return out
}

// fieldSet reports whether a package other than the field's own sets it:
// through a keyed literal of its type, or by assigning to its name.
func fieldSet(mod *module, path, typeName, field string) bool {
	if mod.refs[path+"::"+typeName+"{"+field] {
		return true
	}
	for _, p := range mod.pkgs {
		if p.ImportPath != path && mod.refs["="+field+"@"+p.ImportPath] {
			return true
		}
	}
	return false
}

// stdlibMethods are methods only the standard library calls, through its
// own interfaces (errors.Is/As, types.Importer), so no selector in the
// module names them. Error, String and the like need no entry: selectors
// of those names are everywhere.
var stdlibMethods = map[string]bool{"Unwrap": true, "Import": true}

// buildRefs indexes what the module's non-test files name: funcKeys of
// referenced plain functions, "."+name for every selector, the import
// path of every imported package (a package cannot import itself), and
// the option setters fieldSet asks about.
func buildRefs(mod *module) map[string]bool {
	refs := make(map[string]bool)
	for _, pkg := range mod.pkgs {
		for _, fi := range pkg.Files {
			for _, imp := range fi.File.Imports {
				refs[strings.Trim(imp.Path.Value, `"`)] = true
			}
			for _, decl := range fi.File.Decls {
				self := ""
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
					self = fd.Name.Name // recursion is not a caller
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.SelectorExpr:
						refs["."+x.Sel.Name] = true
						if id, ok := x.X.(*ast.Ident); ok && fi.imports[id.Name] != "" {
							refs[funcKey(fi.imports[id.Name], "", x.Sel.Name)] = true
						}
					case *ast.Ident:
						if fn, ok := pkg.Info.Uses[x].(*types.Func); ok && fn.Parent() == fn.Pkg().Scope() && x.Name != self {
							refs[funcKey(pkg.ImportPath, "", x.Name)] = true
						}
					case *ast.CompositeLit:
						sel, ok := x.Type.(*ast.SelectorExpr)
						if !ok {
							break
						}
						if id, ok := sel.X.(*ast.Ident); ok && fi.imports[id.Name] != "" {
							for _, el := range x.Elts {
								if kv, ok := el.(*ast.KeyValueExpr); ok {
									if k, ok := kv.Key.(*ast.Ident); ok {
										refs[fi.imports[id.Name]+"::"+sel.Sel.Name+"{"+k.Name] = true
									}
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								refs["="+sel.Sel.Name+"@"+pkg.ImportPath] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	return refs
}
