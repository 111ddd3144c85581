// Command godoccheck enforces godoc coverage: every exported top-level
// declaration — type, function, method on an exported type, and const/var
// group — must carry a doc comment, and every package must have a package
// comment on at least one file. CI runs it over every package under
// internal/; it prints one line per missing comment and exits non-zero if
// any are missing.
//
// Usage:
//
//	go run ./scripts/godoccheck $(go list -f '{{.Dir}}' ./internal/...)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: godoccheck <package-dir>...")
		os.Exit(2)
	}
	missing := 0
	for _, dir := range dirs {
		n, err := checkDir(strings.TrimPrefix(dir, "./"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "godoccheck:", err)
			os.Exit(2)
		}
		missing += n
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "godoccheck: %d exported declarations lack doc comments\n", missing)
		os.Exit(1)
	}
}

// checkDir parses every non-test Go file in dir and reports exported
// declarations without doc comments. Test files are exempt: their exported
// helpers document themselves through the tests that call them.
func checkDir(dir string) (int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	missing := 0
	complain := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		fmt.Printf("%s:%d: %s has no doc comment\n", filepath.ToSlash(p.Filename), p.Line, what)
		missing++
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			fmt.Printf("%s: package %s has no package comment\n", filepath.ToSlash(dir), pkg.Name)
			missing++
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || exportedRecv(d) == false {
						continue
					}
					if d.Doc == nil {
						complain(d.Pos(), "func "+funcName(d))
					}
				case *ast.GenDecl:
					missing += checkGen(d, complain)
				}
			}
		}
	}
	return missing, nil
}

// exportedRecv reports whether a func is plain or its receiver type is
// exported (methods on unexported types are internal API).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}

// funcName renders Recv.Name for methods, Name for plain funcs.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// checkGen handles type/const/var declarations. A grouped const/var decl is
// fine if the group has a doc comment; individual specs inside a documented
// group are exempt (idiomatic enumerations comment the block, not each
// name). Types are checked one by one.
func checkGen(d *ast.GenDecl, complain func(token.Pos, string)) int {
	switch d.Tok {
	case token.TYPE:
		n := 0
		for _, spec := range d.Specs {
			ts := spec.(*ast.TypeSpec)
			if !ts.Name.IsExported() {
				continue
			}
			if d.Doc == nil && ts.Doc == nil {
				complain(ts.Pos(), "type "+ts.Name.Name)
				n++
			}
		}
		return n
	case token.CONST, token.VAR:
		if d.Doc != nil {
			return 0
		}
		n := 0
		for _, spec := range d.Specs {
			vs := spec.(*ast.ValueSpec)
			if vs.Doc != nil || vs.Comment != nil {
				continue
			}
			for _, name := range vs.Names {
				if name.IsExported() {
					complain(name.Pos(), d.Tok.String()+" "+name.Name)
					n++
				}
			}
		}
		return n
	}
	return 0
}
