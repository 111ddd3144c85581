// Command deadcheck fails when a function or method in the module cannot be
// reached from any binary, or a package-level const, var or type is named
// nowhere, so that code only tests use stays gone. The roots are main, init,
// package-level initializers, and the methods through which a type
// implements one of stdInterfaces whose package the module imports. Reached
// code reaches what it names; a call through an interface or a type
// parameter reaches every method of that name. A declaration counts as
// named when any identifier outside its own name refers to it. Test files
// are not read, and a nested module (perfbench/) reaches and names code but
// is not reported. It prints each finding as "file:line pkg.Name"
// (pkg.Type.Name for a method) and exits 1.
//
// A godoc pass over the same files holds every package under internal/ to
// doc-comment coverage: the package needs a package comment on at least one
// file, and each exported function, method on an exported type, type, and
// const or var needs a doc comment (a documented const or var group covers
// its names, as does a spec's own line comment). Each gap prints as
// "file:line pkg.Name has no doc comment" and fails like dead code.
//
// An interface pass flags abstractions with nothing to abstract over: each
// method-set interface declared in the module (outside a nested module)
// that fewer than two named types implement, a type counting when it or its
// pointer does. Implementations are counted over the packages the scan
// loads, the nested module's included and test files not, so an interface
// whose second implementation is a test fake needs an allow.txt entry.
// Generic types are not counted. Each prints as "file:line pkg.Name has one
// implementation, pkg.Type" (or "has no implementation") and fails like dead
// code.
//
// A docs pass holds the design documents (docFiles) to the code the same
// way: a backticked pkg.Name or pkg.Type.Name whose pkg is the base name of
// a module directory with Go files must name an exported declaration (a
// method or field for Type.Name) in that directory, test files included,
// and a backticked bare TestX, BenchmarkX or FuzzX must be declared in some
// _test.go file. Each stale citation prints as "doc:line pkg.Name" and
// fails like dead code. scripts/deadcheck/allow.txt lists exceptions to
// both passes, one "pkg.Name  reason" per line; an entry that names no
// finding fails too.
//
//	go run ./scripts/deadcheck .
package main

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
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: deadcheck <module-root>")
		os.Exit(2)
	}
	dead, err := scan(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcheck:", err)
		os.Exit(2)
	}
	stale, err := docs(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcheck:", err)
		os.Exit(2)
	}
	allow, _ := os.ReadFile(filepath.Join(os.Args[1], "scripts", "deadcheck", "allow.txt")) // no file allows nothing
	os.Exit(report(os.Stdout, append(dead, stale...), string(allow)))
}

// finding is one unreachable function, unnamed declaration, undocumented
// declaration or stale doc citation.
type finding struct {
	pos  token.Pos
	name string // pkg.Name, or pkg.Type.Name for a method
	at   string // file:line, the file relative to the module root
	why  string // what is wrong, when it is not dead code or a stale citation
}

// stdInterfaces are the interfaces the standard library calls methods
// through. errors.Is and As call Unwrap() error, which scan adds too.
var stdInterfaces = []string{"error", "fmt.Stringer", "sort.Interface",
	"container/heap.Interface", "flag.Value", "math/rand.Source", "encoding/json.Marshaler",
	"encoding/json.Unmarshaler", "io.Writer", "net/http.Handler"}

// pkg is one package of the module.
type pkg struct {
	files      []*ast.File
	info       *types.Info
	types      *types.Package
	callerOnly bool // it lies in a nested module
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// scan type-checks every package under root, and the standard library from
// source, and returns in file order the functions no root reaches, the
// declarations nothing names, and the undocumented packages and exported
// declarations under internal/.
func scan(root string) ([]finding, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := strings.Fields(string(gomod) + " module")[1] // go.mod opens with its module line
	fset := token.NewFileSet()
	pkgs := map[string]*pkg{}        // by import path
	paths, nested := []string{}, "/" // nested is the nested module the walk is in; "/" is none
	err = filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(root, file)
		rel = filepath.ToSlash(rel)
		switch {
		case err != nil:
			return err
		case d.IsDir() && rel != "." && (d.Name() == "testdata" || strings.ContainsAny(d.Name()[:1], "._")):
			return filepath.SkipDir
		case d.IsDir():
			if _, err := os.Stat(filepath.Join(file, "go.mod")); err == nil && rel != "." {
				nested = rel + "/"
			}
		case strings.HasSuffix(rel, ".go") && !strings.HasSuffix(rel, "_test.go"):
			if ok, err := build.Default.MatchFile(filepath.Dir(file), d.Name()); err != nil || !ok {
				return err
			}
			f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			ip := strings.TrimSuffix(mod+"/"+path.Dir(rel), "/.")
			if pkgs[ip] == nil {
				info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
				pkgs[ip], paths = &pkg{info: info, callerOnly: strings.HasPrefix(rel, nested)}, append(paths, ip)
			}
			pkgs[ip].files = append(pkgs[ip].files, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(fset, "source", nil)
	stdUsed := map[string]*types.Package{"": types.NewPackage("", "")}
	var imp importerFunc
	imp = func(ip string) (tp *types.Package, err error) {
		if p, ok := pkgs[ip]; !ok {
			tp, err = std.Import(ip)
			stdUsed[ip] = tp
		} else if tp = p.types; tp == nil {
			conf := types.Config{Importer: imp}
			tp, err = conf.Check(ip, fset, p.files, p.info)
			p.types = tp
		}
		return tp, err
	}
	for _, ip := range paths {
		if _, err := imp(ip); err != nil {
			return nil, err
		}
	}
	var ifaces []*types.Interface
	for _, s := range stdInterfaces {
		if i := strings.LastIndex(s, "."); stdUsed[s[:max(i, 0)]] != nil {
			_, obj := stdUsed[s[:max(i, 0)]].Scope().LookupParent(s[i+1:], token.NoPos)
			ifaces = append(ifaces, obj.Type().Underlying().(*types.Interface))
		}
	}
	if stdUsed["errors"] != nil {
		f, _ := parser.ParseFile(fset, "", "package p; type u interface{ Unwrap() error }", 0)
		tp, _ := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
		ifaces = append(ifaces, tp.Scope().Lookup("u").Type().Underlying().(*types.Interface))
	}
	dead := append(reach(fset, paths, pkgs, ifaces), unnamed(paths, pkgs)...)
	dead = append(dead, undocumented(mod, paths, pkgs)...)
	dead = append(dead, lonely(paths, pkgs)...)
	for i, d := range dead {
		pos := fset.Position(d.pos)
		rel, _ := filepath.Rel(root, pos.Filename)
		dead[i].at = fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].pos < dead[j].pos })
	return dead, nil
}

// unnamed returns every package-level const, var and type declared outside
// a nested module that no identifier in the module refers to.
func unnamed(paths []string, pkgs map[string]*pkg) (dead []finding) {
	used := map[types.Object]bool{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			used[obj] = true
		}
	}
	for _, ip := range paths {
		p := pkgs[ip]
		if p.callerOnly {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					var names []*ast.Ident
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						names = spec.Names
					case *ast.TypeSpec:
						names = []*ast.Ident{spec.Name}
					}
					for _, id := range names {
						if obj := p.info.Defs[id]; obj != nil && !used[obj] && id.Name != "_" {
							dead = append(dead, finding{pos: id.Pos(), name: path.Base(p.types.Path()) + "." + id.Name})
						}
					}
				}
			}
		}
	}
	return dead
}

// lonely returns every method-set interface declared outside a nested
// module that fewer than two of the scanned named types implement.
func lonely(paths []string, pkgs map[string]*pkg) (found []finding) {
	qualified := func(o types.Object) string { return path.Base(o.Pkg().Path()) + "." + o.Name() }
	var ifaces []*types.TypeName
	var concrete []*types.Named
	for _, ip := range paths {
		for _, obj := range pkgs[ip].info.Defs {
			tn, _ := obj.(*types.TypeName)
			if tn == nil || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named) // not a type parameter
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := n.Underlying().(*types.Interface); !ok {
				concrete = append(concrete, n)
			} else if iface.IsMethodSet() && iface.NumMethods() > 0 && !pkgs[ip].callerOnly {
				ifaces = append(ifaces, tn)
			}
		}
	}
	for _, tn := range ifaces {
		iface := tn.Type().Underlying().(*types.Interface)
		var impls []string
		for _, n := range concrete {
			if types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface) {
				impls = append(impls, qualified(n.Obj()))
			}
		}
		if len(impls) > 1 {
			continue
		}
		why := " has no implementation"
		if len(impls) == 1 {
			why = " has one implementation, " + impls[0]
		}
		found = append(found, finding{pos: tn.Pos(), name: qualified(tn), why: why})
	}
	return found
}

// undocumented returns a finding for every package under mod's internal/
// directory that has no package comment, and for each of its exported
// declarations that no doc comment covers.
func undocumented(mod string, paths []string, pkgs map[string]*pkg) (missing []finding) {
	for _, ip := range paths {
		if !strings.HasPrefix(ip, mod+"/internal/") {
			continue
		}
		p, name := pkgs[ip], path.Base(ip)
		add := func(pos token.Pos, decl string) {
			missing = append(missing, finding{pos: pos, name: name + "." + decl, why: " has no doc comment"})
		}
		documented := false
		for _, f := range p.files {
			documented = documented || f.Doc != nil
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Doc != nil || !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						add(d.Pos(), d.Name.Name)
					} else if recv := recvName(d.Recv.List[0].Type); ast.IsExported(recv) {
						add(d.Pos(), recv+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if d.Doc == nil && spec.Doc == nil && spec.Name.IsExported() {
								add(spec.Pos(), spec.Name.Name)
							}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if d.Doc == nil && spec.Doc == nil && spec.Comment == nil && id.IsExported() {
									add(id.Pos(), id.Name)
								}
							}
						}
					}
				}
			}
		}
		if !documented {
			missing = append(missing, finding{pos: p.files[0].Package, name: name, why: " has no package comment"})
		}
	}
	return missing
}

// reach walks from the roots and returns every function declared outside a
// nested module that the walk never entered.
func reach(fset *token.FileSet, paths []string, pkgs map[string]*pkg, ifaces []*types.Interface) (dead []finding) {
	type work struct {
		node ast.Node
		p    *pkg
	}
	decls, reached := map[*types.Func]work{}, map[*types.Func]bool{}
	byName, dynamic := map[string][]*types.Func{}, map[string]bool{}
	var queue []work
	mark := func(fn *types.Func) {
		if w, ok := decls[fn.Origin()]; ok && !reached[fn.Origin()] {
			reached[fn.Origin()] = true
			queue = append(queue, w)
		}
	}
	for _, ip := range paths {
		for _, f := range pkgs[ip].files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					queue = append(queue, work{d, pkgs[ip]}) // initializers; types and consts call nothing
					continue
				}
				fn := pkgs[ip].info.Defs[fd.Name].(*types.Func)
				decls[fn] = work{fd, pkgs[ip]}
				if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && f.Name.Name == "main") {
					mark(fn)
				} else if fd.Recv != nil {
					byName[fn.Name()] = append(byName[fn.Name()], fn)
					t := fn.Type().(*types.Signature).Recv().Type()
					for _, iface := range ifaces {
						if m, _, _ := types.LookupFieldOrMethod(iface, false, nil, fn.Name()); m != nil &&
							(types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)) {
							mark(fn)
						}
					}
				}
			}
		}
	}
	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ast.Inspect(w.node, func(n ast.Node) bool {
			id, _ := n.(*ast.Ident)
			fn, ok := w.p.info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv == nil || !types.IsInterface(recv.Type()) {
				mark(fn)
			} else if !dynamic[fn.Name()] {
				dynamic[fn.Name()] = true
				for _, m := range byName[fn.Name()] {
					mark(m)
				}
			}
			return true
		})
	}
	for fn, w := range decls {
		if !reached[fn] && !w.p.callerOnly && fn.Name() != "_" {
			name := path.Base(w.p.types.Path())
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				t, _, _ := strings.Cut(recv.Type().String(), "[") // *toss/internal/pkg.Type[T]
				name = path.Base(t)
			}
			dead = append(dead, finding{pos: w.node.Pos(), name: name + "." + fn.Name()})
		}
	}
	return dead
}

// docFiles are the documents whose code citations must resolve. CHANGES.md
// and ROADMAP.md are history: they name code that is gone on purpose.
var docFiles = []string{"README.md", "DESIGN.md", "FAULTS.md", "TIERS.md", "OBSERVABILITY.md", "EXPERIMENTS.md"}

var (
	// spanRE finds a backticked code span on one line.
	spanRE = regexp.MustCompile("`([^`]+)`")
	// citeRE matches a span that opens with pkg.Name or pkg.Type.Name, the
	// names exported, as in `pkg.Name`, `pkg.Name(args)` or `pkg.Name[T]`.
	citeRE = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*(?:\.[A-Z]\w*)?)(?:$|[^\w.])`)
	// testRE matches a span that is a bare test, benchmark or fuzz target.
	testRE = regexp.MustCompile(`^(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*$`)
)

// docs returns, in docFiles order, every citation in root's documents that
// names nothing: a pkg.Name or pkg.Type.Name citation whose pkg is the base
// name of a module directory with Go files and that the directory does not
// declare, and a bare test name no _test.go file declares.
func docs(root string) (stale []finding, err error) {
	decls := map[string]map[string]bool{} // by directory base name: Name, and Type.Name for methods and fields
	tests := map[string]bool{}
	err = filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && file != root && (d.Name() == "testdata" || strings.ContainsAny(d.Name()[:1], "._")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(file, ".go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Base(filepath.Dir(file))
		if filepath.Dir(file) == filepath.Clean(root) {
			dir = "" // the root's base name is the checkout's, not a package's
		}
		names := decls[dir]
		if names == nil {
			names = map[string]bool{}
			decls[dir] = names
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					names[recvName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
					continue
				}
				names[d.Name.Name] = true
				if strings.HasSuffix(file, "_test.go") {
					tests[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							names[id.Name] = true
						}
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						var members []*ast.Field
						switch t := spec.Type.(type) {
						case *ast.StructType:
							members = t.Fields.List
						case *ast.InterfaceType:
							members = t.Methods.List
						}
						for _, m := range members {
							for _, id := range m.Names {
								names[spec.Name.Name+"."+id.Name] = true
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, doc := range docFiles {
		b, err := os.ReadFile(filepath.Join(root, doc))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		} else if err != nil {
			return nil, err
		}
		for n, line := range strings.Split(string(b), "\n") {
			for _, span := range spanRE.FindAllStringSubmatch(line, -1) {
				name := ""
				if m := citeRE.FindStringSubmatch(span[1]); m != nil && decls[m[1]] != nil && !decls[m[1]][m[2]] {
					name = m[1] + "." + m[2]
				} else if testRE.MatchString(span[1]) && !tests[span[1]] {
					name = span[1]
				}
				if name != "" {
					stale = append(stale, finding{name: name, at: fmt.Sprintf("%s:%d", doc, n+1)})
				}
			}
		}
	}
	return stale, nil
}

// recvName returns the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(t ast.Expr) string {
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.IndexExpr:
			t = e.X
		case *ast.IndexListExpr:
			t = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// report prints each allowlist entry that gives no reason or names no
// finding, then each finding the allowlist does not name, and returns the
// exit code.
func report(w io.Writer, dead []finding, allow string) (code int) {
	named, allowed := map[string]bool{}, map[string]bool{}
	for _, d := range dead {
		named[d.name] = true
	}
	for n, line := range strings.Split(allow, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0][0] != '#' {
			allowed[f[0]] = true
			if len(f) == 1 || !named[f[0]] {
				fmt.Fprintf(w, "allow.txt:%d: %s must name a finding and give a reason\n", n+1, f[0])
				code = 1
			}
		}
	}
	for _, d := range dead {
		if !allowed[d.name] {
			fmt.Fprintf(w, "%s %s%s\n", d.at, d.name, d.why)
			code = 1
		}
	}
	return code
}
